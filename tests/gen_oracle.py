"""The generator's loop written with the public `random.Random` calls: the reference
that `workload.generate_random_workload` is checked against.

`generate_by_public_calls` draws with `rng.choice`, `rng.randint`, `rng.randrange`
and `rng.sample`, as the generator did before it called `_randbelow` directly.  The
package must make the same draws in the same order, so both return equal workloads
for every parameter set and seed.  Which bits a draw consumes is a property of each
CPython version, so this runs on every version the package supports.

Run as a script (no pytest or Hypothesis needed) to compare the two on a fixed grid
of parameters and seeds; it exits 1 on any mismatch:

    PYTHONPATH=src:tests python tests/gen_oracle.py
"""

import itertools
import random
import sys

from cgralloc.workload import (ALU_OPCODES, MAX_INPUTS, MAX_OUTPUTS, Dfg, GeneratorParams,
                               Operation, Workload, generate_random_workload)

SEEDS = (0, 1, 101, 2**70)


def generate_by_public_calls(params: GeneratorParams, seed: int) -> Workload:
    lo, hi = params.ops_per_dfg
    rng = random.Random(seed)
    dfgs = []
    for di in range(params.num_dfgs):
        n_ops = rng.randint(lo, hi)
        available = [~i for i in range(params.num_inputs)]
        ops = []
        for oid in range(n_ops):
            if rng.random() < params.memory_op_fraction:
                opcode = "load" if rng.random() < 0.5 else "store"
            else:
                opcode = rng.choice(ALU_OPCODES)
            num_srcs = 1 if opcode == "load" else 2
            ops.append(Operation(opcode, tuple(rng.choice(available) for _ in range(num_srcs))))
            if opcode != "store":
                available.append(oid)
        k = min(len(available), rng.randint(1, MAX_OUTPUTS))
        outputs = tuple(rng.sample(available, k))
        dfgs.append(Dfg(f"dfg{di}", params.num_inputs, tuple(ops), outputs))
    trace = tuple((rng.randrange(params.num_dfgs), rng.randint(1, params.max_repeat))
                  for _ in range(params.trace_length))
    return Workload(tuple(dfgs), trace)


def grid() -> list[GeneratorParams]:
    """Memory fractions 0, 0.15 and 1 x ops (1, 1), (3, 10) and (20, 60) x inputs 1, 8
    and MAX_INPUTS (only with one op per DFG, since each DFG lists every input) x trace
    lengths 1 and 1000 x max repeats 1 and 1000."""
    return [GeneratorParams(num_dfgs=3, ops_per_dfg=ops, memory_op_fraction=frac,
                            num_inputs=inputs, trace_length=length, max_repeat=repeat)
            for frac, ops, inputs, length, repeat in itertools.product(
                (0.0, 0.15, 1.0), ((1, 1), (3, 10), (20, 60)), (1, 8, MAX_INPUTS),
                (1, 1000), (1, 1000))
            if inputs < MAX_INPUTS or ops == (1, 1)]


def mismatches() -> list[str]:
    """One line per grid point and seed where the package and the oracle differ."""
    return [f"seed {seed} {params}: generate_random_workload differs from the public calls"
            for params in grid() for seed in SEEDS
            if generate_random_workload(params, seed) != generate_by_public_calls(params, seed)]


if __name__ == "__main__":
    lines = mismatches()
    print("\n".join(lines) or "generate_random_workload makes the public calls' draws")
    sys.exit(1 if lines else 0)
