"""Column-stepping execution: the reference that `fabric.execute` is checked against.

It walks the fabric's column boundaries 0..num_cols.  At each boundary it
first applies, in op-id order, the stores that complete there, and then
runs, in op-id order, the ops that start there: an ALU op or a load computes
its value at once, and a store reads its address and word at its start and
queues the write for its completion boundary.  The ALU semantics are
written out from the `workload` module docstring, not taken from the
package: 32-bit wrapping arithmetic, shift amounts from the low 5 bits,
signed `cmplt` yielding 0 or 1, and a logical `shr`.

Given a list as `order`, it appends each op id where the op takes effect: a
store where its write lands, any other op where it computes its value.
"""

from cgralloc.mapper import VirtualConfiguration

MOD = 2 ** 32


def _signed(v: int) -> int:
    return v - MOD if v >= MOD // 2 else v


ALU = {
    "add": lambda a, b: (a + b) % MOD,
    "sub": lambda a, b: (a - b) % MOD,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a * 2 ** (b % 32)) % MOD,
    "shr": lambda a, b: a // 2 ** (b % 32),
    "cmplt": lambda a, b: 1 if _signed(a) < _signed(b) else 0,
}


def execute_by_columns(
    vc: VirtualConfiguration, inputs: list[int], memory: dict[int, int], num_cols: int,
    order: list[int] | None = None,
) -> tuple[tuple[int, ...], dict[int, int]]:
    """Outputs and final nonzero memory of one run of `vc` from `memory`."""
    words = [v % MOD for v in inputs]
    mem = {addr % MOD: word % MOD for addr, word in memory.items() if word % MOD}
    values: dict[int, int] = {}
    order = [] if order is None else order
    queued: dict[int, tuple[int, int]] = {}  # store op id -> (addr, word)

    def value(ref):
        return words[-1 - ref] if ref < 0 else values[ref]

    for col in range(num_cols + 1):
        for op_id, p in enumerate(vc.placements):
            if op_id in queued and p.col_start + p.width == col:
                addr, word = queued.pop(op_id)
                order.append(op_id)
                if word:
                    mem[addr] = word
                else:
                    mem.pop(addr, None)
        for op_id, p in enumerate(vc.placements):
            if p.col_start != col:
                continue
            op = vc.dfg.ops[op_id]
            name = op.opcode
            if name != "store":
                order.append(op_id)
            if name == "load":
                values[op_id] = mem.get(value(op.sources[0]), 0)
            elif name == "store":
                queued[op_id] = (value(op.sources[0]), value(op.sources[1]))
            else:
                values[op_id] = ALU[name](value(op.sources[0]), value(op.sources[1]))
    assert not queued, "a store completes past the last column boundary"
    return tuple(value(ref) for ref in vc.dfg.outputs), mem
