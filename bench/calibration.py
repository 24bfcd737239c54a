"""Machine-speed calibration that turns host seconds into reference seconds.

The hosts this benchmark runs on are shared: for minutes at a time the same
CPU-bound command can take twice as long, whatever the program does.  A
median inside one 30-second run cannot remove that.  So each session times
a fixed pure-Python kernel before, between and after its measured commands,
and the run reports its timings scaled by CAL_REF_S / mean(kernel time):
host seconds at the speed where the kernel takes CAL_REF_S.  The mean, not
the median, because a command's time also absorbs every short stall.  The kernel
does the same kinds of work as the simulator (small objects, dict and list
updates, modular index arithmetic, JSON decoding), so a slow phase stretches
both alike.  It never calls cgralloc, so a change to the program moves the
scaled times exactly as it moves the raw ones.  Raw host seconds stay in
every report next to the scaled ones.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

CAL_REF_S = 0.020  # kernel time, in host seconds, that defines reference speed

_DOC = json.dumps({"ops": [{"id": i, "opcode": "add", "srcs": [{"kind": "op", "index": i // 2}]}
                           for i in range(40)]})
_SHAPE = [(r % 4, c) for r in range(3) for c in range(6)]


@dataclass(frozen=True)
class _Cell:
    row: int
    col: int


def kernel_s() -> float:
    """Host seconds of one pass of the fixed kernel (about CAL_REF_S)."""
    start = time.perf_counter()
    counts = [[0] * 32 for _ in range(8)]
    for k in range(1200):
        pr, pc = (k // 32) % 8, k % 32
        cells = {i: _Cell((r + pr) % 8, (c + pc) % 32) for i, (r, c) in enumerate(_SHAPE)}
        for cell in cells.values():
            counts[cell.row][cell.col] += 1
        if k % 15 == 0:
            doc = json.loads(_DOC)
            sorted(doc["ops"], key=lambda op: (op["srcs"][0]["index"], op["id"]))
    return time.perf_counter() - start


class Calibration:
    """Kernel samples of one session; `scale` converts its host seconds."""

    def __init__(self, every_s: float = 0.25) -> None:
        self.samples: list[float] = []
        self.every_s = every_s
        self._last = 0.0

    def sample(self, passes: int = 1) -> None:
        self.samples += [kernel_s() for _ in range(passes)]
        self._last = time.perf_counter()

    def between(self) -> None:
        """Sample twice if the last sample is more than every_s old."""
        if time.perf_counter() - self._last >= self.every_s:
            self.sample(2)

    @property
    def scale(self) -> float:
        return CAL_REF_S / statistics.fmean(self.samples)
