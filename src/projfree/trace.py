"""Per-iteration run records and their CSV serialization.

The on-disk format is a fixed-header CSV; optional fields (perturbed loss,
batch size, timings) are written as empty cells when absent, never as zeros,
so a parsed trace reproduces the written one exactly.
"""

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# (name, cell type, may be empty), in file order
_COLUMNS = (
    ("t", int, False),
    ("loss_f", float, False),
    ("loss_h", float, True),
    ("fw_gap", float, False),
    ("gamma", float, False),
    ("batch", int, True),
    ("grad_norm", float, False),
    ("step_ms", float, True),
    ("oracle_ms", float, True),
    ("proj_ms", float, True),
)
CSV_HEADER = [name for name, _, _ in _COLUMNS]


@dataclass
class Trace:
    """Columnar per-iteration records of a single optimizer run."""

    t: list = field(default_factory=list)
    loss_f: list = field(default_factory=list)
    loss_h: list = field(default_factory=list)
    fw_gap: list = field(default_factory=list)
    gamma: list = field(default_factory=list)
    batch: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    oracle_ms: list = field(default_factory=list)
    proj_ms: list = field(default_factory=list)
    #: final iterate of the run; not serialized
    final_point: Optional[np.ndarray] = None

    def append(
        self,
        t: int,
        loss_f: float,
        loss_h: Optional[float],
        fw_gap: float,
        gamma: float,
        batch: Optional[int],
        grad_norm: float,
        step_ms: Optional[float] = None,
        oracle_ms: Optional[float] = None,
        proj_ms: Optional[float] = None,
    ) -> None:
        self.t.append(int(t))
        self.loss_f.append(float(loss_f))
        self.loss_h.append(None if loss_h is None else float(loss_h))
        self.fw_gap.append(float(fw_gap))
        self.gamma.append(float(gamma))
        self.batch.append(None if batch is None else int(batch))
        self.grad_norm.append(float(grad_norm))
        self.step_ms.append(None if step_ms is None else float(step_ms))
        self.oracle_ms.append(None if oracle_ms is None else float(oracle_ms))
        self.proj_ms.append(None if proj_ms is None else float(proj_ms))

    def __len__(self) -> int:
        return len(self.t)

    def rows(self):
        return zip(*(getattr(self, name) for name in CSV_HEADER))

    def records_equal(self, other: "Trace") -> bool:
        return list(self.rows()) == list(other.rows())


_BLOCK = 512  # rows formatted at once; a whole trace as text costs memory


def write_trace(trace: Trace, path) -> None:
    """The bytes csv.writer gives for the cells repr(float), str(int) and ""
    for None with CRLF line ends; no cell of a trace needs quoting."""
    formats = [float.__repr__ if kind is float else str for _, kind, _ in _COLUMNS]
    columns = [getattr(trace, name) for name in CSV_HEADER]
    n = min(map(len, columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for lo in range(0, n, _BLOCK):
            cells = [
                ["" if v is None else fmt(v) for v in col[lo : lo + _BLOCK]]
                if optional else list(map(fmt, col[lo : lo + _BLOCK]))
                for col, fmt, (_, _, optional) in zip(columns, formats, _COLUMNS)
            ]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def read_trace(path) -> Trace:
    # One flat list of strings, which the garbage collector does not track
    # (kept row lists set off collections); each column is a strided slice.
    cells = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(
                f"unexpected trace header {header!r}; expected {CSV_HEADER!r}"
            )
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"malformed trace row: {row!r}")
            cells.extend(row)
    trace = Trace()
    for i, (name, kind, optional) in enumerate(_COLUMNS):
        column = cells[i :: len(_COLUMNS)]
        if optional:
            setattr(trace, name, [None if c == "" else kind(c) for c in column])
        else:
            setattr(trace, name, list(map(kind, column)))
    return trace
