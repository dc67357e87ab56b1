"""Cycle and access counters produced by `simulator.cost`, consumed by
the power model and reports.  All counters are exact integers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .tensors import LANES

_TOTALS = (
    "cycles_total", "cycles_compute", "cycles_load", "xnor_ops_done",
    "xnor_lane_slots", "fmm_reads", "fmm_writes", "pb_reads",
    "rowbank_reads", "rowbank_writes", "nmcu_rmw", "io_bits",
)


def kernel_peak(k: int) -> int:
    """Ops per cycle of a k x k layer at full use: k*k xnor units of LANES
    lanes, each lane an xnor and an accumulate (2 ops)."""
    return 2 * k * k * LANES


@dataclass
class LayerStats:
    name: str
    k: int
    tile: int = 0
    ops_graph: int = 0          # graph-level ops (full taps), for weighting
    active_banks: int = 0
    cycles_compute: int = 0
    cycles_load: int = 0        # loads not hidden by overlap
    cycles_fill: int = 0        # pipeline fill/drain
    cycles_pool: int = 0
    cycles_other: int = 0       # swaps and bookkeeping
    xnor_ops_done: int = 0      # achieved ops (idle lanes excluded)
    fmm_reads: int = 0          # in 16-bit word units
    fmm_writes: int = 0
    pb_reads: int = 0
    rowbank_reads: int = 0
    rowbank_writes: int = 0
    nmcu_rmw: int = 0
    io_bits: int = 0

    @property
    def cycles_total(self) -> int:
        return (self.cycles_compute + self.cycles_load + self.cycles_fill
                + self.cycles_pool + self.cycles_other)

    @property
    def xnor_lane_slots(self) -> int:
        return self.cycles_total * kernel_peak(self.k)

    @property
    def util_kernel_limited(self) -> float:
        return self.xnor_ops_done / self.xnor_lane_slots if self.cycles_total else 0.0

    @property
    def mem_accesses(self) -> int:
        """Weighted memory activity; the read-add-write counts twice."""
        return (self.fmm_reads + self.fmm_writes + self.pb_reads
                + self.rowbank_reads + self.rowbank_writes + 2 * self.nmcu_rmw)


@dataclass
class Stats:
    """Counters of one simulated run.  Each name in `_TOTALS` reads as an
    attribute whose value is that counter summed over the layer runs."""

    net: str = ""
    layers: list[LayerStats] = field(default_factory=list)
    bank_activity: dict = field(default_factory=dict)  # bank index -> accesses

    def __getattr__(self, name: str) -> int:
        if name in _TOTALS:
            return sum(getattr(l, name) for l in self.layers)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def time_s(self, f_clk: float) -> float:
        return self.cycles_total / f_clk

    def to_text(self) -> str:
        """Key/value block plus a per-layer CSV table."""
        lines = [f"net = {self.net}"]
        for key in _TOTALS:
            lines.append(f"{key} = {getattr(self, key)}")
        lines.append("[layers]")
        cols = ["name", "tile", "k", "ops_graph", "xnor_ops_done", "cycles_compute",
                "cycles_load", "cycles_fill", "cycles_pool", "cycles_other",
                "fmm_reads", "fmm_writes", "pb_reads", "rowbank_reads",
                "rowbank_writes", "nmcu_rmw", "io_bits", "active_banks"]
        lines.append(",".join(cols))
        for l in self.layers:
            lines.append(",".join(str(getattr(l, c)) for c in cols))
        if self.bank_activity:
            lines.append("[banks]")
            lines.append("bank,accesses")
            for bank in sorted(self.bank_activity):
                lines.append(f"{bank},{self.bank_activity[bank]}")
        return "\n".join(lines) + "\n"
