"""Activity-based power and energy model.

Calibrated against six measured operating points of the reference design
(three kernel sizes, full 48-bank and gated 4-bank memory states) plus a
published component breakdown.  Dynamic power scales with achieved ops
per cycle for the compute and interconnect shares and with memory access
rate for the memory share; control and the remainder burn per cycle.
Off-chip traffic is charged per bit.

The model is a model, not a measurement: anchors are reproduced exactly,
everything between them is linear interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BnnSimError
from .stats import LayerStats, Stats, kernel_peak
from .tensors import LANES

COMPONENTS = ("memory", "interconnect", "compute", "control", "other")


@dataclass
class CalibrationTable:
    """Measured core power (mW) at full utilization, keyed by kernel size."""

    core_mw_full: dict = field(default_factory=lambda: {7: 1.3, 5: 1.2, 3: 0.90})
    core_mw_gated: dict = field(default_factory=lambda: {7: 1.08, 5: 0.99, 3: 0.68})
    full_banks: int = 48
    gated_banks: int = 4
    breakdown: dict = field(default_factory=lambda: {
        "memory": 0.561, "interconnect": 0.157, "compute": 0.176,
        "control": 0.027, "other": 0.079,
    })
    io_pj_per_bit: float = 21.0

    def check(self) -> "CalibrationTable":
        values = {key: v.values() if isinstance(v, dict) else [v] for key, v in vars(self).items()}
        bad = [key for key, vs in values.items() if not all(-math.inf < v < math.inf for v in vs)]
        if bad:
            raise BnnSimError("calibration values must be finite: " + ", ".join(bad))
        if not 0 <= self.gated_banks < self.full_banks:  # the memory slope divides by their gap
            raise BnnSimError(f"calibration needs 0 <= gated_banks < full_banks, not "
                              f"gated_banks = {self.gated_banks}, full_banks = {self.full_banks}")
        if self.io_pj_per_bit < 0:
            raise BnnSimError(f"io_pj_per_bit = {self.io_pj_per_bit} is negative")
        if sorted(self.breakdown) != sorted(COMPONENTS):
            raise BnnSimError(f"breakdown names {', '.join(self.breakdown)}, "
                              f"not the components {', '.join(COMPONENTS)}")
        total = sum(self.breakdown.values())
        if abs(total - 1.0) > 1e-9:
            raise BnnSimError(f"breakdown fractions sum to {total}, not 1.0")
        if set(self.core_mw_full) != set(self.core_mw_gated):
            raise BnnSimError("full and gated tables must cover the same kernels")
        for k in self.core_mw_full:
            if self.core_mw_full[k] <= self.core_mw_gated[k]:
                raise BnnSimError(f"gating must reduce power for kernel {k}")
        return self

    def _interp(self, table: dict, k: int) -> tuple[float, bool]:
        """Anchor power for kernel k; linear in k*k outside the table."""
        if k in table:
            return table[k], False
        ks = sorted(table)
        x = k * k
        if len(ks) == 1:
            return table[ks[0]], True
        # pick the two nearest anchors by k*k
        pairs = sorted(((abs(q * q - x), q) for q in ks))
        a, b = sorted((pairs[0][1], pairs[1][1]))
        xa, xb = a * a, b * b
        ya, yb = table[a], table[b]
        return ya + (yb - ya) * (x - xa) / (xb - xa), True

    def anchors(self, k: int) -> tuple[float, float, bool]:
        full, flag1 = self._interp(self.core_mw_full, k)
        gated, flag2 = self._interp(self.core_mw_gated, k)
        return full, gated, (flag1 or flag2)


def reference_mem_rate(k: int) -> float:
    """Steady-state memory accesses per cycle at full utilization.

    Per compute cycle: k row-bank reads feeding the array, one partial
    read-add-write (counted twice), and amortized 1/LANES each for the
    row load read, the row-bank fill, and the packed result write.
    """
    return k + 2.0 + 3.0 / LANES


@dataclass
class PowerReport:
    core_mw: float
    io_mw: float
    tops_per_watt: float
    energy_uj_per_inference: float
    per_component_mw: dict
    core_uj: float = 0.0
    io_uj: float = 0.0
    time_s: float = 0.0
    flags: list = field(default_factory=list)

    @property
    def total_mw(self) -> float:
        return self.core_mw + self.io_mw

    def to_text(self) -> str:
        lines = [
            f"core_mw = {self.core_mw:.6f}",
            f"io_mw = {self.io_mw:.6f}",
            f"total_mw = {self.total_mw:.6f}",
            f"tops_per_watt = {self.tops_per_watt:.4f}",
            f"core_uj = {self.core_uj:.6f}",
            f"io_uj = {self.io_uj:.6f}",
            f"energy_uj_per_inference = {self.energy_uj_per_inference:.6f}",
            f"time_s = {self.time_s:.9f}",
        ]
        for name, mw in self.per_component_mw.items():
            lines.append(f"component_{name}_mw = {mw:.6f}")
        for f in self.flags:
            lines.append(f"# note: {f}")
        return "\n".join(lines) + "\n"


def _layer_power(calib: CalibrationTable, ls: LayerStats, cycles: int) -> tuple[dict, bool]:
    """Core power (mW) components of one layer run of `cycles` cycles, and
    whether its kernel lies outside the calibration."""
    full, gated, flagged = calib.anchors(ls.k)
    slope = (full - gated) / (calib.full_banks - calib.gated_banks)
    f = calib.breakdown
    op_ratio = ls.xnor_ops_done / (cycles * kernel_peak(ls.k)) if cycles else 0.0
    mem_ratio = (ls.mem_accesses / cycles) / reference_mem_rate(ls.k) if cycles else 0.0
    comp = {
        "compute": full * f["compute"] * op_ratio,
        "interconnect": full * f["interconnect"] * op_ratio,
        "memory": max(full * f["memory"] - calib.full_banks * slope, 0.0) * mem_ratio
                  + ls.active_banks * slope,
        "control": full * f["control"],
        "other": full * f["other"],
    }
    return comp, flagged


def core_power(arch, stats: Stats) -> tuple[float, dict, list]:
    """Time-averaged core power over all layer runs.

    Anchored so a full-utilization run of a calibrated kernel at the
    calibrated bank count reports the measured value exactly.
    """
    calib = arch.calib
    energy = {c: 0.0 for c in COMPONENTS}  # in mW*cycles
    flags = []
    total_cycles = 0
    for ls in stats.layers:
        cycles = ls.cycles_total
        comp, flagged = _layer_power(calib, ls, cycles)
        if flagged and f"kernel {ls.k} outside calibration (interpolated)" not in flags:
            flags.append(f"kernel {ls.k} outside calibration (interpolated)")
        total_cycles += cycles
        for c in COMPONENTS:
            energy[c] += comp[c] * cycles
    if total_cycles == 0:
        return 0.0, {c: 0.0 for c in COMPONENTS}, []
    per_component = {c: energy[c] / total_cycles for c in COMPONENTS}
    return sum(per_component.values()), per_component, flags


def efficiency(stats: Stats, core_mw: float, f_clk: float) -> float:
    """Achieved TOPS per watt of core power."""
    return _tops_per_watt(stats.xnor_ops_done, stats.time_s(f_clk), core_mw)


def _tops_per_watt(ops: int, t: float, core_mw: float) -> float:
    if t == 0 or core_mw == 0:
        return 0.0
    return ops / t / (core_mw * 1e-3) / 1e12


def _energy_uj(core_mw: float, t: float, io_bits: int,
               calib: CalibrationTable) -> tuple[float, float, float]:
    core_uj = core_mw * 1e-3 * t * 1e6
    io_uj = io_bits * calib.io_pj_per_bit * 1e-12 * 1e6
    return core_uj, io_uj, core_uj + io_uj


def full_report(arch, stats: Stats) -> PowerReport:
    """Power, efficiency and energy of a run; each `Stats` total, a sum over
    the layer runs on every read, is read once."""
    f_clk = arch.op_point.f_clk
    t = stats.time_s(f_clk)
    core_mw, per_component, flags = core_power(arch, stats)
    core_uj, io_uj, total_uj = _energy_uj(core_mw, t, stats.io_bits, arch.calib)
    io_mw = io_uj / (t * 1e3) if t else 0.0
    return PowerReport(
        core_mw=core_mw,
        io_mw=io_mw,
        tops_per_watt=_tops_per_watt(stats.xnor_ops_done, t, core_mw),
        energy_uj_per_inference=total_uj,
        per_component_mw=per_component,
        core_uj=core_uj,
        io_uj=io_uj,
        time_s=t,
        flags=flags,
    )


def ideal_point(k: int, banks: int) -> Stats:
    """Synthetic steady-state run of an endless full-utilization k x k layer.

    Activity sits exactly at the reference rates, so the power model
    returns the calibration anchors at the calibrated bank counts.
    """
    cycles = 1_000_000
    # split the reference activity back into its constituent counters
    ls = LayerStats(
        name=f"ideal_k{k}", k=k, active_banks=banks,
        cycles_compute=cycles,
        xnor_ops_done=cycles * kernel_peak(k),
        rowbank_reads=cycles * k,
        nmcu_rmw=cycles,
        fmm_reads=cycles // LANES,
        fmm_writes=cycles // LANES,
        rowbank_writes=cycles // LANES,
        ops_graph=cycles * kernel_peak(k),
    )
    assert abs(ls.mem_accesses / cycles - reference_mem_rate(k)) < 1e-9
    return Stats(net=f"ideal_k{k}_b{banks}", layers=[ls])
