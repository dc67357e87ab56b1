"""Accelerator instance description: compute geometry, memory hierarchy,
operating point, and the power-calibration table.

Defaults describe the reference design: a 7-wide array of row-convolution
units (7 xnor+popcount slices of 16 lanes each), a ping-pong feature-map
memory built from 1 kB latch banks, a double-buffered parameter buffer,
and seven row staging banks behind a crossbar.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FitError, FormatError, ShapeError
from .power import CalibrationTable
from .stats import kernel_peak
from .tensors import n_groups


@dataclass
class ComputeGeometry:
    n_bpu: int = 7
    xnor_units_per_bpu: int = 7
    supported_kernels: tuple = (1, 3, 5, 7)

    def kernel_ok(self, k: int) -> bool:
        return k in self.supported_kernels and k <= self.n_bpu and k <= self.xnor_units_per_bpu


@dataclass
class MemoryGeometry:
    fmm_bank_words: int = 256
    fmm_bank_width_bits: int = 32
    fmm_src_banks: int = 73       # half A
    fmm_snk_banks: int = 73       # half B
    pb_bytes: int = 3584          # bank width for the PB is not tied to 1 kB
    io_bits_per_cycle: int = 16   # off-chip streaming bandwidth at core clock

    @property
    def bank_bytes(self) -> int:
        return self.fmm_bank_words * self.fmm_bank_width_bits // 8

    @property
    def fmm_banks_total(self) -> int:
        return self.fmm_src_banks + self.fmm_snk_banks

    def half_bytes(self, half: int) -> int:
        banks = self.fmm_src_banks if half == 0 else self.fmm_snk_banks
        return banks * self.bank_bytes


@dataclass
class OperatingPoint:
    f_clk: float = 154e6


@dataclass
class ArchConfig:
    compute: ComputeGeometry = field(default_factory=ComputeGeometry)
    memory: MemoryGeometry = field(default_factory=MemoryGeometry)
    op_point: OperatingPoint = field(default_factory=OperatingPoint)
    calib: CalibrationTable = field(default_factory=CalibrationTable)

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Reject zero, negative or non-finite geometry and operating values.

        Runs on construction, so on every parsed config file, and again
        before planning, since fields may be changed after construction."""
        m = self.memory
        bad = [f"{name} = {v}" for part in (self.compute, m, self.op_point)
               for name, v in vars(part).items()
               if isinstance(v, (int, float)) and not 0 < v < math.inf]
        if bad:
            raise ShapeError("arch values must be positive and finite: " + ", ".join(bad))
        if m.fmm_bank_width_bits % 8:
            raise ShapeError(f"fmm_bank_width_bits = {m.fmm_bank_width_bits} "
                             f"is not a whole number of bytes")


def default_arch() -> ArchConfig:
    return ArchConfig()


def peak_ops_per_cycle(arch: ArchConfig, k: int) -> int:
    """Steady-state ops per cycle for a k x k layer (1 xnor+accumulate = 2 ops)."""
    if not arch.compute.kernel_ok(k):
        raise FitError(f"kernel {k}x{k} not supported by this geometry")
    return kernel_peak(k)


def map_bytes(channels: int, h: int, w: int) -> int:
    """FMM bytes of a packed binary map."""
    return n_groups(channels) * h * w * 2


def plane_bytes(channels: int, h: int, w: int) -> int:
    """FMM bytes of a 16-bit integer plane (residual parking)."""
    return channels * h * w * 2


# ---------------------------------------------------------------------------
# fit reporting
# ---------------------------------------------------------------------------

@dataclass
class FitEntry:
    layer: str
    active_banks: int
    fits: bool
    tiles: int = 1
    overlap_cols: int = 0
    streams_params: bool = False  # its weights and thresholds stream in from off chip


@dataclass
class FitReport:
    entries: list[FitEntry]
    fits_untiled: bool
    needs_tiling: list[str]
    unsupported_kernels: list[str]
    weights_fit_pb: bool
    streamed_param_bits: int


def validate(net, arch: ArchConfig) -> FitReport:
    """Check a network against the memory geometry and kernel support.

    Byte accounting covers packed activation maps and parked residual
    planes; the in-flight partial-sum tile plane counts toward a layer's
    active banks but not toward the fit verdict.  Tile counts come from the
    scheduler: the report equals `plan_network(net, arch).fit` wherever the
    net plans, and no addresses are assigned.
    """
    from . import scheduler  # local import; scheduler depends on this module

    return scheduler.placement_report(net, arch)


# ---------------------------------------------------------------------------
# config file format
# ---------------------------------------------------------------------------

def parse_arch(text: str, path: str = "<string>") -> ArchConfig:
    compute = ComputeGeometry()
    memory = MemoryGeometry()
    op = OperatingPoint()
    calib = CalibrationTable()
    section = None
    targets = {"compute": compute, "memory": memory, "operating": op, "calibration": calib}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"\[(\w+)\]", line)
        if m:
            section = m.group(1)
            if section not in targets:
                raise FormatError(f"unknown section [{section}]", path, lineno)
            continue
        if "=" not in line or section is None:
            raise FormatError(f"expected key = value inside a section: {line!r}", path, lineno)
        key, val = (s.strip() for s in line.split("=", 1))
        try:
            _apply_key(targets[section], key, val)
        except (ValueError, AttributeError) as e:
            raise FormatError(f"bad value for {key!r}: {e}", path, lineno) from e
    calib.check()
    try:
        return ArchConfig(compute, memory, op, calib)
    except ShapeError as e:
        raise FormatError(str(e), path) from e


# fields no model read or could honour (the lane width is the packed word,
# tensors.LANES; banks and supply come from the plan and the calibration);
# files that still set them parse and ignore them
_RETIRED_KEYS = ("pb_banks", "rowbank_count", "rowbank_bytes", "mem_subfractions",
                 "lanes_per_unit", "active_fmm_banks", "vdd")


def _apply_key(obj, key: str, val: str) -> None:
    if key in _RETIRED_KEYS:
        return
    if not hasattr(obj, key):
        raise AttributeError(f"no such field {key!r}")
    current = getattr(obj, key)
    if key == "supported_kernels":
        setattr(obj, key, tuple(int(v) for v in val.split(",")))
    elif key in ("core_mw_full", "core_mw_gated"):
        entries = {}
        for item in val.split(","):
            k, mw = item.split(":")
            entries[int(k)] = float(mw)
        setattr(obj, key, entries)
    elif key == "breakdown":
        entries = {}
        for item in val.split(","):
            name, frac = item.split(":")
            entries[name.strip()] = float(frac)
        setattr(obj, key, entries)
    elif isinstance(current, int):
        setattr(obj, key, int(val))
    elif isinstance(current, float):
        setattr(obj, key, float(val))
    else:
        setattr(obj, key, val)


def format_arch(cfg: ArchConfig) -> str:
    c, m, o, cal = cfg.compute, cfg.memory, cfg.op_point, cfg.calib
    full = ", ".join(f"{k}:{v}" for k, v in sorted(cal.core_mw_full.items()))
    gated = ", ".join(f"{k}:{v}" for k, v in sorted(cal.core_mw_gated.items()))
    brk = ", ".join(f"{k}:{v}" for k, v in cal.breakdown.items())
    return "\n".join([
        "[compute]",
        f"n_bpu = {c.n_bpu}",
        f"xnor_units_per_bpu = {c.xnor_units_per_bpu}",
        "supported_kernels = " + ",".join(str(k) for k in c.supported_kernels),
        "",
        "[memory]",
        f"fmm_bank_words = {m.fmm_bank_words}",
        f"fmm_bank_width_bits = {m.fmm_bank_width_bits}",
        f"fmm_src_banks = {m.fmm_src_banks}",
        f"fmm_snk_banks = {m.fmm_snk_banks}",
        f"pb_bytes = {m.pb_bytes}",
        f"io_bits_per_cycle = {m.io_bits_per_cycle}",
        "",
        "[operating]",
        f"f_clk = {o.f_clk}",
        "",
        "[calibration]",
        f"core_mw_full = {full}",
        f"core_mw_gated = {gated}",
        f"gated_banks = {cal.gated_banks}",
        f"full_banks = {cal.full_banks}",
        f"breakdown = {brk}",
        f"io_pj_per_bit = {cal.io_pj_per_bit}",
    ]) + "\n"


def load_arch(path) -> ArchConfig:
    path = Path(path)
    return parse_arch(path.read_text(), str(path))


def save_arch(cfg: ArchConfig, path) -> None:
    Path(path).write_text(format_arch(cfg))


def builtin_arch(name: str = "default") -> ArchConfig:
    from importlib.resources import files

    res = files("bnnsim") / "shapes" / f"{name}.arch"
    return parse_arch(res.read_text(), f"shapes/{name}.arch")
