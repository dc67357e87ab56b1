"""Geometry, peak throughput, memory fit, and the config file format."""

import numpy as np
import pytest

from bnnsim.arch import (
    ArchConfig,
    MemoryGeometry,
    builtin_arch,
    default_arch,
    format_arch,
    map_bytes,
    parse_arch,
    peak_ops_per_cycle,
    validate,
)
from bnnsim.errors import BnnSimError, FitError, FormatError
from bnnsim.netio import builtin_network, random_network
from bnnsim.network import LayerConfig, NetworkDesc

F_CLK = 154e6


def test_peak_ops_per_cycle_values():
    arch = default_arch()
    assert peak_ops_per_cycle(arch, 7) == 1568
    assert peak_ops_per_cycle(arch, 5) == 800
    assert peak_ops_per_cycle(arch, 3) == 288
    # published peak throughputs, 0.5% band
    for k, want in ((7, 241e9), (5, 123e9), (3, 44.3e9)):
        got = peak_ops_per_cycle(arch, k) * F_CLK
        assert abs(got - want) / want < 0.005


def test_peak_ops_quadratic_and_monotone():
    arch = default_arch()
    peaks = [peak_ops_per_cycle(arch, k) for k in (1, 3, 5, 7)]
    assert peaks == sorted(peaks)
    assert peak_ops_per_cycle(arch, 7) * 9 == peak_ops_per_cycle(arch, 3) * 49


def test_peak_ops_unsupported_kernel():
    arch = default_arch()
    with pytest.raises(FitError):
        peak_ops_per_cycle(arch, 9)
    narrow = ArchConfig()
    narrow.compute.n_bpu = 5
    with pytest.raises(FitError):
        peak_ops_per_cycle(narrow, 7)


def test_fit_trivial_single_pixel():
    net = NetworkDesc("t", 1, 1, 1, [LayerConfig(name="a", k=1, n_out=1)]).validate()
    report = validate(net, default_arch())
    assert report.fits_untiled and not report.needs_tiling


def test_fit_resnet18_untiled_146k():
    net = builtin_network("resnet18_ilsvrc")
    report = validate(net, default_arch())
    assert report.fits_untiled
    assert not report.weights_fit_pb  # parameters stream from off-chip


def test_fit_sed_two_tiles():
    net = builtin_network("sed_freesound")
    report = validate(net, default_arch())
    assert not report.fits_untiled
    tiled = [e for e in report.entries if e.tiles > 1]
    assert tiled and all(e.tiles == 2 for e in tiled)
    assert all(e.overlap_cols > 0 for e in tiled)


def test_fit_alexnet_48k_asymmetric():
    net = builtin_network("alexnet_dorefa_ilsvrc")
    arch = ArchConfig(memory=MemoryGeometry(fmm_src_banks=16, fmm_snk_banks=32))
    report = validate(net, arch)
    assert report.fits_untiled


def test_fit_flags_unsupported_kernel():
    net = NetworkDesc("t", 16, 6, 6, [LayerConfig(name="a", k=7, n_out=16)]).validate()
    narrow = ArchConfig()
    narrow.compute.supported_kernels = (1, 3, 5)
    report = validate(net, narrow)
    assert report.unsupported_kernels == ["a"]


def test_fit_never_false_positive():
    # whenever a layer is reported fitting, its own pair of packed maps must
    # fit the halves (independent byte-count oracle)
    rng = np.random.default_rng(31)
    for _ in range(60):
        arch = ArchConfig(memory=MemoryGeometry(
            fmm_src_banks=int(rng.integers(1, 8)),
            fmm_snk_banks=int(rng.integers(1, 8))))
        net = random_network(rng, residual_prob=0.2)
        try:
            report = validate(net, arch)
        except FitError:
            continue
        caps = (arch.memory.half_bytes(0), arch.memory.half_bytes(1))
        for i, l in enumerate(net.binary_layers()):
            e = next(x for x in report.entries if x.layer == l.name)
            if e.fits and e.tiles == 1:
                feed = map_bytes(l.n_in, l.in_h, l.in_w)
                out = map_bytes(l.n_out, l.pooled_h, l.pooled_w)
                assert feed <= caps[i % 2]
                assert out <= caps[1 - i % 2]


def test_fit_impossible_raises():
    arch = ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1))
    # a single column already exceeds one 1 kB bank
    net = NetworkDesc("t", 512, 40, 8, [LayerConfig(name="a", k=1, n_out=512)]).validate()
    with pytest.raises(FitError):
        from bnnsim.scheduler import plan_network
        plan_network(net, arch)


def test_arch_file_roundtrip(tmp_path):
    arch = builtin_arch("default")
    text = format_arch(arch)
    again = parse_arch(text)
    assert format_arch(again) == text
    assert again.memory.fmm_banks_total == 146
    assert again.calib.core_mw_full[7] == 1.3


def test_arch_file_ignores_retired_fields():
    # fields no model read: files written before their removal still parse
    text = format_arch(builtin_arch("default"))
    old = (text.replace("pb_bytes =", "pb_banks = 2\nrowbank_count = 7\n"
                        "rowbank_bytes = 512\npb_bytes =")
           .replace("io_pj_per_bit =", "mem_subfractions = 0.18, 0.238, 0.127, 0.016\n"
                    "io_pj_per_bit =")
           .replace("supported_kernels =", "lanes_per_unit = 8\nsupported_kernels =")
           .replace("f_clk =", "vdd = 0.4\nactive_fmm_banks = auto\nf_clk ="))
    assert all(key in old for key in ("rowbank_bytes", "mem_subfractions", "lanes_per_unit",
                                      "vdd", "active_fmm_banks"))
    assert format_arch(parse_arch(old)) == text


@pytest.mark.parametrize("name", ["default", "small48k"])
def test_bundled_arch_file_is_canonical(name):
    # a shipped file holds exactly the fields format_arch writes: no retired key
    from importlib.resources import files

    text = (files("bnnsim") / "shapes" / f"{name}.arch").read_text()
    assert format_arch(parse_arch(text)) == text


def test_arch_file_errors():
    with pytest.raises(FormatError):
        parse_arch("n_bpu = 7\n")  # key outside a section
    with pytest.raises(FormatError):
        parse_arch("[compute]\nwat = 3\n")


def test_calibration_invariants():
    calib = default_arch().calib
    assert abs(sum(calib.breakdown.values()) - 1.0) < 1e-9
    full, gated, _ = calib.anchors(7)
    assert abs((full - gated) / (calib.full_banks - calib.gated_banks) - (1.3 - 1.08) / 44) < 1e-12
    with pytest.raises(BnnSimError):
        bad = default_arch().calib
        bad.breakdown = dict(bad.breakdown, other=0.5)
        bad.check()
