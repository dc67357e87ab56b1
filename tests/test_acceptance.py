"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured numbers at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; they are also appended to acceptance_summary.txt.
"""

import time
from pathlib import Path

import numpy as np

from bnnsim.arch import ArchConfig, MemoryGeometry, default_arch
from bnnsim.errors import FitError
from bnnsim.functional import BatchNorm, derive_threshold, real_sign_bit
from bnnsim.netio import (
    builtin_network,
    random_input,
    random_network,
    random_thresholds,
    random_weights,
)
from bnnsim.power import core_power, efficiency, full_report, ideal_point
from bnnsim.scheduler import channel_tiles, plan_network
from bnnsim.simulator import check, cost, utilization
from bnnsim.network import LayerConfig, NetworkDesc

F_CLK = 154e6
SUMMARY = Path(__file__).parent.parent / "acceptance_summary.txt"
_seen = set()


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}", flush=True)
    mode = "a" if _seen else "w"
    _seen.add(criterion)
    with open(SUMMARY, mode) as fh:
        fh.write(line + "\n")
    assert ok, line


def test_criterion_1_oracle_equivalence():
    """1000 randomized networks: simulator == functional model == bipolar
    brute force, bit for bit."""
    arch = default_arch()
    rng = np.random.default_rng(12345)
    t0 = time.time()
    checked = 0
    shapes = {"pool": 0, "residual": 0, "k": set()}
    for i in range(1000):
        net = random_network(rng, name=f"acc1_{i}")
        random_thresholds(net, rng)
        w = random_weights(net, rng)
        x = random_input(net, rng)
        rep = check(net, x, w, arch)
        assert rep.equal, f"net {i}: {rep.first_divergence}"
        checked += rep.layers_checked
        for l in net.binary_layers():
            shapes["k"].add(l.k)
            shapes["pool"] += l.pool != "none"
            shapes["residual"] += l.residual is not None
    assert shapes["k"] == {1, 3, 5, 7} and shapes["pool"] > 50 and shapes["residual"] > 50
    report(1, True, f"1000 nets, {checked} layers bit-identical across all three "
                    f"implementations in {time.time() - t0:.0f}s")


def test_criterion_2_threshold_fold_exactness():
    """10000 random fold tuples, exhaustive over every integer sum."""
    rng = np.random.default_rng(777)
    mismatches = 0
    neg_gamma = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 442))
        c = float(rng.normal(0.0, n))
        alpha = float(rng.normal(0.0, 2.0)) or 1.0
        gamma = float(rng.normal(0.0, 2.0)) or 1.0
        neg_gamma += gamma < 0
        bn = BatchNorm(gamma=gamma, beta=float(rng.normal(0.0, 3.0)),
                       mu=float(rng.normal(0.0, n)),
                       sigma=float(abs(rng.normal(0.0, 2.0)) + 1e-6))
        t, flip = derive_threshold(c, alpha, bn, n)
        s = np.arange(n + 1)
        want = real_sign_bit(s, c, alpha, bn, n)
        got = (s < t) if flip else (s >= t)
        mismatches += int(np.count_nonzero(got != want))
    assert neg_gamma > 4000
    report(2, mismatches == 0,
           f"10000 tuples (incl. {neg_gamma} negative-gamma), 0 mismatches "
           f"required, got {mismatches}")


def test_criterion_3_peak_throughput():
    """Simulated unpadded steady-state layers hit 1568/800/288 ops/cycle;
    at 154 MHz that is within 0.5% of the published 241/123/44.3 GOPS."""
    arch = default_arch()
    details = []
    for k, want_opc, want_gops in ((7, 1568, 241e9), (5, 800, 123e9), (3, 288, 44.3e9)):
        net = NetworkDesc("peak", 16, k + 6, 64,
                          [LayerConfig(name="a", k=k, n_out=16, padding="none")]).validate()
        stats = cost(plan_network(net, arch), net)
        opc = stats.xnor_ops_done / stats.cycles_compute
        gops = opc * F_CLK
        assert opc == want_opc, f"k={k}: {opc} ops/cycle"
        assert abs(gops - want_gops) / want_gops < 0.005
        details.append(f"k={k}: {opc:.0f} ops/cyc = {gops / 1e9:.1f} GOPS")
    report(3, True, "; ".join(details))


def test_criterion_4_efficiency_reproduction():
    """Calibrated full-utilization points: gated 223/124/65 within 2%,
    ungated 185/100 within 3%; the published ungated 3x3 efficiency is
    internally inconsistent and is documented, not matched."""
    arch = default_arch()
    details = []
    for k, banks, want, tol in ((7, 4, 223.0, 0.02), (5, 4, 124.0, 0.02),
                                (3, 4, 65.0, 0.02), (7, 48, 185.0, 0.03),
                                (5, 48, 100.0, 0.03)):
        st = ideal_point(k, banks)
        mw, _, _ = core_power(arch, st)
        eff = efficiency(st, mw, F_CLK)
        assert abs(eff - want) / want < tol, f"k={k} banks={banks}: {eff:.1f} TOPS/W"
        details.append(f"k={k}/{banks}b: {eff:.1f}")
    st = ideal_point(3, 48)
    mw, _, _ = core_power(arch, st)
    outlier = efficiency(st, mw, F_CLK)
    details.append(f"k=3/48b: {outlier:.1f} (documented outlier, published 39.0 "
                   f"inconsistent with its own 44.3 GOPS / 0.90 mW)")
    report(4, True, "TOPS/W " + "; ".join(details))


def test_criterion_5_network_desk_scale():
    """VGG-like CIFAR-10 shape: exactly 46.2 MOp by graph arithmetic and
    core energy within 25% of 1.3 uJ; ResNet-18 sustains 23.4 GOPS +-15%."""
    arch = default_arch()
    vgg = builtin_network("vgg_like_cifar10")
    mop = vgg.op_count()["total_mop"]
    assert round(mop, 1) == 46.2, f"graph arithmetic gives {mop}"
    rep = full_report(arch, cost(plan_network(vgg, arch), vgg))
    assert abs(rep.core_uj - 1.3) / 1.3 < 0.25, f"VGG core energy {rep.core_uj:.2f} uJ"

    rn = builtin_network("resnet18_ilsvrc")
    stats_r = cost(plan_network(rn, arch), rn)
    gops = stats_r.xnor_ops_done / stats_r.time_s(F_CLK) / 1e9
    assert abs(gops - 23.4) / 23.4 < 0.15, f"ResNet-18 sustained {gops:.1f} GOPS"
    util = utilization(stats_r, arch).util_kernel_limited
    report(5, True, f"VGG {mop:.4f} MOp, core {rep.core_uj:.2f} uJ/frame "
                    f"(target 1.3 +-25%); ResNet-18 {gops:.1f} GOPS sustained "
                    f"(target 23.4 +-15%), util {100 * util:.1f}%")


def test_criterion_6_multibase_linearity():
    """1x/3x/8x ResNet-18 energies in ratio 1:3:8 within 5%."""
    arch = default_arch()
    energies = {}
    for name, bases in (("resnet18_ilsvrc", 1), ("resnet18_ilsvrc_3x", 3),
                        ("resnet18_ilsvrc_8x", 8)):
        net = builtin_network(name)
        stats = cost(plan_network(net, arch), net)
        energies[bases] = full_report(arch, stats).energy_uj_per_inference
    r3 = energies[3] / energies[1]
    r8 = energies[8] / energies[1]
    assert abs(r3 - 3) / 3 < 0.05 and abs(r8 - 8) / 8 < 0.05
    report(6, True, f"energies {energies[1]:.0f}/{energies[3]:.0f}/{energies[8]:.0f} uJ, "
                    f"ratios {r3:.2f}:{r8:.2f} vs 3:8 (within 5%)")


def test_criterion_7_schedule_reuse_invariants():
    """Trace audits on >=10-layer nets: each parameter-buffer word loads once
    per (n_o, n_i) iteration, ping-pong alternates, traces are stable."""
    arch = default_arch()
    rng = np.random.default_rng(2024)
    nets = 0
    for _ in range(5):
        net = random_network(rng, n_layers=int(rng.integers(10, 14)), max_hw=8,
                             residual_prob=0.2)
        if len(net.binary_layers()) < 10:
            continue
        nets += 1
        plan = plan_network(net, arch)
        dirs = [e.coords["direction"] for s in plan.schedules for e in s.events()
                if e.kind == "SwapFMM"]
        assert dirs == ["A->B" if i % 2 == 0 else "B->A" for i in range(len(plan.schedules))]
        for sched in plan.schedules:
            l = sched.layer
            chunks = [e for e in sched.events() if e.kind == "LoadFilterChunkToRowBanks"]
            keys = [(e.coords["tile"], e.coords["n_o"], e.coords["base"], e.coords["n_i"])
                    for e in chunks]
            assert len(keys) == len(set(keys))
            per_tile = len(channel_tiles(l.n_out)) * len(channel_tiles(l.n_in)) * l.bases
            assert len(keys) == per_tile * len(sched.plans)
            words = set()
            for e in chunks:
                if e.coords["tile"] != 0:
                    continue
                span = set(range(e.word, e.word + e.size))
                assert not (span & words), "PB word loaded twice in one pass"
                words |= span
        a = "\n".join(plan.dump_lines())
        b = "\n".join(plan_network(net, arch).dump_lines())
        assert a == b, "trace not stable across runs"
    assert nets >= 3
    report(7, True, f"{nets} nets of >=10 layers audited: single PB load per "
                    f"(n_o, n_i), strict ping-pong, byte-stable traces")


def test_criterion_8_tiling_transparency():
    """100 randomized oversized layer groups: stitched output bit-identical
    to the untiled golden model and the bipolar oracle."""
    tiny = ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1))
    rng = np.random.default_rng(808)
    tiled_cases = 0
    attempts = 0
    while tiled_cases < 100:
        attempts += 1
        assert attempts < 3000, "could not generate enough tiled cases"
        net = random_network(rng, n_layers=int(rng.integers(1, 4)),
                             max_hw=16, max_channels=64)
        random_thresholds(net, rng)
        w = random_weights(net, rng)
        x = random_input(net, rng)
        try:
            plan = plan_network(net, tiny)
        except FitError:
            continue
        if not any(len(s.plans) > 1 for s in plan.schedules):
            continue
        tiled_cases += 1
        rep = check(net, x, w, tiny)
        assert rep.equal, f"case {tiled_cases}: {rep.first_divergence}"
    report(8, True, f"{tiled_cases} tiled cases bit-identical to the golden model "
                    f"and the bipolar oracle ({attempts} candidates drawn)")
