"""Cycle model contracts, bit-true execution, and counter conservation."""

from importlib.resources import files
from types import SimpleNamespace

import numpy as np
import pytest

from bnnsim import functional, simulator
from bnnsim.arch import ArchConfig, MemoryGeometry, default_arch
from bnnsim.cli import main
from bnnsim.errors import AccumulatorOverflow, FitError
from bnnsim.functional import run_network_reference
from bnnsim.netio import (
    builtin_network,
    random_input,
    random_network,
    random_thresholds,
    random_weights,
)
from bnnsim.network import LayerConfig, NetworkDesc
from bnnsim.scheduler import plan_network
from bnnsim.simulator import _valid_taps, check, cost, execute, run, utilization
from bnnsim.stats import Stats
from bnnsim.tensors import BinaryTensor, n_groups


def make_net(layers, c, h, w, rng=None, **kw):
    net = NetworkDesc("t", c, h, w, layers, **kw).validate()
    if rng is not None:
        random_thresholds(net, rng)
    return net


def simulate(net, rng, arch=None):
    arch = arch or default_arch()
    if any(l.thresholds is None for l in net.binary_layers()):
        random_thresholds(net, rng)
    w = random_weights(net, rng)
    x = random_input(net, rng)
    outputs, stats, plan = run(net, x, w, arch)
    return outputs, stats, plan, w, x


# ---------------------------------------------------------------------------
# steady-state and cycle contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_steady_state_ops_per_compute_cycle(k):
    rng = np.random.default_rng(50 + k)
    net = make_net([LayerConfig(name="a", k=k, n_out=16, padding="none")],
                   16, k + 4, 48, rng)
    _, stats, _, _, _ = simulate(net, rng)
    assert stats.xnor_ops_done / stats.cycles_compute == 2 * k * k * 16


def test_single_pixel_degenerate():
    rng = np.random.default_rng(51)
    net = make_net([LayerConfig(name="a", k=1, n_out=1)], 1, 1, 1, rng)
    outputs, stats, _, w, x = simulate(net, rng)
    assert stats.cycles_total >= 1
    golden = run_network_reference(net, x, w)
    assert outputs["a"].bit_equal(golden["a"].bits)


def test_throughput_ceiling():
    rng = np.random.default_rng(52)
    for _ in range(10):
        net = random_network(rng)
        _, stats, _, _, _ = simulate(net, rng)
        for ls in stats.layers:
            assert ls.xnor_ops_done <= ls.xnor_lane_slots
            assert ls.xnor_ops_done <= ls.cycles_total * 1568


def test_access_conservation_fmm_writes():
    # packed output words plus residual parking writes, exactly
    rng = np.random.default_rng(53)
    net = make_net([
        LayerConfig(name="a", k=3, n_out=24),
        LayerConfig(name="b", k=3, n_out=24, residual="a", residual_mode="int"),
    ], 16, 6, 6, rng)
    _, stats, _, _, _ = simulate(net, rng)
    a, b = stats.layers
    la, lb = net.layers
    assert a.fmm_writes == (n_groups(24) * 36) + (24 * 36)  # map + parked plane
    assert b.fmm_writes == n_groups(24) * 36


BUNDLED = sorted(f.name[:-4] for f in (files("bnnsim") / "shapes").iterdir()
                 if f.name.endswith(".net"))


@pytest.mark.parametrize("name", BUNDLED)
def test_bank_activity_adds_up(name):
    # every access the counters spread over bank spans lands in one bank; the
    # 1+1-bank arch fits only the smallest nets
    tiny = ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1))
    net = builtin_network(name)
    for arch in (default_arch(), tiny):
        try:
            plan = plan_network(net, arch)
        except FitError:
            assert arch is tiny
            continue
        st = cost(plan, net)
        assert sum(st.bank_activity.values()) == st.fmm_reads + st.fmm_writes + 2 * st.nmcu_rmw


def test_cost_needs_no_bits():
    # a bare net (no thresholds, weights or input) costs the same counters
    # as a seeded bit-exact run of it; the 1+1-bank arch fits only the
    # smallest bundled nets, and tiles most of the random shapes
    tiny = ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1))
    arch38 = ArchConfig(memory=MemoryGeometry(fmm_src_banks=38, fmm_snk_banks=38))
    cases = [(builtin_network(name), arch) for name in BUNDLED
             for arch in (default_arch(), arch38, tiny)]
    shapes = np.random.default_rng(16)
    cases += [(random_network(shapes, n_layers=int(shapes.integers(1, 4)), max_hw=16,
                              max_channels=64), tiny) for _ in range(30)]
    compared, tiled = 0, 0
    for net, arch in cases:
        assert all(l.thresholds is None for l in net.binary_layers())
        try:
            plan = plan_network(net, arch)
        except FitError:
            assert arch is tiny
            continue
        modeled = cost(plan, net).to_text()
        rng = np.random.default_rng(1)
        random_thresholds(net, rng)
        _, stats, _ = run(net, random_input(net, rng), random_weights(net, rng), arch)
        assert modeled == stats.to_text(), net.name
        compared += 1
        tiled += any(len(s.plans) > 1 for s in plan.schedules)
    assert compared >= 2 * len(BUNDLED) + 10 and tiled >= 10


def loop_valid_taps(layer, win):
    """_valid_taps by visiting every output row and window column."""
    k, s = layer.k, layer.stride
    p = (k - 1) // 2 if layer.padding != "none" else 0
    vy = sum(min(oy * s - p + k, layer.in_h) - max(oy * s - p, 0) for oy in range(layer.out_h))
    vx = sum(min(ox * s - p + k, layer.in_w) - max(ox * s - p, 0)
             for ox in range(win.out_lo, win.out_hi))
    return vy, vx


def test_valid_taps_closed_form_matches_loop():
    rng = np.random.default_rng(57)
    for _ in range(3000):
        k, stride = int(rng.choice([1, 3, 5, 7])), int(rng.integers(1, 3))
        padding = str(rng.choice(["none", "same0", "same1"]))
        h, w = (int(v) for v in rng.integers(1, 40, size=2))
        p = (k - 1) // 2 if padding != "none" else 0
        out_h, out_w = (h + 2 * p - k) // stride + 1, (w + 2 * p - k) // stride + 1
        if min(out_h, out_w) <= 0:
            continue
        lo = int(rng.integers(0, out_w))  # a tile window, or the whole row
        win = SimpleNamespace(out_lo=lo, out_hi=int(rng.integers(lo + 1, out_w + 1)))
        layer = LayerConfig(name="a", k=k, n_out=16, stride=stride, padding=padding,
                            in_h=h, in_w=w, out_h=out_h)
        assert _valid_taps(layer, win) == loop_valid_taps(layer, win)


def test_monotone_cycles_in_image_size():
    rng = np.random.default_rng(54)
    cycles = []
    for hw in (6, 8, 12):
        net = make_net([LayerConfig(name="a", k=3, n_out=16)], 16, hw, hw,
                       np.random.default_rng(54))
        _, stats, _, _, _ = simulate(net, np.random.default_rng(54))
        cycles.append(stats.cycles_total)
    assert cycles == sorted(cycles) and cycles[0] < cycles[-1]


def test_doubling_n_in_doubles_rmw():
    per_pixel = []
    for c in (16, 32):
        rng = np.random.default_rng(55)
        net = make_net([LayerConfig(name="a", k=3, n_out=16)], c, 6, 6, rng)
        _, stats, _, _, _ = simulate(net, rng)
        per_pixel.append(stats.nmcu_rmw / (16 * 36))
    assert per_pixel[1] == 2 * per_pixel[0]


def test_swap_once_per_layer():
    rng = np.random.default_rng(56)
    net = random_network(rng, n_layers=4)
    _, stats, _, _, _ = simulate(net, rng)
    by_layer = {}
    for ls in stats.layers:
        by_layer[ls.name] = by_layer.get(ls.name, 0) + ls.cycles_other
    assert all(v == 1 for v in by_layer.values())


def test_weight_streaming_io_bits():
    # weights beyond the PB stream per frame; maps add input+output bits
    rng = np.random.default_rng(57)
    net = make_net([LayerConfig(name="a", k=3, n_out=512)], 16, 4, 4, rng)
    _, stats, plan, _, _ = simulate(net, rng)
    param_bits = net.layers[0].weight_bits() + 16 * 512
    in_bits = 16 * n_groups(16) * 4 * 4
    out_bits = 16 * n_groups(512) * 4 * 4
    assert stats.io_bits == param_bits + in_bits + out_bits
    assert plan.fit.streamed_param_bits == param_bits


def test_resident_weights_no_stream_io():
    rng = np.random.default_rng(58)
    net = make_net([LayerConfig(name="a", k=1, n_out=16)], 16, 4, 4, rng)
    _, stats, _, _, _ = simulate(net, rng)
    in_bits = 16 * n_groups(16) * 4 * 4
    assert stats.io_bits == 2 * in_bits  # input + output maps only


def test_accumulator_overflow_detected():
    rng = np.random.default_rng(59)
    net = make_net([LayerConfig(name="a", k=3, n_out=16)], 64, 4, 4, rng,
                   acc_bits=8)
    with pytest.raises(AccumulatorOverflow, match="layer a: partial sum"):
        simulate(net, rng)
    # the golden model runs the same layer step, and names the layer too
    rng = np.random.default_rng(59)
    with pytest.raises(AccumulatorOverflow, match="layer a: partial sum"):
        run_network_reference(net, random_input(net, rng), random_weights(net, rng))


def test_accumulator_saturation_mode():
    rng = np.random.default_rng(59)
    net = make_net([LayerConfig(name="a", k=3, n_out=16)], 64, 4, 4, rng,
                   acc_bits=8, acc_mode="saturate")
    outputs, _, _, w, x = simulate(net, rng)
    golden = run_network_reference(net, x, w)
    assert outputs["a"].bit_equal(golden["a"].bits)


# ---------------------------------------------------------------------------
# utilization
# ---------------------------------------------------------------------------

def test_util_full_array_algebra():
    rng = np.random.default_rng(60)
    net = make_net([LayerConfig(name="a", k=3, n_out=16)], 16, 8, 8, rng)
    _, stats, _, _, _ = simulate(net, rng)
    u = utilization(stats, default_arch())
    assert u.util_full_array == pytest.approx(u.util_kernel_limited * 9 / 49)
    assert u.util_full_array <= u.util_kernel_limited <= 1.0


def test_util_approaches_one_with_width():
    vals = []
    for w in (16, 64, 256):
        rng = np.random.default_rng(61)
        net = make_net([LayerConfig(name="a", k=3, n_out=16, padding="none")],
                       16, 7, w, rng)
        _, stats, _, _, _ = simulate(net, rng)
        vals.append(utilization(stats, default_arch()).util_kernel_limited)
    assert vals == sorted(vals)
    assert vals[-1] > 0.85


def test_util_errors_on_empty():
    with pytest.raises(FitError):
        utilization(Stats(), default_arch())


# ---------------------------------------------------------------------------
# three-way equivalence
# ---------------------------------------------------------------------------

def test_verify_random_nets():
    rng = np.random.default_rng(62)
    arch = default_arch()
    for _ in range(25):
        net = random_network(rng)
        random_thresholds(net, rng)
        w = random_weights(net, rng)
        x = random_input(net, rng)
        rep = check(net, x, w, arch)
        assert rep.equal, rep.first_divergence


def test_verify_pool_and_residual():
    rng = np.random.default_rng(63)
    net = make_net([
        LayerConfig(name="a", k=3, n_out=16),
        LayerConfig(name="b", k=3, n_out=16, residual="a", residual_mode="int"),
        LayerConfig(name="c", k=3, n_out=32, pool="max"),
        LayerConfig(name="d", k=1, n_out=32, pool="avg"),
    ], 16, 8, 8, rng)
    w = random_weights(net, rng)
    x = random_input(net, rng)
    rep = check(net, x, w, default_arch())
    assert rep.equal and rep.layers_checked == 4, rep.first_divergence


def test_verify_empty_network():
    net = NetworkDesc("e", 3, 4, 4, [LayerConfig(name="x", k=3, n_out=8, external=True)])
    net.validate()
    rep = check(net, BinaryTensor(3, 4, 4), {}, default_arch())
    assert rep.equal and rep.layers_checked == 0


def test_verify_reports_divergence(monkeypatch):
    # flip one output bit of the simulator's layer step: both bit comparisons
    # name it, while the golden model and the oracle still agree
    rng = np.random.default_rng(64)
    net = make_net([LayerConfig(name="a", k=1, n_out=16)], 16, 2, 2, rng)
    w = random_weights(net, rng)
    x = random_input(net, rng)
    step = simulator.layer_forward

    def flip_one_bit(*args):
        res = step(*args)
        res.bits.words[0, 1, 0] ^= 1 << 5  # channel 5, pixel (1, 0)
        return res

    monkeypatch.setattr(simulator, "layer_forward", flip_one_bit)
    rep = check(net, x, w, default_arch())
    assert not rep.equal
    assert rep.first_divergence == {"simulator vs golden bits": ("a", 5, 1, 0),
                                    "simulator vs oracle bits": ("a", 5, 1, 0),
                                    "golden vs oracle sums": None}


@pytest.mark.parametrize("mutant", ["sums-off-by-one", "wrong-pad-value"])
def test_check_catches_shared_kernel_mutant(monkeypatch, capsys, mutant):
    # the simulator and the golden model share the mutated kernel and still
    # agree with each other; only the oracle, which shares no packed-word
    # code with them, shows the fault, in `check` and in `bnnsim verify`
    conv = functional.xnor_conv

    def sums_off_by_one(*args):
        sums = conv(*args)
        sums.values += 1
        return sums

    def wrong_pad_value(x, w, k, stride, padding, cols):
        return conv(x, w, k, stride, {"same0": "same1", "same1": "same0"}[padding], cols)

    monkeypatch.setattr(functional, "xnor_conv", {"sums-off-by-one": sums_off_by_one,
                                                  "wrong-pad-value": wrong_pad_value}[mutant])
    rng = np.random.default_rng(67)
    net = make_net([LayerConfig(name="a", k=3, n_out=32),
                    LayerConfig(name="b", k=3, n_out=16, pool="max")], 16, 8, 8, rng)
    rep = check(net, random_input(net, rng), random_weights(net, rng), default_arch())
    assert rep.first_divergence["simulator vs golden bits"] is None
    assert rep.first_divergence["simulator vs oracle bits"] is not None
    assert main(["verify", "vgg_like_cifar10", "--seed", "3"]) == 1
    assert "DIVERGENCE of simulator vs oracle bits at" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# spatial tiling equivalence
# ---------------------------------------------------------------------------

def test_tiled_execution_bit_identical():
    rng = np.random.default_rng(65)
    tiny = ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1))
    hits = 0
    for _ in range(80):
        net = random_network(rng, n_layers=int(rng.integers(1, 4)), max_hw=16,
                             max_channels=64)
        random_thresholds(net, rng)
        w = random_weights(net, rng)
        x = random_input(net, rng)
        try:
            from bnnsim.scheduler import plan_network
            plan = plan_network(net, tiny)
        except FitError:
            continue
        if any(len(s.plans) > 1 for s in plan.schedules):
            hits += 1
        rep = check(net, x, w, tiny)
        assert rep.equal, rep.first_divergence
    assert hits >= 5  # the tiny memory must actually force tiling


def criterion_8_tiled_cases(n):
    """The first n nets of criterion 8's stream that tile on the 1+1-bank
    arch (the same draws, in the same order), with their operands."""
    tiny = ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1))
    rng = np.random.default_rng(808)
    cases = []
    while len(cases) < n:
        net = random_network(rng, n_layers=int(rng.integers(1, 4)), max_hw=16, max_channels=64)
        random_thresholds(net, rng)
        w = random_weights(net, rng)
        x = random_input(net, rng)
        try:
            plan = plan_network(net, tiny)
        except FitError:
            continue
        if any(len(s.plans) > 1 for s in plan.schedules):
            cases.append((net, plan, w, x))
    return cases


def test_tiles_compute_each_conv_column_once(monkeypatch):
    # each tile runs the layer step only over conv columns no earlier tile of
    # that layer ran: per layer the ranges are disjoint, in order and cover
    # every column a window covers, while the counters still charge every
    # tile's whole window (the bundled pins hold them)
    calls = []
    step = simulator.layer_forward

    def spy(x, layer, *args):
        calls.append((layer.name, args[-1]))
        return step(x, layer, *args)

    monkeypatch.setattr(simulator, "layer_forward", spy)
    net = builtin_network("sed_freesound")
    rng = np.random.default_rng(3)
    random_thresholds(net, rng)
    cases = [(net, plan_network(net, default_arch()), random_weights(net, rng),
              random_input(net, rng))] + criterion_8_tiled_cases(30)
    skipped, pooled_starts = 0, []
    for net, plan, w, x in cases:
        calls.clear()
        outputs, _ = execute(plan, net, x, w)
        golden = run_network_reference(net, x, w)
        assert all(outputs[l.name].bit_equal(golden[l.name].bits) for l in net.binary_layers())
        if net.name == "sed_freesound":  # tile 1 of c1-c3 starts where tile 0 ended
            assert calls == [("c1", (0, 37)), ("c2", (0, 36)), ("c3", (0, 17)), ("c4", (0, 16)),
                             ("c1", (37, 64)), ("c2", (36, 64)), ("c3", (17, 32)),
                             ("c4", (16, 32)), ("c5", (0, 16)), ("p1", (0, 16)), ("p2", (0, 16))]
        skipped += len(plan.exec_order) - len(calls)
        for l in net.binary_layers():
            ranges = [cols for name, cols in calls if name == l.name]
            covered = max(pl.window.out_hi for pl in plan.exec_order if pl.layer is l)
            # a tiled pooled layer leaves out an odd last column no window pools
            assert covered == l.out_w or (l.pool != "none" and covered == 2 * l.pooled_w)
            assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]], ranges
            assert ranges[-1][1] == covered
            pooled_starts += [lo for lo, _ in ranges[1:] if l.pool != "none"]
    assert skipped > 0  # some tile had no new columns left
    assert pooled_starts and all(lo % 2 == 0 for lo in pooled_starts)


def test_multibase_layer_equivalence():
    rng = np.random.default_rng(66)
    net = make_net([LayerConfig(name="a", k=3, n_out=16, bases=3)], 16, 6, 6, rng)
    w = random_weights(net, rng)
    x = random_input(net, rng)
    rep = check(net, x, w, default_arch())
    assert rep.equal, rep.first_divergence
