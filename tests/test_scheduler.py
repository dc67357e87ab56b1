"""Loop-nest structure, reuse bounds, ping-pong, tiling, and trace output."""

import itertools
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from bnnsim import scheduler
from bnnsim.arch import ArchConfig, MemoryGeometry, default_arch, validate
from bnnsim.errors import FitError
from bnnsim.netio import builtin_network, parse_network, random_network
from bnnsim.network import LayerConfig, NetworkDesc
from bnnsim.scheduler import (
    C_I_TILE,
    C_O_TILE,
    INPUT_MAP,
    channel_tiles,
    full_window,
    plan_network,
)
from bnnsim.simulator import cost

DATA = Path(__file__).parent / "data"
TINY = ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1))
BUNDLED = ("vgg_like_cifar10", "resnet18_ilsvrc", "resnet18_ilsvrc_3x", "resnet18_ilsvrc_8x",
           "alexnet_dorefa_ilsvrc", "sed_freesound")


def single(net_layers, c, h, w):
    return NetworkDesc("t", c, h, w, net_layers).validate()


def test_channel_tiles():
    assert channel_tiles(16) == [16]
    assert channel_tiles(20) == [16, 4]
    assert channel_tiles(64) == [16] * 4


def test_loop_bounds_match_tiling():
    # n_i loop count == ceil(c_i/16), n_o loop count == ceil(c_o/16)
    arch = default_arch()
    rng = np.random.default_rng(40)
    for _ in range(10):
        c_i = int(rng.integers(16, 65))
        c_o = int(rng.integers(16, 65))
        net = single([LayerConfig(name="a", k=3, n_out=c_o)], c_i, 6, 6)
        plan = plan_network(net, arch)
        chunks = [e for e in plan.schedules[0].events() if e.kind == "LoadFilterChunkToRowBanks"]
        n_os = {e.coords["n_o"] for e in chunks}
        n_is = {e.coords["n_i"] for e in chunks}
        assert len(n_os) == -(-c_o // C_O_TILE)
        assert len(n_is) == -(-c_i // C_I_TILE)


def test_1x1_partial_sums_per_batch_member():
    # 16-in/16-out on a 4x4 image: 16 partial sums per output channel,
    # and no re-accumulation (single input tile)
    net = single([LayerConfig(name="a", k=1, n_out=16)], 16, 4, 4)
    sched = plan_network(net, default_arch()).schedules[0]
    evs = list(sched.events())
    pps = Counter()
    for e in evs:
        if e.kind == "ProducePartialSum":
            pps[e.coords["n_o"] * C_O_TILE + e.coords["b_o"]] += e.size
    assert set(pps.values()) == {16} and len(pps) == 16
    nmcu = Counter((e.coords["row"], e.coords["n_o"], e.coords["b_o"])
                   for e in evs if e.kind == "NMCUAccumulate")
    assert set(nmcu.values()) == {1} and len(nmcu) == 4 * 16


def test_32in_double_accumulation():
    # two input tiles: every (row, output channel) segment is accumulated
    # twice, once per input tile
    net = single([LayerConfig(name="a", k=3, n_out=16)], 32, 4, 4)
    sched = plan_network(net, default_arch()).schedules[0]
    nmcu = Counter((e.coords["row"], e.coords["n_o"], e.coords["b_o"])
                   for e in sched.events() if e.kind == "NMCUAccumulate")
    assert set(nmcu.values()) == {2} and len(nmcu) == 4 * 16


def test_pb_chunk_loaded_once_per_iteration():
    rng = np.random.default_rng(41)
    arch = default_arch()
    for _ in range(5):
        net = random_network(rng, n_layers=3)
        plan = plan_network(net, arch)
        for sched in plan.schedules:
            chunks = [e for e in sched.events() if e.kind == "LoadFilterChunkToRowBanks"]
            keys = [(e.coords["tile"], e.coords["n_o"], e.coords["base"], e.coords["n_i"])
                    for e in chunks]
            assert len(keys) == len(set(keys)), "a chunk was loaded twice"
            l = sched.layer
            assert len(keys) == (
                len(channel_tiles(l.n_out)) * len(channel_tiles(l.n_in)) * l.bases
                * len(sched.plans))
            # PB words within a layer are disjoint across chunk loads
            spans = [(e.word, e.word + e.size) for e in chunks if e.coords["tile"] == 0]
            spans.sort()
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert a1 <= b0


def test_row_reuse_bound():
    # each input row is loaded once per (n_o, n_i) iteration
    net = single([LayerConfig(name="a", k=3, n_out=48)], 32, 5, 5)
    sched = plan_network(net, default_arch()).schedules[0]
    rows = Counter((e.coords["n_i"], e.coords["row"])
                   for e in sched.events() if e.kind == "LoadFMRowToRowBanks")
    t_o = len(channel_tiles(48))
    assert set(rows.values()) == {t_o}


def test_pingpong_alternation():
    rng = np.random.default_rng(42)
    net = random_network(rng, n_layers=4)
    plan = plan_network(net, default_arch())
    swaps = [e for s in plan.schedules for e in s.events() if e.kind == "SwapFMM"]
    dirs = [e.coords["direction"] for e in swaps]
    assert dirs == ["A->B" if i % 2 == 0 else "B->A" for i in range(len(plan.schedules))]


def test_plan_layer_and_spatial_tile_single():
    layer = LayerConfig(name="a", k=3, n_out=16)
    plan = plan_network(single([layer], 16, 8, 8), default_arch())
    (entry,) = plan.fit.entries
    assert [pl.window for pl in plan.schedules[0].plans] == [full_window(layer)]
    assert entry.tiles == 1 and entry.overlap_cols == 0  # no overlap when untiled


def test_spatial_tile_oversized():
    plan = plan_network(single([LayerConfig(name="a", k=3, n_out=16)], 16, 8, 80), TINY)
    (entry,) = plan.fit.entries
    wins = [pl.window for pl in plan.schedules[0].plans]
    assert entry.tiles == len(wins) >= 2
    assert entry.overlap_cols == max(a.in_hi - b.in_lo for a, b in zip(wins, wins[1:])) > 0


def _check_fit_agrees_with_plan(net, arch) -> str:
    """`validate` and `plan_network` report the same fit, each entry's tile
    count is its layer's plan count, and `needs_tiling` names exactly the
    tiled layers and those that do not fit.  Returns how the net planned."""
    report = validate(net, arch)
    assert report.needs_tiling == [e.layer for e in report.entries if e.tiles > 1 or not e.fits]
    assert report.fits_untiled == (not report.needs_tiling)
    try:
        plan = plan_network(net, arch)
    except FitError:
        return "unplanned"
    assert report == plan.fit
    assert [e.tiles for e in report.entries] == [len(s.plans) for s in plan.schedules]
    return "tiled" if report.needs_tiling else "untiled"


@pytest.mark.parametrize("arch", [default_arch(), TINY,
                                  ArchConfig(memory=MemoryGeometry(fmm_src_banks=38,
                                                                   fmm_snk_banks=38))],
                         ids=["default", "1+1", "38+38"])
def test_fit_report_agrees_with_plan_on_bundled_nets(arch):
    kinds = Counter(_check_fit_agrees_with_plan(builtin_network(name), arch) for name in BUNDLED)
    assert kinds["tiled"] + kinds["untiled"] >= 1


def test_fit_report_agrees_with_plan_on_random_nets():
    rng = np.random.default_rng(62)
    kinds = Counter(_check_fit_agrees_with_plan(
        random_network(rng, n_layers=int(rng.integers(1, 6))), TINY) for _ in range(120))
    assert kinds["tiled"] >= 5 and kinds["untiled"] >= 5 and kinds["unplanned"] >= 1


def test_trace_stable_across_runs():
    rng = np.random.default_rng(43)
    net = random_network(rng, n_layers=10, max_hw=8)
    assert len(net.binary_layers()) >= 10
    arch = default_arch()
    a = "\n".join(plan_network(net, arch).dump_lines())
    b = "\n".join(plan_network(net, arch).dump_lines())
    assert a == b


def test_golden_trace_file():
    net = single([LayerConfig(name="a", k=3, n_out=16, pool="max"),
                  LayerConfig(name="b", k=1, n_out=32)], 16, 4, 4)
    got = "\n".join(plan_network(net, default_arch()).dump_lines()) + "\n"
    golden = DATA / "golden_trace.txt"
    assert got == golden.read_text()


def test_loads_precede_partial_sums():
    # within every (n_o, n_i) iteration, the filter chunk and the rows a
    # partial sum consumes appear in the stream before it
    net = single([LayerConfig(name="a", k=3, n_out=32)], 32, 5, 5)
    sched = plan_network(net, default_arch()).schedules[0]
    chunk_seen = set()
    rows_seen = set()
    for e in sched.events():
        if e.kind == "LoadFilterChunkToRowBanks":
            chunk_seen.add((e.coords["n_o"], e.coords["n_i"]))
        elif e.kind == "LoadFMRowToRowBanks":
            rows_seen.add((e.coords["n_o"], e.coords["n_i"], e.coords["row"]))
        elif e.kind == "ProducePartialSum":
            key = (e.coords["n_o"], e.coords["n_i"])
            assert key in chunk_seen
            for r in range(max(0, e.coords["row"] - 1), min(5, e.coords["row"] + 2)):
                assert (*key, r) in rows_seen


def test_stream_params_flagged_when_pb_overflows():
    # ~74 kbit of weights against a 28 kbit parameter buffer
    net = single([LayerConfig(name="a", k=3, n_out=512)], 16, 4, 4)
    plan = plan_network(net, default_arch())
    assert plan.schedules[0].plans[0].stream_params
    assert not plan.fit.weights_fit_pb
    assert plan.fit.streamed_param_bits > 0


def test_resident_params_not_streamed():
    net = single([LayerConfig(name="a", k=1, n_out=16)], 16, 4, 4)
    plan = plan_network(net, default_arch())
    assert not plan.schedules[0].plans[0].stream_params
    assert plan.fit.streamed_param_bits == 0


@pytest.mark.parametrize("io_bits", [16, 2])
@pytest.mark.parametrize("name", ["vgg_like_cifar10", "resnet18_ilsvrc",
                                  "alexnet_dorefa_ilsvrc", "sed_freesound"])
def test_trace_sums_equal_simulator_counters(name, io_bits):
    # per (layer, tile): summed segment-detail event sizes reproduce the
    # counters the simulator charged, and the chunk loads the trace leaves
    # visible are the ones it charged as load stalls
    net = builtin_network(name)
    arch = default_arch()
    arch.memory.io_bits_per_cycle = io_bits
    plan = plan_network(net, arch)
    stats = cost(plan, net)
    charged = {(ls.name, ls.tile): ls for ls in stats.layers}
    for sched in plan.schedules:
        l = sched.layer
        sizes = defaultdict(Counter)
        chunks = defaultdict(list)   # tile -> (size, hidden) per chunk load
        for e in sched.events():
            tile = e.coords.get("tile", 0)
            sizes[tile][e.kind] += e.size
            if e.kind == "LoadFilterChunkToRowBanks":
                chunks[tile].append((e.size, e.hidden))
        for pl in sched.plans:
            got, st = sizes[pl.tile], charged[(l.name, pl.tile)]
            assert got["LoadFilterChunkToRowBanks"] == st.pb_reads
            assert got["ProducePartialSum"] == st.cycles_compute
            if l.residual is None:
                assert got["LoadFMRowToRowBanks"] == st.fmm_reads
                assert got["NMCUAccumulate"] == st.nmcu_rmw

            def load(words):
                if not pl.stream_params:
                    return words
                return max(words, -(-words * 16 // io_bits))

            # load stalls: the visible chunks, the first k - pad rows of
            # every block, and the k*k-word filter pass of every row segment
            p = (l.k - 1) // 2 if l.padding != "none" else 0
            first_rows = len(chunks[pl.tile]) * min(l.in_h, l.k - p) * pl.window.in_w
            stalls = sum(load(size) for size, hidden in chunks[pl.tile] if not hidden)
            assert st.cycles_load == stalls + first_rows + got["LoadFilterToBPU"], \
                f"layer {l.name} tile {pl.tile}: visible chunk loads differ"


def _cheapest_tiles(net, arch):
    """Fewest tiles over every split of the binary layers into intervals,
    each an untiled layer that fits or a group at its smallest feasible
    stripe count whose earlier layers feed nothing after it; None if no
    split works."""
    binary = net.binary_layers()
    reads = scheduler._reads(binary)
    records = scheduler._build_records(net, binary, reads)
    n_layers = len(binary)
    cost = {}
    for a in range(n_layers):
        halves = [0, 0]
        for r in records.values():
            if r.producer <= a <= r.last_use:
                halves[r.half] += r.bytes
        if scheduler._within(halves, (arch.memory.half_bytes(0), arch.memory.half_bytes(1))):
            cost[a, a] = 0
        for b in range(a, n_layers):
            if any(r.last_use > b for r in records.values() if a <= r.producer < b):
                continue
            for n in range(2, binary[b].pooled_w + 1):
                if scheduler._group_feasible(net, arch, binary, reads, records, a, b, n):
                    cost[a, b] = min(cost.get((a, b), n), n)
                    break
    best = None
    for cuts in itertools.product((False, True), repeat=n_layers - 1):
        starts = [0] + [i + 1 for i, cut in enumerate(cuts) if cut]
        segments = list(zip(starts, [s - 1 for s in starts[1:]] + [n_layers - 1]))
        if all(s in cost for s in segments):
            total = sum(cost[s] for s in segments)
            best = total if best is None else min(best, total)
    return best


def test_group_search_is_as_cheap_as_brute_force():
    # the search plans whenever some split into intervals does, with as few
    # stripes as the cheapest split
    rng = np.random.default_rng(61)
    tiled = 0
    for _ in range(150):
        net = random_network(rng, n_layers=int(rng.integers(1, 6)), max_hw=16)
        _, _, _, groups, _, _, untileable = scheduler._placement(net, TINY)
        want = _cheapest_tiles(net, TINY)
        assert (want is None) == bool(untileable)
        if want is not None:
            assert sum(len(tiles) for _, tiles in groups.values()) == want
            tiled += want > 0
    assert tiled >= 20


def _feasibility_calls(monkeypatch, net, arch) -> int:
    calls = []
    real = scheduler._group_feasible
    monkeypatch.setattr(scheduler, "_group_feasible",
                        lambda *a: calls.append(a[5:]) or real(*a))
    plan_network(net, arch)
    monkeypatch.setattr(scheduler, "_group_feasible", real)
    return len(calls)


def test_group_search_tests_few_groups(monkeypatch):
    arch38 = ArchConfig(memory=MemoryGeometry(fmm_src_banks=38, fmm_snk_banks=38))
    assert _feasibility_calls(monkeypatch, builtin_network("resnet18_ilsvrc"), default_arch()) == 0
    assert _feasibility_calls(monkeypatch, builtin_network("sed_freesound"), default_arch()) <= 6
    # the greedy planner failed here after 990 tests, ruling out groups
    # that start at s1b1c2, the first layer that overflows
    assert _feasibility_calls(monkeypatch, builtin_network("resnet18_ilsvrc"), arch38) <= 20
    for arch, n in ((default_arch(), 2), (arch38, 8)):
        plan = plan_network(builtin_network("sed_freesound"), arch)
        assert [len(s.plans) for s in plan.schedules] == [n] * 4 + [1] * 3


def _replay_addresses(net, arch) -> None:
    """Walk the execution order over the planned FMM words: every map a
    layer run reads still holds its own words, and every bank exists."""
    plan = plan_network(net, arch)
    binary, _, records, groups, *_ = scheduler._placement(net, arch)
    scheduler._assign_addresses(net, arch, binary, records, groups)
    names = {l.name for l in net.binary_layers()}
    word_bytes = arch.memory.fmm_bank_width_bits // 8
    owner = ({}, {})

    def words(rec):
        return range(rec.base_word, rec.base_word + -(-rec.bytes // word_bytes))

    def write(rec):
        for w in words(rec):
            owner[rec.half][w] = rec.name

    for rec in records.values():
        assert rec.banks[1] <= arch.memory.fmm_banks_total, rec
    for pl in plan.exec_order:
        l = pl.layer
        if pl.index == 0:
            write(records[INPUT_MAP])   # streamed in again for every stripe
        reads = [pl.feed]
        if l.residual is not None:
            src = l.residual if l.residual in names else INPUT_MAP
            reads.append(src + "#int" if l.residual_mode == "int" else src)
        for name in reads:
            rec = records[name]
            assert all(owner[rec.half].get(w) == name for w in words(rec)), \
                f"{l.name} tile {pl.tile} reads {name} after it was overwritten"
        write(records[l.name])
        if pl.parks_int_plane:
            write(records[l.name + "#int"])


@pytest.mark.parametrize("name", ["vgg_like_cifar10", "resnet18_ilsvrc", "resnet18_ilsvrc_3x",
                                  "resnet18_ilsvrc_8x", "alexnet_dorefa_ilsvrc",
                                  "sed_freesound", "resnet18_ilsvrc@38", "sed_freesound@38"])
def test_addresses_follow_the_tiling(name):
    # tile slices are allocated at slice size (sed's in-group maps once
    # reached bank 172 of 146), and maps a group reads from before it stay
    # alive until its last stripe
    name, _, banks = name.partition("@")
    arch = default_arch()
    if banks:
        arch = ArchConfig(memory=MemoryGeometry(fmm_src_banks=int(banks), fmm_snk_banks=int(banks)))
    _replay_addresses(builtin_network(name), arch)


def test_addresses_of_residual_sources_in_a_group():
    # l3..l4 run in 4 stripes; l3's residual source l0 is not the group's
    # feed, and a map written in the first stripe once took its words
    net = parse_network("""network t
input 35 15 8
layer l0 k=3 out=37 pool=max
layer l1 k=7 out=60
layer l2 k=3 out=37 residual=l0:binary
layer l3 k=3 out=37 residual=l0:binary
layer l4 k=1 out=37 pad=same1 residual=l3:int
""")
    assert [len(s.plans) for s in plan_network(net, TINY).schedules] == [1, 1, 1, 4, 4]
    _replay_addresses(net, TINY)
