"""Loop-nest structure, reuse bounds, ping-pong, tiling, and trace output."""

from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from bnnsim.arch import ArchConfig, MemoryGeometry, default_arch
from bnnsim.netio import (
    builtin_network,
    random_input,
    random_network,
    random_thresholds,
    random_weights,
)
from bnnsim.network import LayerConfig, NetworkDesc
from bnnsim.scheduler import (
    C_I_TILE,
    C_O_TILE,
    channel_tiles,
    plan_layer,
    plan_network,
)
from bnnsim.simulator import execute

DATA = Path(__file__).parent / "data"


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
    evs = list(sched.events(detail="full"))
    pps = Counter(e.coords["ch"] for e in evs if e.kind == "ProducePartialSum")
    assert set(pps.values()) == {16} and len(pps) == 16
    nmcu = Counter((e.coords["row"], e.coords["col"], e.coords["ch"])
                   for e in evs if e.kind == "NMCUAccumulate")
    assert set(nmcu.values()) == {1}


def test_32in_double_accumulation():
    # two input tiles: every output pixel sees two read-add-write events
    net = single([LayerConfig(name="a", k=3, n_out=16)], 32, 4, 4)
    sched = plan_network(net, default_arch()).schedules[0]
    evs = list(sched.events(detail="full"))
    nmcu = Counter((e.coords["row"], e.coords["col"], e.coords["ch"])
                   for e in evs if e.kind == "NMCUAccumulate")
    assert set(nmcu.values()) == {2}


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
                * sched.plans[-1].n_tiles)
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
    dirs = [s.tile_plan.fmm_direction for s in plan.schedules]
    want = ["A->B" if i % 2 == 0 else "B->A" for i in range(len(dirs))]
    assert dirs == want
    swaps = [e for s in plan.schedules for e in s.events() if e.kind == "SwapFMM"]
    assert len(swaps) == len(plan.schedules)


def test_plan_layer_and_spatial_tile_single():
    layer = LayerConfig(name="a", k=3, n_out=16)
    sched = plan_layer(layer, default_arch(), (16, 8, 8))
    assert len(sched.plans) == 1
    tp = sched.tile_plan
    assert len(tp.spatial_tiles) == 1
    assert tp.spatial_tiles[0][2] == 0  # no overlap when untiled


def test_spatial_tile_oversized():
    arch = ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1))
    tp = plan_layer(LayerConfig(name="a", k=3, n_out=16), arch, (16, 8, 80)).tile_plan
    assert len(tp.spatial_tiles) >= 2
    assert any(ov > 0 for _, _, ov in tp.spatial_tiles[1:])


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


def test_stats_text_roundtrip():
    import numpy as np
    from bnnsim.netio import random_network, random_thresholds, random_weights, random_input
    from bnnsim.simulator import run
    from bnnsim.stats import Stats

    rng = np.random.default_rng(44)
    net = random_network(rng)
    random_thresholds(net, rng)
    _, stats, _ = run(net, random_input(net, rng), random_weights(net, rng),
                      default_arch())
    back = Stats.from_text(stats.to_text())
    assert back.cycles_total == stats.cycles_total
    assert back.xnor_ops_done == stats.xnor_ops_done
    assert back.bank_activity == stats.bank_activity
    assert [l.name for l in back.layers] == [l.name for l in stats.layers]


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
    rng = np.random.default_rng(5)
    random_thresholds(net, rng)
    arch = default_arch()
    arch.memory.io_bits_per_cycle = io_bits
    plan = plan_network(net, arch)
    _, stats = execute(plan, net, random_input(net, rng), random_weights(net, rng), arch)
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
