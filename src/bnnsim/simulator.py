"""Cycle-level execution of a network plan.

The datapath contract: in steady state the array produces one partial
row-convolution result (one output pixel of one output channel, over one
16-channel input tile) per cycle.  Around that, the model charges what
the loop nest (`scheduler.LoopNest`) implies: a k*k-word filter pass into
the array plus a depth-3 pipeline fill per (row, output-channel) segment,
visible filter chunk loads when double buffering cannot hide them, the
first rows of each (n_o, base, n_i) block, one cycle per layer for the
source/sink swap, and one cycle per 2x2 window per 16-channel word for
max pooling.  The nest counters are closed forms, not a walk of the nest.
The counters come from `cost(plan, net)`, which reads the plan and the
net's structure only, so a modeled number needs no weights, thresholds
or input.

Outputs come from the golden model's own layer step,
`functional.layer_forward`, run over each spatial tile's range of conv
output columns; `check` compares them with the golden model and the
independent bipolar oracle.  The host computes each conv column once: a
tile runs only the columns no earlier tile of its layer ran, since its
halo columns would come out the same.  The model still charges every
tile its whole window, the recomputed halo included.  An untiled layer's
output is the map its layer step returns; only tiled layers are stitched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ArchConfig
from .errors import FitError, ShapeError
from .functional import layer_forward, run_network_reference
from .network import NetworkDesc
from .oracle import run_bipolar_reference
from .scheduler import INPUT_MAP, PIPE_FILL, LayerPlan, NetworkPlan, plan_network
from .stats import LayerStats, Stats, kernel_peak
from .tensors import LANES, BinaryTensor, IntTensor, n_groups


@dataclass
class UtilizationReport:
    util_kernel_limited: float   # achieved ops / (stats.kernel_peak(k) per cycle)
    util_full_array: float       # achieved ops / (full-array peak per cycle)

    def to_text(self) -> str:
        return (f"util_kernel_limited = {self.util_kernel_limited:.6f}\n"
                f"util_full_array = {self.util_full_array:.6f}\n")


@dataclass
class CheckReport:
    stats: Stats
    layers_checked: int
    first_divergence: dict  # per comparison: None where equal, else (layer, channel, y, x)

    @property
    def equal(self) -> bool:
        return not any(self.first_divergence.values())


def _valid_taps(layer, win) -> tuple[int, int]:
    """(sum of valid vertical taps over rows, same over window columns).

    Window positions hanging over the image edge have idle lanes that do
    not count as achieved work."""
    k, s, p = layer.k, layer.stride, layer.pad

    def inside(lo: int, hi: int, n: int) -> int:
        # position o loses max(p - o*s, 0) taps over the low edge, for o in
        # [lo, b), and max(o*s - q, 0) over the high edge, for o in [c, hi):
        # two arithmetic series
        q = n + p - k
        b = max(lo, min(hi, -(-p // s)))
        c = min(hi, max(lo, q // s + 1))
        low = (b - lo) * p - s * (lo + b - 1) * (b - lo) // 2
        high = s * (c + hi - 1) * (hi - c) // 2 - (hi - c) * q
        return (hi - lo) * k - low - high

    return inside(0, layer.out_h, layer.in_h), inside(win.out_lo, win.out_hi, layer.in_w)


def _tile_stats(plan: LayerPlan) -> LayerStats:
    """Counters of one (layer, tile) run over the tile's whole window, its
    recomputed halo columns included."""
    l, win, nest = plan.layer, plan.window, plan.nest
    k, s = l.k, l.stride
    o_h, o_w, i_w = nest.o_h, nest.o_w, nest.in_w
    g_out = n_groups(l.n_out)

    # Counters of the block nest in closed form; sum(out_tiles) == n_out.
    per_out_tile = nest.blocks_per_out_tile
    blocks = len(nest.out_tiles) * per_out_tile
    segments = per_out_tile * l.n_out * o_h    # row segments
    chunk_words = per_out_tile * l.n_out * k * k
    row_words = blocks * nest.rows_used * i_w
    vy_sum, vx_sum = _valid_taps(l, win)
    out_words = g_out * l.pooled_h * win.pout_w   # packed result write-back
    st = LayerStats(
        name=l.name, k=k, tile=plan.tile,
        active_banks=plan.active_banks,
        ops_graph=2 * k * k * l.n_in * l.n_out * o_h * o_w * l.bases,
        cycles_compute=segments * o_w,
        # filter chunks, the stalling first rows, and filter passes to the array
        cycles_load=(nest.visible_load_cycles() + blocks * nest.k_first * i_w
                     + segments * k * k),
        cycles_fill=segments * PIPE_FILL,
        cycles_pool=g_out * (o_h // 2) * win.pout_w if l.pool == "max" else 0,
        cycles_other=int(plan.tile == 0),  # source/sink swap
        # achieved ops: full channel/tap work minus edge-idle lanes
        xnor_ops_done=2 * l.n_in * l.n_out * l.bases * vy_sum * vx_sum,
        fmm_reads=row_words,
        fmm_writes=out_words,
        pb_reads=chunk_words,
        rowbank_reads=segments * (k * k + s * k * o_w),
        rowbank_writes=chunk_words + row_words,
        nmcu_rmw=segments * o_w,
    )

    # residual accumulation at final write-back
    if l.residual is not None:
        st.fmm_reads += (l.n_out if l.residual_mode == "int" else g_out) * o_h * o_w
        st.nmcu_rmw += l.n_out * o_h * o_w
    if plan.parks_int_plane:  # residual parking
        st.fmm_writes += l.n_out * o_h * o_w
    if plan.stream_params:
        st.io_bits += l.param_bits()
    if plan.charge_input_io:
        st.io_bits += 16 * n_groups(l.n_in) * l.in_h * i_w
    if plan.charge_output_io:
        st.io_bits += 16 * out_words
    return st


def _spread_bank_activity(activity: dict, span: tuple, count: int) -> None:
    b0, b1 = span
    if b1 <= b0:
        return
    share, rest = divmod(count, b1 - b0)
    for b in range(b0, b1):  # the first `rest` banks take one access more
        activity[b] = activity.get(b, 0) + share + (b - b0 < rest)


def cost(plan: NetworkPlan, net: NetworkDesc) -> Stats:
    """Modeled counters of one frame through a planned network.

    One layer run per (layer, tile), in layer order and, within a layer,
    in tile order; each charges its tile's whole window, halo included.
    Only the plan, its arch and the net's name are read: no weights,
    thresholds or input."""
    stats = Stats(net=net.name)
    for sched in plan.schedules:
        for pl in sched.plans:
            st = _tile_stats(pl)
            _spread_bank_activity(stats.bank_activity, pl.feed_banks, st.fmm_reads)
            _spread_bank_activity(stats.bank_activity, pl.out_banks,
                                  st.fmm_writes + 2 * st.nmcu_rmw)
            stats.layers.append(st)
    return stats


def execute(plan: NetworkPlan, net: NetworkDesc, x: BinaryTensor,
            weights: dict, arch: ArchConfig | None = None) -> tuple[dict, Stats]:
    """Run a planned network; returns ({layer: BinaryTensor}, cost(plan, net)).

    Tiled groups run tile-major; every layer's full output map is
    reassembled so downstream layers and verification can read it.  A
    tile's layer step runs only the conv columns no earlier tile
    computed, and a tile left with none runs no layer step.  A layer
    whose step computes the whole map (every untiled layer) keeps the
    step's own map, and its own int plane where one is parked; no copy is
    made.  `arch` feeds no counter: the counters read `plan.arch`.
    """
    outputs: dict[str, BinaryTensor] = {}
    planes: dict[str, IntTensor] = {}
    if net.binary_layers() and (x.channels, x.height, x.width) != net.sim_input_dims():
        raise ShapeError(f"input is {x.channels}x{x.height}x{x.width}, network "
                         f"{net.name} takes {'x'.join(map(str, net.sim_input_dims()))}")

    done: dict[str, int] = {}  # conv columns [0, done) computed, per layer
    for pl in plan.exec_order:
        l, win = pl.layer, pl.window
        # Each tile reads its feed and residual from the stitched whole maps,
        # so a halo column an earlier tile computed would come out the same:
        # compute only the new columns.  A tiled pooled window ends at
        # 2 * pout_hi, so `lo` stays even and the 2x2 windows on the map's grid.
        lo = done.get(l.name, 0)
        if lo >= win.out_hi:
            continue
        done[l.name] = win.out_hi
        feed = x if pl.feed == INPUT_MAP else outputs[pl.feed]
        residual = None
        if l.residual is not None:  # the whole plane or map; a tile reads its columns
            residual = planes[l.residual] if l.residual_mode == "int" else outputs.get(l.residual, x)
        res = layer_forward(feed, l, weights[l.name], residual, net.acc_bits, net.acc_mode,
                            (lo, win.out_hi))
        if lo == 0 and win.out_hi == l.out_w:  # the whole map: the layer step's own
            outputs[l.name] = res.bits
            if pl.parks_int_plane:
                planes[l.name] = res.sums
            continue

        if l.name not in outputs:  # channels-last, as the layer step packs its bits
            hwg = np.zeros((l.pooled_h, l.pooled_w, n_groups(l.n_out)), dtype=np.uint16)
            outputs[l.name] = BinaryTensor.packed(l.n_out, hwg.transpose(2, 0, 1))
        plo = lo // 2 if l.pool != "none" else lo
        outputs[l.name].words[:, :, plo:win.pout_hi] = res.bits.words
        if pl.parks_int_plane:
            if l.name not in planes:  # pixel-major, as the conv kernel writes its sums
                hwc = np.zeros((l.out_h, l.out_w, l.n_out), dtype=np.int32)
                planes[l.name] = IntTensor(l.n_out, l.out_h, l.out_w, hwc.transpose(2, 0, 1))
            planes[l.name].values[:, :, lo:win.out_hi] = res.sums.values

    return outputs, cost(plan, net)


def run(net: NetworkDesc, x: BinaryTensor, weights: dict,
        arch: ArchConfig) -> tuple[dict, Stats, NetworkPlan]:
    plan = plan_network(net, arch)
    outputs, stats = execute(plan, net, x, weights, arch)
    return outputs, stats, plan


def utilization(stats: Stats, arch: ArchConfig) -> UtilizationReport:
    """Both published ratios, ops-weighted across layer runs."""
    c = arch.compute
    full_peak = 2 * c.n_bpu * c.xnor_units_per_bpu * LANES
    cycles_total = 0
    w_ops = 0
    acc_k = 0.0
    acc_f = 0.0
    for l in stats.layers:
        cycles = l.cycles_total
        cycles_total += cycles
        if cycles == 0:
            continue
        ops = l.xnor_ops_done
        w_ops += ops
        acc_k += ops * (ops / (cycles * kernel_peak(l.k)))   # ops * l.util_kernel_limited
        acc_f += ops * (ops / (cycles * full_peak))
    if cycles_total == 0:
        raise FitError("utilization of an empty or zero-cycle run")
    return UtilizationReport(acc_k / w_ops, acc_f / w_ops)


def check(net: NetworkDesc, x: BinaryTensor, weights: dict, arch: ArchConfig) -> CheckReport:
    """Plan once, run the simulator, the golden model and the bipolar oracle
    once each, and compare per layer the simulator's bits with both models'
    and the golden sums with the oracle's (no packed-word code in common)."""
    layers = net.binary_layers()
    outputs, stats = (execute(plan_network(net, arch), net, x, weights) if layers
                      else ({}, Stats(net=net.name)))  # nothing to plan: equal over 0 layers
    golden = run_network_reference(net, x, weights)
    oracle = run_bipolar_reference(net, x, weights)
    first = dict.fromkeys(("simulator vs golden bits", "simulator vs oracle bits",
                           "golden vs oracle sums"))
    for l in layers:
        sim, (sums, bits), ref = outputs[l.name].to_bits(), oracle[l.name], golden[l.name]
        pairs = (sim, ref.bits.to_bits()), (sim, bits), (ref.sums.values, sums)
        for what, (got, want) in zip(first, pairs):
            if first[what] is None and not np.array_equal(got, want):
                first[what] = (l.name, *map(int, np.argwhere(got != want)[0]))
    return CheckReport(stats, len(layers), first)
