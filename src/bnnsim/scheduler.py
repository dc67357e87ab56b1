"""Loop-nest planning: channel tiling, row streaming, feature-map memory
ping-pong, parameter-buffer residency, and spatial column tiling.

A layer runs as an out-channel-tile x base x in-channel-tile loop nest:
each (n_o, base, n_i) block stages one filter chunk in the row banks,
streams image rows past it, and accumulates partial sums near memory.
`LoopNest` is the one description of that nest: the simulator derives its
counters from it in closed form and the event stream walks it.  The
feature-map memory is split in two halves whose source/sink roles swap
after every layer.  Layers whose maps overflow a half are executed in
vertical column stripes with a recomputed halo so stitching is exact; a
uniform-cost search over layer intervals picks which layers share stripes.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from itertools import accumulate

from .arch import ArchConfig, FitEntry, FitReport, map_bytes, plane_bytes
from .errors import FitError
from .network import LayerConfig, NetworkDesc
from .tensors import LANES

C_I_TILE = LANES   # input channels per tile = lanes per xnor unit
C_O_TILE = LANES   # output channels batched per tile = one packed result word
PIPE_FILL = 3      # adder-tree pipeline depth charged per row segment

INPUT_MAP = "@input"


def channel_tiles(n: int, tile: int = LANES) -> list[int]:
    """Real channel counts per tile, e.g. 20 -> [16, 4]."""
    out = [tile] * (n // tile)
    if n % tile:
        out.append(n % tile)
    return out


@dataclass
class TileWindow:
    """Column ranges of one layer in one spatial tile (global coordinates)."""

    in_lo: int
    in_hi: int
    out_lo: int     # conv output columns, pre-pool
    out_hi: int
    pout_lo: int    # post-pool output columns
    pout_hi: int

    @property
    def in_w(self) -> int:
        return self.in_hi - self.in_lo

    @property
    def out_w(self) -> int:
        return self.out_hi - self.out_lo

    @property
    def pout_w(self) -> int:
        return self.pout_hi - self.pout_lo


def full_window(layer: LayerConfig) -> TileWindow:
    return TileWindow(0, layer.in_w, 0, layer.out_w, 0, layer.pooled_w)


@dataclass
class LoopNest:
    """The (n_o, base, n_i) block nest of one (layer, spatial tile) run.

    A block stages a ct_o*k*k-word filter chunk in the row banks, then
    streams `rows_used` window rows of `in_w` words past it; the first
    `k_first` rows stall the array, the rest prefetch.  The block makes
    o_h*ct_o row segments, each a k*k-word filter pass into the array, a
    pipeline fill and o_w partial sums.  A chunk load stalls the array on
    the first block, and on any block too short to hide its own load
    behind the previous one (double-buffered row banks)."""

    out_tiles: tuple            # real out channels per tile, e.g. (16, 16, 4)
    bases: int
    in_tiles: tuple
    k: int
    o_h: int
    o_w: int
    in_w: int
    rows_used: int
    k_first: int
    io_bits_per_cycle: int | None = None   # set when chunks stream from off chip

    @property
    def blocks_per_out_tile(self) -> int:
        return self.bases * len(self.in_tiles)

    def blocks(self):
        """(n_o, ct_o, base, n_i) of every block, in execution order."""
        for n_o, ct_o in enumerate(self.out_tiles):
            for base in range(self.bases):
                for n_i in range(len(self.in_tiles)):
                    yield n_o, ct_o, base, n_i

    def chunk_words(self, ct_o: int) -> int:
        return ct_o * self.k * self.k

    def load_cycles(self, ct_o: int) -> int:
        words = self.chunk_words(ct_o)
        if self.io_bits_per_cycle is None:
            return words
        return max(words, -(-words * 16 // self.io_bits_per_cycle))

    def load_visible(self, first: bool, ct_o: int) -> bool:
        block_span = self.o_h * ct_o * (self.o_w + self.k * self.k + PIPE_FILL)
        return first or block_span < self.load_cycles(ct_o)

    def visible_load_cycles(self) -> int:
        """Chunk-load stall cycles summed over all blocks, in closed form:
        blocks of one out-tile width share load cycles and visibility."""
        first = self.out_tiles[0]
        total = self.load_cycles(first)
        for ct_o in set(self.out_tiles):
            if self.load_visible(False, ct_o):
                blocks = self.out_tiles.count(ct_o) * self.blocks_per_out_tile - (ct_o == first)
                total += blocks * self.load_cycles(ct_o)
        return total


def _layer_nests(layer: LayerConfig, windows: list[TileWindow],
                 io_bits_per_cycle: int | None) -> list[LoopNest]:
    """The loop nest of each of a layer's tile windows (only widths differ)."""
    k, s, p = layer.k, layer.stride, layer.pad
    out_tiles = tuple(channel_tiles(layer.n_out, C_O_TILE))
    in_tiles = tuple(channel_tiles(layer.n_in, C_I_TILE))
    rows_used = min(layer.in_h, (layer.out_h - 1) * s - p + k)
    k_first = min(layer.in_h, k - p)
    return [LoopNest(out_tiles=out_tiles, bases=layer.bases, in_tiles=in_tiles, k=k,
                     o_h=layer.out_h, o_w=win.out_w, in_w=win.in_w, rows_used=rows_used,
                     k_first=k_first, io_bits_per_cycle=io_bits_per_cycle) for win in windows]


@dataclass
class LayerPlan:
    """Everything the executor needs for one (layer, spatial tile) run."""

    layer: LayerConfig
    index: int                 # binary layer index (drives ping-pong parity)
    tile: int
    window: TileWindow
    nest: LoopNest
    feed: str = INPUT_MAP      # record name of the map the layer reads
    active_banks: int = 0
    stream_params: bool = False
    charge_input_io: bool = False
    charge_output_io: bool = False
    parks_int_plane: bool = False
    feed_banks: tuple = (0, 0)
    out_banks: tuple = (0, 0)
    pb_word_offset: int = 0


@dataclass
class Schedule:
    """Per-layer plan: loop bounds plus an event stream for audits."""

    layer: LayerConfig
    plans: list

    def events(self):
        for plan in self.plans:
            yield from _layer_events(plan)


@dataclass
class Event:
    kind: str
    layer: str
    coords: dict
    bank: int = -1
    word: int = -1
    size: int = 0
    hidden: bool = False

    def line(self) -> str:
        parts = [self.kind, f"layer={self.layer}"]
        parts += [f"{k}={v}" for k, v in self.coords.items()]
        if self.bank >= 0:
            parts.append(f"bank={self.bank}")
        if self.word >= 0:
            parts.append(f"word={self.word}")
        parts.append(f"size={self.size}")
        if self.hidden:
            parts.append("hidden")
        return " ".join(parts)


@dataclass
class NetworkPlan:
    arch: ArchConfig
    schedules: list
    exec_order: list        # LayerPlans in execution order (tile-major in groups)
    fit: FitReport

    def dump_lines(self):
        for sched in self.schedules:
            for ev in sched.events():
                yield ev.line()


# ---------------------------------------------------------------------------
# map records and liveness
# ---------------------------------------------------------------------------

@dataclass
class _Record:
    name: str
    half: int
    bytes: int
    producer: int      # binary layer index, -1 for the network input
    last_use: int
    base_word: int = 0  # 32-bit word offset within the half
    banks: tuple = (0, 0)


def _reads(binary: list[LayerConfig]) -> list[tuple[str, str | None]]:
    """(feed map, residual source map) of each binary layer, as record names.

    A layer reads its `input=` layer, else the layer before it, else the
    network input; a residual from the external prefix reads the network
    input."""
    names = {l.name for l in binary}
    return [(l.input_layer or (binary[i - 1].name if i else INPUT_MAP),
             None if l.residual is None else l.residual if l.residual in names else INPUT_MAP)
            for i, l in enumerate(binary)]


def _build_records(net: NetworkDesc, binary: list[LayerConfig], reads) -> dict[str, _Record]:
    """Every map and parked int plane, live from its producer to its last reader."""
    c, h, w = net.sim_input_dims()
    records = {INPUT_MAP: _Record(INPUT_MAP, 0, map_bytes(c, h, w), -1, 0)}
    for i, l in enumerate(binary):
        records[l.name] = _Record(l.name, 1 - i % 2,
                                  map_bytes(l.n_out, l.pooled_h, l.pooled_w), i, i)
    for j, (l, (feed, res)) in enumerate(zip(binary, reads)):
        records[feed].last_use = j
        if res is not None and l.residual_mode == "int":
            src = records[res]
            s = binary[src.producer]
            plane = records.setdefault(res + "#int", _Record(
                res + "#int", src.half, plane_bytes(s.n_out, s.out_h, s.out_w),
                src.producer, j))
            plane.last_use = j
        elif res is not None:
            records[res].last_use = j
    return records


def _half_bytes(records, n_layers: int) -> list[tuple[int, int]]:
    """Bytes alive in each half at each layer, from one pass over the
    records: each adds its bytes over its lifetime as a difference."""
    delta = [[0] * (n_layers + 1), [0] * (n_layers + 1)]
    for rec in records:
        delta[rec.half][max(rec.producer, 0)] += rec.bytes
        delta[rec.half][rec.last_use + 1] -= rec.bytes
    return list(zip(accumulate(delta[0][:-1]), accumulate(delta[1][:-1])))


# ---------------------------------------------------------------------------
# spatial tiling
# ---------------------------------------------------------------------------

def _group_windows(binary: list[LayerConfig], reads, g0: int, g1: int,
                   out_range: tuple[int, int],
                   prev_cover: dict | None = None,
                   extend_to_full: bool = False) -> tuple[dict, tuple[int, int]]:
    """Backward column walk: required ranges per layer for one tile core.

    `prev_cover` holds, per layer, the column coverage reached by earlier
    tiles; each window is widened down to it so the stitched maps have no
    gaps (strided or pool-truncated consumers would otherwise skip
    columns).  The final tile sets `extend_to_full` so every in-group map
    is complete after stitching.  In-group maps and a leading group's
    streamed input are read as column slices; every other map the group
    reads was produced before it and is resident and whole."""
    need: dict[str, list[int]] = {}
    prev_cover = prev_cover if prev_cover is not None else {}

    def widen(name: str, lo: int, hi: int) -> None:
        cur = need.setdefault(name, [lo, hi])
        cur[0] = min(cur[0], lo)
        cur[1] = max(cur[1], hi)

    sliced = {l.name for l in binary[g0:g1 + 1]} | ({INPUT_MAP} if g0 == 0 else set())
    widen(binary[g1].name, *out_range)
    windows: dict[str, TileWindow] = {}
    for j in range(g1, g0 - 1, -1):
        l = binary[j]
        # a layer nothing in-group consumes still computes its core share
        plo, phi = need.get(l.name, list(out_range if l.pooled_w >= out_range[1] else (0, l.pooled_w)))
        plo = min(plo, prev_cover.get(l.name, plo))
        if extend_to_full:
            phi = max(phi, l.pooled_w)
        if l.pool != "none":
            clo, chi = 2 * plo, min(2 * phi, l.out_w)
        else:
            clo, chi = plo, phi
        in_lo = max(0, clo * l.stride - l.pad)
        in_hi = min(l.in_w, (chi - 1) * l.stride - l.pad + l.k)
        windows[l.name] = TileWindow(in_lo, in_hi, clo, chi, plo, phi)
        feed, res = reads[j]
        if feed in sliced:
            widen(feed, in_lo, in_hi)
        if res in sliced:
            widen(res, clo, chi)
    for name, win in windows.items():
        prev_cover[name] = max(prev_cover.get(name, 0), win.pout_hi)
    return windows, tuple(need.get(INPUT_MAP, (0, 0)))


def _tile_cores(width: int, n: int) -> list[tuple[int, int]]:
    base, rem = divmod(width, n)
    cores = []
    pos = 0
    for t in range(n):
        size = base + (1 if t < rem else 0)
        cores.append((pos, pos + size))
        pos += size
    return cores


def _within(halves, caps: tuple[int, int]) -> bool:
    return halves[0] <= caps[0] and halves[1] <= caps[1]


def _outer_bytes(records: dict, g0: int) -> list[int]:
    """Bytes per half of the maps a group starting at g0 holds whole for
    every tile: those produced before it and read in or after it, but for
    a leading group's streamed input."""
    halves = [0, 0]
    for rec in records.values():
        if rec.producer < g0 <= rec.last_use and not (g0 == 0 and rec.name == INPUT_MAP):
            halves[rec.half] += rec.bytes
    return halves


def _group_maps(net, binary, records, g0: int, g1: int, tiles) -> list[tuple]:
    """(record, bytes, first layer, last layer) of every map alive while
    tiled group [g0..g1] runs.  In-group maps, their int planes and a
    leading group's streamed input are column slices at their widest
    stripe.  The group's output is held from g0 on: at its widest stripe if
    the group ends the network (it streams off chip stripe by stripe), else
    whole with its int plane (they stitch across the stripes).  The maps
    the group reads from before it stay whole until g1."""
    tail = g1 == len(binary) - 1
    widest: dict[str, int] = {}
    for windows, in_range in tiles:
        slices = {}
        if g0 == 0:
            c, h, _ = net.sim_input_dims()
            slices[INPUT_MAP] = map_bytes(c, h, in_range[1] - in_range[0])
        for l in binary[g0:g1 + tail]:
            win = windows[l.name]
            slices[l.name] = map_bytes(l.n_out, l.pooled_h, win.pout_w)
            slices[l.name + "#int"] = plane_bytes(l.n_out, l.out_h, win.out_w)
        for name, b in slices.items():
            widest[name] = max(widest.get(name, 0), b)
    maps = []
    for rec in records.values():
        born = max(rec.producer, 0)
        if rec.producer == g1:
            maps.append((rec, widest.get(rec.name, rec.bytes), g0, rec.last_use))
        elif rec.name in widest and rec.last_use <= g1:
            maps.append((rec, widest[rec.name], born, rec.last_use))
        elif rec.producer < g0 <= rec.last_use:
            maps.append((rec, rec.bytes, born, max(rec.last_use, g1)))
    return maps


def _group_feasible(net, arch, binary, reads, records, g0: int, g1: int, n: int):
    """Try to tile layers [g0..g1] into n column stripes; return the per-tile
    (windows, input range) or None.  The group fits if, at each of its
    layers, the maps `_group_maps` holds alive fit their halves.  Only the
    group's last layer may feed layers after the group; the search picks no
    other groups."""
    caps = (arch.memory.half_bytes(0), arch.memory.half_bytes(1))
    cover: dict = {}
    tiles = [_group_windows(binary, reads, g0, g1, core, cover, extend_to_full=t == n - 1)
             for t, core in enumerate(_tile_cores(binary[g1].pooled_w, n))]
    maps = _group_maps(net, binary, records, g0, g1, tiles)
    for j in range(g0, g1 + 1):
        halves = [0, 0]
        for rec, b, first, last in maps:
            if first <= j <= last:
                halves[rec.half] += b
        if not _within(halves, caps):
            return None
    return tiles


# ---------------------------------------------------------------------------
# placement and planning
# ---------------------------------------------------------------------------

def _search_groups(net, arch, binary, reads, records, fits) -> tuple[dict, list[int]]:
    """Uniform-cost search for the tiled groups, over positions 0..L of the
    binary layers.

    From position p, a layer that fits passes at no cost, and a layer that
    does not may be given up as untileable, at a cost above any tiling.
    Layers [p..g1] may run as one tiled group of n column stripes, at a
    cost of n tiles, if no layer of it but g1 feeds a layer after it.
    Costs order as (untileable layers, tiles, tiled layers), ties going to
    the later group start.  Groups are made and tested lazily in cost
    order: [p..g1] at n = 2 queues [p..g1+1] at n = 2, and a failed test
    queues the group again at n + 1, up to single-column stripes.
    Returns ({g0: (g1, tiles)}, untileable layer indices)."""
    if all(fits):  # every layer passes
        return {}, []
    n_layers = len(binary)
    caps = (arch.memory.half_bytes(0), arch.memory.half_bytes(1))
    heap = []   # (cost, -start, end, start, n); n = 0 gives up one layer
    steps = {0: (0, 0, None)}   # position -> (start, n, tiles) of its cheapest step

    def push(cost: tuple, g0: int, g1: int, n: int) -> None:
        heapq.heappush(heap, (cost, -g0, g1, g0, n))

    def expand(p: int, cost: tuple) -> None:
        # a layer that fits passes at once: nothing queued is cheaper
        given_up, tiles, tiled = cost
        while p < n_layers:
            push((given_up, tiles + 2, tiled + 1), p, p, 2)
            if not fits[p]:
                push((given_up + 1, tiles, tiled), p, p, 0)
                return
            if p + 1 in steps:
                return
            steps[p + 1] = (p, 0, None)
            p += 1

    expand(0, (0, 0, 0))
    while n_layers not in steps:
        cost, _, g1, g0, n = heapq.heappop(heap)
        given_up, tiles, tiled = cost
        if n == 2 and g1 + 1 < n_layers:
            push((given_up, tiles, tiled + 1), g0, g1 + 1, 2)
        if g1 + 1 in steps:
            continue
        group = None
        if n == 2:
            # no n helps a group whose earlier layers feed past its end, or
            # that cannot hold its whole stitched output and int plane
            floor = _outer_bytes(records, g0)
            if g1 < n_layers - 1:
                floor[1 - g1 % 2] += sum(r.bytes for r in records.values() if r.producer == g1)
            if binary[g1].pooled_w < 2 or not _within(floor, caps) or any(
                    r.last_use > g1 for r in records.values() if g0 <= r.producer < g1):
                continue
        if n:
            group = _group_feasible(net, arch, binary, reads, records, g0, g1, n)
            if group is None:
                if n < binary[g1].pooled_w:
                    push((given_up, tiles + 1, tiled), g0, g1, n + 1)
                continue
        steps[g1 + 1] = (g0, n, group)
        expand(g1 + 1, cost)

    groups, untileable = {}, []
    p = n_layers
    while p:
        g0, n, group = steps[p]
        if n:
            groups[g0] = (p - 1, group)
        elif not fits[g0]:
            untileable.insert(0, g0)
        p = g0
    return dict(sorted(groups.items())), untileable


def _placement(net: NetworkDesc, arch: ArchConfig):
    """Records, tiled groups, tile windows and fit report; no addresses."""
    arch.check()
    net.validate()
    binary = net.binary_layers()
    if not binary:
        raise FitError("network has no binary layers to place")
    for l in binary:
        if l.n_out <= 0 or l.n_in <= 0:
            raise FitError(f"layer {l.name}: zero-size layer")

    reads = _reads(binary)
    records = _build_records(net, binary, reads)
    caps = (arch.memory.half_bytes(0), arch.memory.half_bytes(1))
    halves = _half_bytes(records.values(), len(binary))
    fits = [src <= caps[0] and snk <= caps[1] for src, snk in halves]
    groups, untileable = _search_groups(net, arch, binary, reads, records, fits)
    windows = [[full_window(l)] for l in binary]
    for g0, (g1, tiles) in groups.items():
        for j in range(g0, g1 + 1):
            windows[j] = [w[binary[j].name] for w, _ in tiles]
    fit = _fit_report(arch, binary, halves, fits, windows)
    return binary, reads, records, groups, windows, fit, untileable


def placement_report(net: NetworkDesc, arch: ArchConfig) -> FitReport:
    return _placement(net, arch)[5]


def _assign_addresses(net: NetworkDesc, arch: ArchConfig, binary, records: dict,
                      groups: dict) -> None:
    """Size and time the maps of each tiled group as `_group_maps` does for
    the fit check.  (The fit report reads the records from before: a slice
    or an extended lifetime is alive only inside its group, whose layers'
    fit comes from their windows.)  Then place each map when it first comes
    alive, a group's stitched output ahead of the maps that appear with the
    group's first layer, at the lowest 32-bit word of its half clear of
    every map still to be read (first fit), in one walk that keeps each
    half's live spans in word order."""
    first = {name: max(rec.producer, 0) for name, rec in records.items()}
    for g0, (g1, tiles) in groups.items():
        for rec, b, f, last in _group_maps(net, binary, records, g0, g1, tiles):
            rec.bytes, rec.last_use = b, last
            first[rec.name] = min(first[rec.name], f)
    word_bytes = arch.memory.fmm_bank_width_bits // 8
    bank_words = arch.memory.fmm_bank_words
    live: list[list[tuple[int, int, int]]] = [[], []]  # (start, end, last use) per half
    for rec in sorted(records.values(), key=lambda r: (first[r.name], -r.producer)):
        spans = live[rec.half] = [sp for sp in live[rec.half] if sp[2] >= first[rec.name]]
        words = -(-rec.bytes // word_bytes)
        pos = 0
        for start, end, _ in spans:
            if pos + words <= start:
                break
            pos = max(pos, end)
        insort(spans, (pos, pos + words, rec.last_use))
        rec.base_word = pos
        base = arch.memory.fmm_src_banks if rec.half else 0
        bank0 = base + pos // bank_words
        rec.banks = (bank0, max(base + -(-(pos + words) // bank_words), bank0 + 1))


def _fit_report(arch: ArchConfig, binary, halves, fits, windows) -> FitReport:
    """Banks and fit per layer: an untiled layer counts every map alive in
    its source and sink halves, a tiled one its widest window's feed and
    output maps.  Parameters are resident first-fit in layer order; the
    layers whose parameters do not fit stream them."""
    bank, total_banks = arch.memory.bank_bytes, arch.memory.fmm_banks_total
    entries, needs_tiling, unsupported = [], [], []
    pb_left = arch.memory.pb_bytes * 8
    all_bits = streamed = 0
    for i, (l, wins) in enumerate(zip(binary, windows)):
        src, snk = halves[i][i % 2], halves[i][1 - i % 2]
        overlap = 0
        if len(wins) > 1:
            src = max(map_bytes(l.n_in, l.in_h, w.in_w) for w in wins)
            snk = max(map_bytes(l.n_out, l.pooled_h, w.pout_w) for w in wins)
            overlap = max(max(a.in_hi - b.in_lo for a, b in zip(wins, wins[1:])), 0)
        working = C_O_TILE * l.out_h * l.out_w * 2   # partial-sum tile plane
        banks_used = -(-src // bank) + -(-(snk + working) // bank)
        bits = l.param_bits()
        all_bits += bits
        streams = bits > pb_left
        if streams:
            streamed += bits
        else:
            pb_left -= bits
        fits_i = fits[i] or len(wins) > 1
        entries.append(FitEntry(l.name, min(banks_used, total_banks), fits_i, len(wins),
                                overlap, streams))
        if len(wins) > 1 or not fits_i:
            needs_tiling.append(l.name)
        if not arch.compute.kernel_ok(l.k):
            unsupported.append(l.name)
    return FitReport(entries=entries, fits_untiled=not needs_tiling, needs_tiling=needs_tiling,
                     unsupported_kernels=unsupported,
                     weights_fit_pb=-(-all_bits // 8) <= arch.memory.pb_bytes,
                     streamed_param_bits=streamed)


def plan_network(net: NetworkDesc, arch: ArchConfig) -> NetworkPlan:
    """Plan every layer; raises FitError if the network cannot be placed."""
    binary, reads, records, groups, windows, fit, untileable = _placement(net, arch)
    if untileable:
        raise FitError(f"layers {', '.join(binary[j].name for j in untileable)} do not fit "
                       f"the feature-map memory even with single-column tiles")
    if fit.unsupported_kernels:
        raise FitError("unsupported kernel sizes on: " + ", ".join(fit.unsupported_kernels))
    _assign_addresses(net, arch, binary, records, groups)

    schedules = []
    pb_offset, io_bits = 0, arch.memory.io_bits_per_cycle
    for i, (l, entry, wins) in enumerate(zip(binary, fit.entries, windows)):
        feed = reads[i][0]
        nests = _layer_nests(l, wins, io_bits if entry.streams_params else None)
        plans = [LayerPlan(layer=l, index=i, tile=t, window=win, nest=nest, feed=feed,
                           active_banks=entry.active_banks, stream_params=entry.streams_params,
                           charge_input_io=i == 0, charge_output_io=i == len(binary) - 1,
                           parks_int_plane=l.name + "#int" in records,
                           feed_banks=records[feed].banks, out_banks=records[l.name].banks,
                           pb_word_offset=pb_offset)
                 for t, (win, nest) in enumerate(zip(wins, nests))]
        pb_offset += l.param_bits() // 16
        schedules.append(Schedule(layer=l, plans=plans))

    exec_order = [pl for sched in schedules for pl in sched.plans]
    if groups:  # tile-major inside groups, layer order elsewhere
        start = {j: g0 for g0, (g1, _) in groups.items() for j in range(g0, g1 + 1)}
        exec_order.sort(key=lambda pl: (start.get(pl.index, pl.index), pl.tile, pl.index))
    return NetworkPlan(arch=arch, schedules=schedules, exec_order=exec_order, fit=fit)


# ---------------------------------------------------------------------------
# event stream
# ---------------------------------------------------------------------------

def _layer_events(plan: LayerPlan):
    l, nest, tile = plan.layer, plan.nest, plan.tile
    o_h, o_w, i_w = nest.o_h, nest.o_w, nest.in_w
    k = nest.k
    name = l.name
    last_inner = (nest.bases - 1, len(nest.in_tiles) - 1)
    if tile == 0:
        direction = "A->B" if plan.index % 2 == 0 else "B->A"
        yield Event("SwapFMM", name, {"direction": direction}, size=0)
    chunk_word = plan.pb_word_offset
    for b, (n_o, ct_o, base, n_i) in enumerate(nest.blocks()):
        words = nest.chunk_words(ct_o)
        yield Event(
            "LoadFilterChunkToRowBanks", name,
            {"tile": tile, "n_o": n_o, "base": base, "n_i": n_i},
            bank=-1, word=chunk_word, size=words,
            hidden=not nest.load_visible(b == 0, ct_o))
        chunk_word += words
        for r in range(nest.rows_used):
            yield Event(
                "LoadFMRowToRowBanks", name,
                {"tile": tile, "n_o": n_o, "n_i": n_i, "row": r},
                bank=plan.feed_banks[0], word=r * i_w, size=i_w)
        for n_r in range(o_h):
            for b_o in range(ct_o):
                yield Event(
                    "LoadFilterToBPU", name,
                    {"tile": tile, "n_o": n_o, "n_i": n_i, "row": n_r, "b_o": b_o},
                    size=k * k)
                yield Event("ProducePartialSum", name,
                            {"tile": tile, "n_o": n_o, "n_i": n_i,
                             "row": n_r, "b_o": b_o}, size=o_w)
                yield Event("NMCUAccumulate", name,
                            {"tile": tile, "n_o": n_o, "n_i": n_i,
                             "row": n_r, "b_o": b_o}, size=o_w)
        if (base, n_i) != last_inner:
            continue
        yield Event("Binarize", name, {"tile": tile, "n_o": n_o},
                    bank=plan.out_banks[0], size=ct_o * o_h * o_w)
        if l.pool != "none":
            yield Event("Pool", name, {"tile": tile, "n_o": n_o},
                        size=(o_h // 2) * plan.window.pout_w)
