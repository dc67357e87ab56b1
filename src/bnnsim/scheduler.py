"""Loop-nest planning: channel tiling, row streaming, feature-map memory
ping-pong, parameter-buffer residency, and spatial column tiling.

A layer runs as an out-channel-tile x base x in-channel-tile loop nest:
each (n_o, base, n_i) block stages one filter chunk in the row banks,
streams image rows past it, and accumulates partial sums near memory.
`LoopNest` is the one description of that nest: the simulator derives its
counters from it in closed form and the event stream walks it.  The
feature-map memory is split in two halves whose source/sink roles swap
after every layer.  Layers whose maps overflow a half are executed in
vertical column stripes with a recomputed halo so stitching is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .arch import ArchConfig, FitEntry, FitReport, map_bytes, plane_bytes
from .errors import FitError
from .network import LayerConfig, NetworkDesc

C_I_TILE = 16   # input channels per tile = lanes per xnor unit
C_O_TILE = 16   # output channels batched per tile = one packed result word
PIPE_FILL = 3   # adder-tree pipeline depth charged per row segment

INPUT_MAP = "@input"


def channel_tiles(n: int, tile: int = 16) -> list[int]:
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
class TilePlan:
    c_i_tile: int
    c_o_tile: int
    spatial_tiles: list  # (col_start, col_end, overlap_cols) at layer/group input
    fmm_direction: str


@dataclass(frozen=True)
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
        for ct_o, n in Counter(self.out_tiles).items():
            if self.load_visible(False, ct_o):
                blocks = n * self.blocks_per_out_tile - (ct_o == first)
                total += blocks * self.load_cycles(ct_o)
        return total


def _layer_nest(layer: LayerConfig, window: TileWindow,
               io_bits_per_cycle: int | None) -> LoopNest:
    k, s = layer.k, layer.stride
    p = (k - 1) // 2 if layer.padding != "none" else 0
    return LoopNest(
        out_tiles=tuple(channel_tiles(layer.n_out, C_O_TILE)), bases=layer.bases,
        in_tiles=tuple(channel_tiles(layer.n_in, C_I_TILE)), k=k,
        o_h=layer.out_h, o_w=window.out_w, in_w=window.in_w,
        rows_used=min(layer.in_h, (layer.out_h - 1) * s - p + k),
        k_first=min(layer.in_h, k - p), io_bits_per_cycle=io_bits_per_cycle)


@dataclass
class LayerPlan:
    """Everything the executor needs for one (layer, spatial tile) run."""

    layer: LayerConfig
    index: int                 # binary layer index (drives ping-pong parity)
    tile: int
    n_tiles: int
    direction: str
    window: TileWindow
    nest: LoopNest
    src_bytes: int = 0
    snk_bytes: int = 0
    working_bytes: int = 0
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
    index: int
    tile_plan: TilePlan
    plans: list

    def events(self, detail: str = "segment"):
        for plan in self.plans:
            yield from _layer_events(plan, detail)

    def dump_lines(self, detail: str = "segment"):
        for ev in self.events(detail):
            yield ev.line()


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
    net: NetworkDesc
    arch: ArchConfig
    schedules: list
    exec_order: list        # LayerPlans in execution order (tile-major in groups)
    fit: FitReport

    def dump_lines(self, detail: str = "segment"):
        for sched in self.schedules:
            yield from sched.dump_lines(detail)


# ---------------------------------------------------------------------------
# map records and liveness
# ---------------------------------------------------------------------------

@dataclass
class _Record:
    name: str
    kind: str          # 'map' or 'plane'
    half: int
    bytes: int
    producer: int      # binary layer index, -1 for the network input
    last_use: int
    base_word: int = 0  # 32-bit word offset within the half
    banks: tuple = (0, 0)


def _build_records(net: NetworkDesc, binary: list[LayerConfig]) -> list[_Record]:
    name_to_idx = {l.name: i for i, l in enumerate(binary)}
    c, h, w = net.sim_input_dims()
    records = [_Record(INPUT_MAP, "map", 0, map_bytes(c, h, w), -1, 0 if binary else -1)]

    def consumers_of(name: str, start: int) -> list[int]:
        out = []
        for j in range(start, len(binary)):
            l = binary[j]
            feeds = l.input_layer if l.input_layer is not None else (
                binary[j - 1].name if j > 0 else INPUT_MAP)
            if feeds == name:
                out.append(j)
            if l.residual == name and l.residual_mode == "binary":
                out.append(j)
        return out

    # residual edges pointing at the external prefix resolve to the input map
    for j, l in enumerate(binary):
        if l.residual is not None and l.residual not in name_to_idx:
            records[0].last_use = max(records[0].last_use, j)

    for i, l in enumerate(binary):
        cons = consumers_of(l.name, i + 1)
        rec = _Record(l.name, "map", 1 - i % 2,
                      map_bytes(l.n_out, l.pooled_h, l.pooled_w), i,
                      max(cons) if cons else i)
        records.append(rec)
        int_consumers = [j for j in range(i + 1, len(binary))
                         if binary[j].residual == l.name and binary[j].residual_mode == "int"]
        if int_consumers:
            records.append(_Record(l.name + "#int", "plane", 1 - i % 2,
                                   plane_bytes(l.n_out, l.out_h, l.out_w), i,
                                   max(int_consumers)))
    return records


def _alive(rec: _Record, i: int) -> bool:
    return rec.producer <= i <= rec.last_use


def _half_bytes(records: list[_Record], i: int) -> tuple[int, int]:
    tot = [0, 0]
    for rec in records:
        if _alive(rec, i):
            tot[rec.half] += rec.bytes
    return tot[0], tot[1]


def _assign_addresses(records: list[_Record], arch: ArchConfig, n_layers: int) -> None:
    """Deterministic bump allocation with reuse, in 32-bit words per half."""
    word_bytes = arch.memory.fmm_bank_width_bits // 8
    half_base = (0, arch.memory.fmm_src_banks)
    live: list[list[tuple[int, int, _Record]]] = [[], []]  # (start, end_words) spans
    for i in range(-1, n_layers):
        for rec in records:
            if rec.producer != i:
                continue
            words = -(-rec.bytes // word_bytes)
            spans = sorted((s, e) for s, e, r in live[rec.half] if _alive(r, i) or r.last_use >= i)
            pos = 0
            for s, e in spans:
                if pos + words <= s:
                    break
                pos = max(pos, e)
            rec.base_word = pos
            bank0 = half_base[rec.half] + pos // arch.memory.fmm_bank_words
            bank1 = half_base[rec.half] + -(-(pos + words) // arch.memory.fmm_bank_words)
            rec.banks = (bank0, max(bank1, bank0 + 1))
            live[rec.half] = [(s, e, r) for s, e, r in live[rec.half] if r.last_use >= i]
            live[rec.half].append((pos, pos + words, rec))


# ---------------------------------------------------------------------------
# spatial tiling
# ---------------------------------------------------------------------------

def _group_windows(binary: list[LayerConfig], g0: int, g1: int,
                   out_range: tuple[int, int],
                   prev_cover: dict | None = None,
                   extend_to_full: bool = False) -> tuple[dict, tuple[int, int]]:
    """Backward column walk: required ranges per layer for one tile core.

    `prev_cover` holds, per layer, the column coverage reached by earlier
    tiles; each window is widened down to it so the stitched maps have no
    gaps (strided or pool-truncated consumers would otherwise skip
    columns).  The final tile sets `extend_to_full` so every in-group map
    is complete after stitching."""
    need: dict[str, list[int]] = {}
    prev_cover = prev_cover if prev_cover is not None else {}

    def widen(name: str, lo: int, hi: int) -> None:
        cur = need.setdefault(name, [lo, hi])
        cur[0] = min(cur[0], lo)
        cur[1] = max(cur[1], hi)

    group = binary[g0:g1 + 1]
    widen(group[-1].name, *out_range)
    windows: dict[str, TileWindow] = {}
    for pos in range(len(group) - 1, -1, -1):
        l = group[pos]
        # a layer nothing in-group consumes still computes its core share
        plo, phi = need.get(l.name, list(out_range if l.pooled_w >= out_range[1] else (0, l.pooled_w)))
        plo = min(plo, prev_cover.get(l.name, plo))
        if extend_to_full:
            phi = max(phi, l.pooled_w)
        if l.pool != "none":
            clo, chi = 2 * plo, min(2 * phi, l.out_w)
        else:
            clo, chi = plo, phi
        p = (l.k - 1) // 2 if l.padding != "none" else 0
        in_lo = max(0, clo * l.stride - p)
        in_hi = min(l.in_w, (chi - 1) * l.stride - p + l.k)
        windows[l.name] = TileWindow(in_lo, in_hi, clo, chi, plo, phi)
        if l.input_layer is not None and l.input_layer in {x.name for x in group[:pos]}:
            feed = l.input_layer
        elif l.input_layer is not None:
            raise FitError(f"layer {l.name}: tiled group input rerouted outside the group")
        else:
            feed = group[pos - 1].name if pos > 0 else INPUT_MAP
        widen(feed, in_lo, in_hi)
        if l.residual is not None:
            src = l.residual
            if src in {x.name for x in group[:pos]}:
                widen(src, clo, chi)
            elif src in {x.name for x in binary[:g0]}:
                pass  # source map produced before the group stays resident
            elif g0 == 0:
                widen(INPUT_MAP, clo, chi)  # residual slice of the streamed input
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


def _group_feasible(net, arch, binary, records, g0: int, g1: int, n: int):
    """Try to tile layers [g0..g1] into n column stripes; return the per-tile
    windows or None."""
    last = binary[g1]
    w_out = last.pooled_w
    if n > w_out:
        return None
    # only the group's last layer may feed layers beyond the group; other
    # in-group maps exist as tile slices only
    for j in range(g0, g1):
        name = binary[j].name
        for x in range(g1 + 1, len(binary)):
            l = binary[x]
            feeds = l.input_layer if l.input_layer is not None else binary[x - 1].name
            if feeds == name or l.residual == name:
                return None
    group_names = {l.name for l in binary[g0:g1 + 1]}
    cores = _tile_cores(w_out, n)
    tiles = []
    cover: dict = {}
    for t, core in enumerate(cores):
        try:
            windows, in_range = _group_windows(binary, g0, g1, core, cover,
                                               extend_to_full=t == n - 1)
        except FitError:
            return None
        tiles.append((windows, in_range))

    # byte feasibility per (tile, layer): per-tile slices of in-group maps
    # plus every resident map produced before the group (the streamed input
    # of a leading group is charged as a slice instead)
    outer_feed_bytes = [0, 0]
    for rec in records:
        if rec.producer < g0 and rec.last_use >= g0 and not (g0 == 0 and rec.name == INPUT_MAP):
            outer_feed_bytes[rec.half] += rec.bytes
    # last in-group layer that reads the group input map
    in_last = g0
    for j in range(g0, g1 + 1):
        l = binary[j]
        if l.residual is not None and l.residual not in group_names and \
                l.residual_mode == "binary" and l.residual not in {x.name for x in binary[:g0]}:
            in_last = max(in_last, j)
    # a group ending the network streams its result off-chip per tile;
    # otherwise the stitched output accumulates on-chip for the next layer
    group_is_tail = g1 == len(binary) - 1
    stitched = 0
    for t, (windows, in_range) in enumerate(tiles):
        core_bytes = map_bytes(last.n_out, last.pooled_h, cores[t][1] - cores[t][0])
        stitched += core_bytes
        for j in range(g0, g1 + 1):
            l = binary[j]
            win = windows[l.name]
            halves = [0, 0]
            halves[0] += outer_feed_bytes[0]
            halves[1] += outer_feed_bytes[1]
            if g0 == 0 and j <= in_last:
                # group input streams from I/O as a per-tile slice
                c, h, _ = net.sim_input_dims()
                halves[0] += map_bytes(c, h, in_range[1] - in_range[0])
            halves[1 - g1 % 2] += core_bytes if group_is_tail else stitched
            for jj in range(g0, g1 + 1):
                ll = binary[jj]
                wwin = windows[ll.name]
                cons = _ingroup_last_use(binary, g0, g1, jj)
                if jj <= j <= cons and jj != g1:
                    halves[1 - jj % 2] += map_bytes(ll.n_out, ll.pooled_h, wwin.pout_w)
            # parked int slices inside the group
            for jj in range(g0, g1 + 1):
                ll = binary[jj]
                ints = [x for x in range(jj + 1, g1 + 1)
                        if binary[x].residual == ll.name and binary[x].residual_mode == "int"]
                if ints and jj <= j <= max(ints):
                    wwin = windows[ll.name]
                    halves[1 - jj % 2] += plane_bytes(ll.n_out, ll.out_h, wwin.out_w)
            if halves[0] > arch.memory.half_bytes(0) or halves[1] > arch.memory.half_bytes(1):
                return None
    return tiles


def _ingroup_last_use(binary, g0, g1, j) -> int:
    """Last in-group layer consuming layer j's output map."""
    name = binary[j].name
    last = j
    for x in range(j + 1, g1 + 1):
        l = binary[x]
        feeds = l.input_layer if l.input_layer is not None else binary[x - 1].name
        if feeds == name or (l.residual == name and l.residual_mode == "binary"):
            last = x
    return last


# ---------------------------------------------------------------------------
# placement and planning
# ---------------------------------------------------------------------------

def _placement(net: NetworkDesc, arch: ArchConfig, strict: bool = True):
    arch.check()
    net.validate()
    binary = net.binary_layers()
    for l in binary:
        if l.n_out <= 0 or l.n_in <= 0:
            raise FitError(f"layer {l.name}: zero-size layer")
    unsupported = [l.name for l in binary if not arch.compute.kernel_ok(l.k)]

    records = _build_records(net, binary)
    caps = (arch.memory.half_bytes(0), arch.memory.half_bytes(1))

    def layer_fit(i):
        a, b = _half_bytes(records, i)
        src, snk = (a, b) if i % 2 == 0 else (b, a)
        cap_src, cap_snk = (caps[0], caps[1]) if i % 2 == 0 else (caps[1], caps[0])
        return src, snk, src <= cap_src and snk <= cap_snk

    failing = [i for i in range(len(binary)) if not layer_fit(i)[2]]
    groups = {}       # g0 -> (g1, n_tiles, tiles)
    untileable = []
    idx = 0
    fail_set = set(failing)
    while idx < len(binary):
        if idx not in fail_set:
            idx += 1
            continue
        g0 = idx
        g1_min = g0
        while g1_min + 1 in fail_set:
            g1_min += 1
        found = None
        max_tiles = max(2, binary[g1_min].pooled_w)
        for n in range(2, max_tiles + 1):
            for g1 in range(g1_min, len(binary)):
                tiles = _group_feasible(net, arch, binary, records, g0, g1, n)
                if tiles is not None:
                    found = (g1, n, tiles)
                    break
            if found:
                break
        if found is None:
            if strict:
                raise FitError(
                    f"layers {binary[g0].name}..{binary[g1_min].name} do not fit the "
                    f"feature-map memory even with single-column tiles")
            untileable.extend(binary[j].name for j in range(g0, g1_min + 1))
            idx = g1_min + 1
            continue
        g1, n, tiles = found
        groups[g0] = (g1, n, tiles)
        # the group feed map stays alive for every tile pass
        feed_name = binary[g0].input_layer or (binary[g0 - 1].name if g0 > 0 else INPUT_MAP)
        for rec in records:
            if rec.name == feed_name:
                rec.last_use = max(rec.last_use, g1)
        idx = g1 + 1

    _assign_addresses(records, arch, len(binary))
    return binary, records, groups, unsupported, layer_fit, untileable


def placement_report(net: NetworkDesc, arch: ArchConfig) -> FitReport:
    return _fit_report(net, arch, _placement(net, arch, strict=False))


def _fit_report(net: NetworkDesc, arch: ArchConfig, placement) -> FitReport:
    binary, records, groups, unsupported, layer_fit, untileable = placement
    caps = (arch.memory.half_bytes(0), arch.memory.half_bytes(1))
    entries = []
    needs_tiling = list(untileable)
    in_group = {}
    for g0, (g1, n, tiles) in groups.items():
        for j in range(g0, g1 + 1):
            in_group[j] = (g0, g1, n, tiles)
    for i, l in enumerate(binary):
        src, snk, fits = layer_fit(i)
        direction = "A->B" if i % 2 == 0 else "B->A"
        working = C_O_TILE * l.out_h * l.out_w * 2
        tiles_n, overlap = 1, 0
        if i in in_group:
            g0, g1, n, tiles = in_group[i]
            tiles_n = n
            needs_tiling.append(l.name)
            widths = []
            src = snk = 0
            for t, (windows, in_range) in enumerate(tiles):
                win = windows[l.name]
                widths.append((in_range, win))
                s_b = map_bytes(l.n_in, l.in_h, win.in_w)
                k_b = map_bytes(l.n_out, l.pooled_h, win.pout_w)
                src, snk = max(src, s_b), max(snk, k_b)
            for t in range(1, len(widths)):
                prev_hi = widths[t - 1][1].in_hi
                lo = widths[t][1].in_lo
                overlap = max(overlap, prev_hi - lo)
            fits = True
        banks_used = -(-src // arch.memory.bank_bytes) + -(-(snk + working) // arch.memory.bank_bytes)
        entries.append(FitEntry(
            layer=l.name, direction=direction, src_bytes=src, snk_bytes=snk,
            src_capacity=caps[i % 2], snk_capacity=caps[1 - i % 2],
            working_bytes=working,
            active_banks=min(banks_used, arch.memory.fmm_banks_total),
            fits=fits, tiles=tiles_n, overlap_cols=overlap,
        ))
    param_bytes = -(-net.param_bits() // 8)
    pb_ok = param_bytes <= arch.memory.pb_bytes
    streamed = 0 if pb_ok else _streamed_param_bits(net, arch)
    return FitReport(
        entries=entries,
        fits_untiled=not needs_tiling,
        needs_tiling=needs_tiling,
        unsupported_kernels=unsupported,
        param_bytes=param_bytes,
        pb_bytes=arch.memory.pb_bytes,
        weights_fit_pb=pb_ok,
        streamed_param_bits=streamed,
    )


def _resident_layers(net: NetworkDesc, arch: ArchConfig) -> set[str]:
    """Greedy first-fit parameter residency in layer order."""
    budget = arch.memory.pb_bytes * 8
    used = 0
    resident = set()
    for l in net.binary_layers():
        bits = l.weight_bits() + 16 * l.n_out
        if used + bits <= budget:
            resident.add(l.name)
            used += bits
    return resident


def _streamed_param_bits(net: NetworkDesc, arch: ArchConfig) -> int:
    resident = _resident_layers(net, arch)
    return sum(l.weight_bits() + 16 * l.n_out
               for l in net.binary_layers() if l.name not in resident)


def plan_network(net: NetworkDesc, arch: ArchConfig) -> NetworkPlan:
    """Plan every layer; raises FitError if the network cannot be placed."""
    placement = _placement(net, arch)
    binary, records, groups, unsupported, _, _ = placement
    if unsupported:
        raise FitError("unsupported kernel sizes on: " + ", ".join(unsupported))
    fit = _fit_report(net, arch, placement)
    rec_by_name = {r.name: r for r in records}
    resident = _resident_layers(net, arch)

    in_group = {}
    for g0, (g1, n, tiles) in groups.items():
        for j in range(g0, g1 + 1):
            in_group[j] = (g0, g1, n, tiles)

    entries = {e.layer: e for e in fit.entries}
    schedules = []
    plans_by_layer: dict[int, list[LayerPlan]] = {}
    pb_offset = 0
    for i, l in enumerate(binary):
        direction = "A->B" if i % 2 == 0 else "B->A"
        feed_name = l.input_layer if l.input_layer is not None else (
            binary[i - 1].name if i > 0 else INPUT_MAP)
        feed_rec = rec_by_name[feed_name]
        out_rec = rec_by_name[l.name]
        entry = entries[l.name]
        streamed = l.name not in resident
        chunk_io = arch.memory.io_bits_per_cycle if streamed else None
        common = dict(
            layer=l, index=i, direction=direction,
            src_bytes=entry.src_bytes, snk_bytes=entry.snk_bytes,
            working_bytes=entry.working_bytes, active_banks=entry.active_banks,
            stream_params=streamed,
            parks_int_plane=(l.name + "#int") in rec_by_name,
            feed_banks=feed_rec.banks, out_banks=out_rec.banks,
            pb_word_offset=pb_offset,
            charge_input_io=(i == 0),
            charge_output_io=(i == len(binary) - 1),
        )
        pb_offset += (l.weight_bits() + 16 * l.n_out) // 16
        if i in in_group:
            g0, g1, n, tiles = in_group[i]
            plans = []
            spatial = []
            prev_hi = None
            for t, (windows, in_range) in enumerate(tiles):
                win = windows[l.name]
                overlap = (prev_hi - win.in_lo) if prev_hi is not None else 0
                prev_hi = win.in_hi
                spatial.append((win.in_lo, win.in_hi, max(0, overlap)))
                plans.append(LayerPlan(tile=t, n_tiles=n, window=win,
                                       nest=_layer_nest(l, win, chunk_io),
                                       **common))
            tp = TilePlan(C_I_TILE, C_O_TILE, spatial, direction)
        else:
            win = full_window(l)
            plans = [LayerPlan(tile=0, n_tiles=1, window=win,
                               nest=_layer_nest(l, win, chunk_io), **common)]
            tp = TilePlan(C_I_TILE, C_O_TILE, [(0, l.in_w, 0)], direction)
        schedules.append(Schedule(layer=l, index=i, tile_plan=tp, plans=plans))
        plans_by_layer[i] = plans

    # execution order: tile-major inside groups, layer order elsewhere
    exec_order: list[LayerPlan] = []
    i = 0
    while i < len(binary):
        if i in in_group:
            g0, g1, n, _ = in_group[i]
            for t in range(n):
                for j in range(g0, g1 + 1):
                    exec_order.append(plans_by_layer[j][t])
            i = g1 + 1
        else:
            exec_order.append(plans_by_layer[i][0])
            i += 1
    return NetworkPlan(net=net, arch=arch, schedules=schedules,
                       exec_order=exec_order, fit=fit)


def plan_layer(layer: LayerConfig, arch: ArchConfig, fm_dims: tuple[int, int, int]) -> Schedule:
    """Single-layer plan on a fresh memory state (must fit one half)."""
    c, h, w = fm_dims
    net = NetworkDesc("layer", c, h, w, [layer])
    plan = plan_network(net.validate(), arch)
    return plan.schedules[0]


# ---------------------------------------------------------------------------
# event stream
# ---------------------------------------------------------------------------

def _layer_events(plan: LayerPlan, detail: str):
    l, nest, tile = plan.layer, plan.nest, plan.tile
    o_h, o_w, i_w = nest.o_h, nest.o_w, nest.in_w
    k = nest.k
    name = l.name
    last_inner = (nest.bases - 1, len(nest.in_tiles) - 1)
    if tile == 0:
        yield Event("SwapFMM", name, {"direction": plan.direction}, size=0)
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
                if detail == "full":
                    for n_c in range(o_w):
                        yield Event("StreamFMPixelToBPU", name,
                                    {"row": n_r, "col": n_c}, size=k)
                        yield Event("ProducePartialSum", name,
                                    {"row": n_r, "col": n_c,
                                     "ch": n_o * C_O_TILE + b_o}, size=1)
                        yield Event("NMCUAccumulate", name,
                                    {"row": n_r, "col": n_c,
                                     "ch": n_o * C_O_TILE + b_o}, size=1)
                else:
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
