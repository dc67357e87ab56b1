"""Bit-exact layer semantics: xnor-popcount convolution, threshold folding,
boolean pooling, and residual accumulation, composed by `layer_forward`,
the one layer step of both the golden model and the simulator.

All comparisons follow the hardware comparator: a channel output is -1
(bit 0) strictly below its integer threshold and +1 (bit 1) otherwise.
Channels whose folded affine scale is negative carry a `flip` flag that
reverses the comparison direction.

The conv kernel runs one GEMM per call where the layer's weights fit one
block and its output rows one chunk, as on small maps.  Larger layers copy
each input row's windows once per row chunk (row windows) and run one GEMM
per kernel row, each reading a view of that copy, over groups of kernel
rows and blocks of output channels.  A group of T = 256 to 2047 taps
pairs its output channels: one
float32 GEMM column carries the +/-1 dots of channels j and j + ceil(m/2)
as d_j + 4096*d_{j+h}, exact since 4097T < 2**24, and one integer decode
a group splits them again, so such a group runs half the GEMM columns for
the same sums.  The epilogue (binarize, pool, pack) runs channels-last, as
the conv kernel writes its sums: the bits of a layer's output are packed
from pixel-major sums, and its words are a (groups, H, W) view of
(H, W, groups) memory whose lanes past the last channel are zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateChannel, ShapeError
from .tensors import LANES, BinaryTensor, IntTensor, n_groups, unpack_lanes

POOL_WINDOW = 4  # 2x2, stride 2
_BUFFER_CAP = 1 << 19  # float32 entries (2 MB) in each of xnor_conv's window and product buffers
_WEIGHT_CAP = 1 << 19  # float32 entries (2 MB) in its weight buffer
_MAX_PIXELS = 1024  # output pixels a row chunk's GEMM gets at most
_PAIR_SHIFT = 12  # bits of a paired GEMM column's low dot
# Taps T of a weight block whose dots pair: up to 2047, where 2T < 4096 and
# 4097T < 2**24 keep them exact; from 256, where the GEMM work saved first
# pays for the decode (3x3 convs of 16 input channels, 144 taps, ran 9-18% slower).
_PAIR_TAPS = range(256, 2048)
_ROW = 1 << 13  # sums per row of the epilogue's threshold compares
_UINTS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}  # by width in bytes


def conv_out_hw(h: int, w: int, k: int, stride: int = 1, padded: bool = True) -> tuple[int, int]:
    """Output spatial dims; 'same' padding uses (k-1)//2 on each side."""
    p = (k - 1) // 2 if padded else 0
    oh = (h + 2 * p - k) // stride + 1
    ow = (w + 2 * p - k) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"kernel {k} (stride {stride}) does not fit a {h}x{w} map")
    return oh, ow


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

@dataclass
class BatchNorm:
    """Per-channel batch-norm constants feeding the threshold fold."""

    gamma: float = 1.0
    beta: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0


@dataclass
class ThresholdVector:
    """Per-output-channel integer comparison points.

    `t` compares single-pixel sums, `t_pool` compares 2x2 window sums for
    average pooling (pre-scaled by the window size, ceil rule).  `flip`
    marks channels whose comparison direction is reversed.
    """

    t: np.ndarray
    flip: np.ndarray
    t_pool: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.int32)
        self.flip = np.asarray(self.flip, dtype=bool)
        if self.t_pool is None:
            self.t_pool = self.t * POOL_WINDOW
        self.t_pool = np.asarray(self.t_pool, dtype=np.int32)
        if not (len(self.t) == len(self.flip) == len(self.t_pool)):
            raise ShapeError("threshold field lengths differ")

    def __len__(self) -> int:
        return len(self.t)


def real_sign_bit(s, c: float, alpha: float, bn: BatchNorm, n: int):
    """Reference real-arithmetic path: +1 iff BN(C + alpha*(2s - N)) > 0.

    Kept as the single canonical float expression; the integer fold is
    derived from it by crossover search, so the two paths agree exactly
    at every integer sum.
    """
    pre = c + alpha * (2.0 * np.asarray(s, dtype=np.float64) - n)
    return bn.gamma * (pre - bn.mu) / bn.sigma + bn.beta > 0.0


def _first_true(pred, lo: int, hi: int) -> int:
    """Smallest s in [lo, hi] with pred(s) true, or hi+1 if none (monotone)."""
    if not pred(hi):
        return hi + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def derive_threshold(
    c: float, alpha: float, bn: BatchNorm, n: int, window: int = 1
) -> tuple[int, bool]:
    """Fold bias, scale, and batch norm into one integer comparison point.

    Returns (T, flip) such that for every integer window sum S in
    [0, window*N] the integer compare reproduces the real-arithmetic
    sign of BN(C + alpha*(2*S/window - N)).  With window=1 this is the
    per-pixel threshold; window=4 yields the pre-scaled average-pool
    threshold.
    """
    if bn.sigma <= 0:
        raise DegenerateChannel(f"sigma must be positive, got {bn.sigma}")
    if alpha * bn.gamma == 0:
        raise DegenerateChannel("combined scale alpha*gamma is zero")
    slope = alpha * bn.gamma
    hi = window * n

    def bit(s):
        return bool(real_sign_bit(s / window if window != 1 else s, c, alpha, bn, n))

    if slope > 0:
        # bits go 0...0 1...1; T = first one
        return _first_true(bit, 0, hi), False
    # bits go 1...1 0...0; T = first zero, output 1 iff S < T
    return _first_true(lambda s: not bit(s), 0, hi), True


def fold_thresholds(params: np.ndarray, n: int) -> ThresholdVector:
    """Fold raw per-channel (C, alpha, gamma, beta, mu, sigma) rows."""
    params = np.asarray(params, dtype=np.float64)
    t = np.empty(len(params), dtype=np.int32)
    flip = np.empty(len(params), dtype=bool)
    t_pool = np.empty(len(params), dtype=np.int32)
    for i, (c, alpha, gamma, beta, mu, sigma) in enumerate(params):
        bn = BatchNorm(gamma, beta, mu, sigma)
        t[i], flip[i] = derive_threshold(c, alpha, bn, n)
        t_pool[i], _ = derive_threshold(c, alpha, bn, n, window=POOL_WINDOW)
    return ThresholdVector(t, flip, t_pool)


# ---------------------------------------------------------------------------
# convolution and binarization
# ---------------------------------------------------------------------------

def _bipolar_lanes(words: np.ndarray, channels: int) -> np.ndarray:
    """int8 -1/+1 lanes of packed words whose last axis is the channel group;
    converted before the masked lanes are sliced off, while contiguous."""
    pm = unpack_lanes(words, LANES * words.shape[-1]).view(np.int8)
    pm += pm
    pm -= 1
    return pm[..., :channels]


def _summed_weights(
    weights: np.ndarray, n_in: int, buf: np.ndarray, paired: bool = False
) -> np.ndarray:
    """(m, taps) float32 rows of packed weights (bases, m, ...) in the flat
    buffer `buf`: each tap's +/-1 weights summed over the bases, as twice
    the count of its one bits less the base count.  `paired` gives h =
    ceil(m/2) rows w_j + 4096*w_{j+h} instead (row h-1 alone where m is
    odd), built from the integer sums straight into `buf`."""
    bits = unpack_lanes(weights, LANES * weights.shape[-1])  # masked lanes too, contiguous
    bases = len(bits)
    # counts in unsigned ints whose signed view holds 2*count - bases: numpy
    # sums the uint8 bits over the bases axis 1.6x faster than into int8
    dtype = np.uint8 if bases < 128 else np.uint16 if bases < 1 << 15 else np.uint32
    w = bits[0] if bases == 1 else np.add.reduce(bits, axis=0, dtype=dtype)
    w = w.view(f"i{w.itemsize}")
    w += w  # may wrap; 2*count - bases fits the dtype, so it comes out exact
    w -= bases
    w = w[..., :n_in]
    if paired:
        h = (len(w) + 1) // 2
        n = len(w) - h  # rows with a partner
        w_sum = buf[:h * w[0].size].reshape(h, *w.shape[1:])
        np.multiply(w[h:], 1 << _PAIR_SHIFT, out=w_sum[:n], dtype=np.float32)
        w_sum[:n] += w[:n]
        w_sum[n:] = w[n:h]
        return w_sum.reshape(h, -1)
    w_sum = buf[:w.size].reshape(w.shape)
    np.copyto(w_sum, w)
    return w_sum.reshape(len(w_sum), -1)


def xnor_conv(
    x: BinaryTensor,
    weights: np.ndarray,
    k: int,
    stride: int = 1,
    padding: str = "same0",
    cols: tuple[int, int] | None = None,
) -> IntTensor:
    """Binary-domain convolution: per output value, the popcount of matching
    bits over the k x k window and all input channels, summed over bases.

    `weights` is packed (n_out, k, k, groups) or (bases, n_out, k, k, groups)
    uint16.  'same' padding contributes pad-bit comparisons over all input
    lanes.  `cols` = (lo, hi) computes only output columns [lo, hi), all of
    them by default: only the input columns those read unpack, with the pad
    value where they cross the image edge, so a column stripe of a map gets
    the same sums as that stripe of the whole map's result.

    Over N lanes popcount(xnor) = (N + dot)/2, dot the sum of +/-1 products,
    and the bases' dots sum to one dot against their summed +/-1 weights.
    The map unpacks once into a channels-last +/-1 array inside its pad
    border.  The result is a (n_out, oh, ow) view of pixel-major sums.

    A call whose weights fit one block under _WEIGHT_CAP and whose windows
    one chunk under _BUFFER_CAP and _MAX_PIXELS runs one GEMM (im2col): a
    window view (oh, ow, k, k, n_in) converts to float32 in one copy and
    the dots land, cast, in the int32 sums.

    Larger calls lower each input row once (row windows, after MEC: Cho &
    Brand, ICML 2017).  For a chunk of output rows one copy fills a float32
    buffer (phases, rows + (k-1)//stride, ow, k, n_in); phase p holds the
    input rows stride*y + p, p < min(stride, k), each as its ow windows of
    k taps.  Kernel row u reads rows [u//stride, u//stride + rows) of phase
    u % stride: a contiguous (rows*ow, k*n_in) matrix at every stride, whose
    GEMM against that kernel row's weights gives its partial dots.  The
    weights split into groups of g kernel rows, then blocks of m output
    channels, whose GEMM columns fit _WEIGHT_CAP; each block converts once
    per call, and a kernel row's weights are a strided view of its group's.
    A GEMM multiplies windows by weights, giving pixel-major dots; where a
    chunk has fewer pixels than its GEMM has weight columns (ResNet stage
    4: 49 against 256) it multiplies weights by windows, which BLAS runs
    faster there, and its channel-major dots are read transposed.

    A group's kernel rows add their dots in float32, and the group adds its
    popcounts (dot + T)/2, T = bases*g*k*n_in its taps, to the int32 sums
    (the first group writes them): a dot over T taps has the parity of T,
    so each group's half is an integer.  An unpaired group's partial dots
    are integers of magnitude <= bases*k*k*n_in < 2**24, exact in float32.
    A group whose T lies in _PAIR_TAPS (256 to 2047) pairs its channels:
    with h = ceil(m/2), GEMM column j < h holds the summed weights
    w_j + 4096*w_{j+h} (w_{h-1} alone where m is odd), so its kernel rows
    add up to P = d_j + 4096*d_{j+h}, every partial sum an integer of
    magnitude <= 4097T < 2**24, exact in float32.  In int32, U = P + 4097T
    holds d_j + T in its low 12 bits and d_{j+h} + T above them, both even
    and in [0, 2T] with 2T < 4096; halved, U holds (d_j + T)/2 in its low
    11 bits and (d_{j+h} + T)/2 from bit 12, and they decode once a group
    and chunk, in the block's channel order.  The bound is exactness; the
    floor is cost: under 256 taps the decode costs more than the GEMM
    columns it saves.
    """
    weights = np.asarray(weights, dtype=np.uint16)
    if weights.ndim == 4:
        weights = weights[None]
    bases, n_out, n_in = weights.shape[0], weights.shape[1], x.channels
    g_in = n_groups(n_in)
    if weights.shape[1:] != (n_out, k, k, g_in):
        raise ShapeError(f"weight shape {weights.shape[1:]} != {(n_out, k, k, g_in)}")
    taps = bases * k * k * n_in
    if taps >= 1 << 24:  # past this, float32 sums stop being exact
        raise ShapeError(f"{bases}x{k}x{k}x{n_in} taps exceed the exact float32 range")
    padded = padding != "none"
    oh, ow = conv_out_hw(x.height, x.width, k, stride, padded)
    lo, hi = cols or (0, ow)
    if not 0 <= lo < hi <= ow:
        raise ShapeError(f"output columns [{lo}, {hi}) are outside the map's {ow} columns")
    p = (k - 1) // 2 if padded else 0
    c0, c1 = lo * stride - p, (hi - 1) * stride - p + k  # input columns read
    s0, s1 = max(c0, 0), min(c1, x.width)
    ow = hi - lo
    sums = np.empty((oh, ow, n_out), dtype=np.int32)  # pixel-major, as the GEMMs write
    one_gemm = (n_out * k * k * n_in <= _WEIGHT_CAP and oh * ow <= _MAX_PIXELS
                and oh * ow * max(k * k * n_in, n_out) <= _BUFFER_CAP)
    height = x.height + 2 * p
    if not one_gemm:
        # Groups of g kernel rows by m output channels, as many rows as fit
        # the weight buffer, then as many channels.  Chunks stop at
        # _MAX_PIXELS pixels: past that, a layer of few taps and channels
        # (sed c1, 288 taps by 32) loses more to adds out of cache than its
        # GEMMs gain.
        row = k * n_in  # taps of a kernel row

        def paired(g):  # a group of g kernel rows puts two channels in a GEMM column
            return bases * g * row in _PAIR_TAPS

        def columns(g, m):  # GEMM columns of m channels by g kernel rows
            return (m + 1) // 2 if paired(g) else m

        g = next((g for g in range(k, 1, -1) if columns(g, n_out) * g * row <= _WEIGHT_CAP), 1)
        m = max(1, min(n_out, _WEIGHT_CAP // (g * row) * (2 if paired(g) else 1)))
        phases, reach = min(stride, k), (k - 1) // stride  # reach: phase rows past a chunk's own
        chunk = max(1, min(oh, _BUFFER_CAP // (phases * ow * row) - reach,
                           _BUFFER_CAP // (ow * m), _MAX_PIXELS // ow))
        # the copies may read rows past the padded map that no GEMM reads
        height = max(height, stride * (oh - 1 + reach) + phases)

    pm = np.full((height, c1 - c0, n_in), 1 if padding == "same1" else -1, dtype=np.int8)
    pm[p:p + x.height, s0 - c0:s1 - c0] = _bipolar_lanes(
        x.words[:, :, s0:s1].transpose(1, 2, 0), n_in)
    sy, sx, sc = pm.strides
    if one_gemm:
        win = np.ndarray((oh, ow, k, k, n_in), np.int8, pm, 0,
                         (stride * sy, stride * sx, sy, sx, sc))
        a = win.astype(np.float32, order="C").reshape(oh * ow, -1)
        w_sum = _summed_weights(weights, n_in, np.empty(a.shape[1] * n_out, dtype=np.float32))
        out = sums.reshape(len(a), n_out)
        if len(a) < n_out:  # fewer pixels than channels: weights first
            np.matmul(w_sum, a.T, out=out.T, casting="unsafe")
        else:
            np.matmul(a, w_sum.T, out=out, casting="unsafe")
        sums += taps
        sums >>= 1
        return IntTensor(n_out, oh, ow, sums.transpose(2, 0, 1))

    groups = [(u0, min(u0 + g, k)) for u0 in range(0, k, g)]
    w_buf = np.empty(max(columns(u1 - u0, m) * (u1 - u0) for u0, u1 in groups) * row,
                     dtype=np.float32)
    windows = np.empty(phases * (chunk + reach) * ow * row, dtype=np.float32)
    prod = np.empty(chunk * ow * m, dtype=np.float32)
    # later kernel rows' dots while a group's GEMMs run, later groups' sums after
    part = np.empty(chunk * ow * m if k > 1 else 0, dtype=np.float32)
    dec = part.view(np.int32)
    y_chunks = range(0, oh, chunk)
    for o0, (u0, u1) in itertools.product(range(0, n_out, m), groups):
        t = bases * (u1 - u0) * row
        w_sum = _summed_weights(weights[:, o0:o0 + m, u0:u1], n_in, w_buf, paired(u1 - u0))
        w_rows = w_sum.reshape(len(w_sum), u1 - u0, row)
        for y0 in y_chunks:
            rows = min(chunk, oh - y0)
            shape = (phases, rows + reach, ow, k, n_in)
            r = windows[:math.prod(shape)].reshape(phases, -1, row)
            if len(y_chunks) > 1 or not (o0 or u0):  # one copy of the chunk's windows
                np.copyto(r.reshape(shape), np.ndarray(shape, np.int8, pm, stride * y0 * sy,
                                                       (sy, stride * sy, stride * sx, sx, sc)))
            n = rows * ow * len(w_sum)
            for v in range(u0, u1):  # kernel row v's windows
                j = v // stride * ow
                a, w = r[v % stride, j:j + rows * ow], w_rows[:, v - u0]
                dst = (prod if v == u0 else part)[:n]
                if len(a) < len(w):  # fewer pixels than GEMM columns: weights first
                    np.matmul(w, a.T, out=dst.reshape(len(w), -1))
                else:
                    np.matmul(a, w.T, out=dst.reshape(len(a), -1))
                if v > u0:
                    prod[:n] += dst
            out = prod[:n].reshape(len(w), -1).T if len(a) < len(w) else prod[:n].reshape(len(a), -1)
            block = sums[y0:y0 + rows, :, o0:o0 + m]
            fields = dec[:block.size].reshape(block.shape) if u0 else block
            if paired(u1 - u0):  # U = P + 4097T: d_j + T in its low 12 bits, d_{j+h} + T above
                u = np.add(out, t * ((1 << _PAIR_SHIFT) + 1), out=out.view(np.int32),
                           dtype=np.int32, casting="unsafe").reshape(*block.shape[:2], -1)
                u >>= 1  # both fields even: (d_j + T)/2 in the low 11 bits, the other from bit 12
                h = u.shape[-1]
                np.bitwise_and(u, (1 << (_PAIR_SHIFT - 1)) - 1, out=fields[..., :h])
                np.right_shift(u[..., :block.shape[-1] - h], _PAIR_SHIFT, out=fields[..., h:])
            else:  # int32: T + a partial dot may pass 2**24
                np.add(out.reshape(block.shape), t, out=fields, dtype=np.int32, casting="unsafe")
                fields >>= 1
            if u0:
                block += fields
    return IntTensor(n_out, oh, ow, sums.transpose(2, 0, 1))


def _pixel_major(sums: IntTensor) -> np.ndarray:
    """(H, W, C) contiguous sums: a view of the conv kernel's pixel-major
    sums, a copy of any other layout."""
    return np.ascontiguousarray(sums.values.transpose(1, 2, 0))


def _pack(bits: np.ndarray) -> np.ndarray:
    """Channels-last (..., C) bits -> (..., groups) uint16 words, in one flat
    np.packbits; the lanes past C are zero."""
    c = bits.shape[-1]
    lanes = n_groups(c) * LANES
    if c < lanes:
        padded = np.zeros((*bits.shape[:-1], lanes), dtype=bool)
        padded[..., :c] = bits
        bits = padded
    words = np.packbits(bits.reshape(-1), bitorder="little").view("<u2")
    return words.reshape(*bits.shape[:-1], -1)


def _binarize(v: np.ndarray, t: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Packed bits of contiguous channels-last sums v (..., C): S >= T, or
    S < T on flipped channels, as (..., groups) uint16 words.

    On maps of many pixels the sums compare in rows of r whole pixels,
    against t and flip repeated r times, so numpy's inner loops run r*C
    sums rather than C; the pixels after the last whole row compare against
    the head of those rows.  A map too small for 16 rows of 16 pixels (under
    256 pixels, or over _ROW / 16 channels) compares once, broadcast, into
    bits padded to whole words, packed along the channels: below about 250
    pixels of 20-300 channels that is the faster of the two."""
    c = v.shape[-1]
    r = min(_ROW // c, v.size // (16 * c))  # at least 16 rows
    if r < 16:
        bits = np.zeros((*v.shape[:-1], n_groups(c) * LANES), bool)
        lanes = bits[..., :c]
        np.greater_equal(v, t, out=lanes)
        lanes ^= flip
        return np.packbits(bits, axis=-1, bitorder="little").view("<u2")
    t_row, f_row = np.empty((r, c), np.int32), np.empty((r, c), bool)
    t_row[...] = t
    f_row[...] = flip
    t, flip = t_row.reshape(-1), f_row.reshape(-1)
    flat = v.reshape(-1)
    bits = np.empty(v.shape, bool)
    out = bits.reshape(-1)
    n = len(flat) - len(flat) % len(t)
    for src, dst in ((flat[:n], out[:n]), (flat[n:], out[n:])):
        if len(src):
            row = min(len(src), len(t))
            dst = dst.reshape(-1, row)
            np.greater_equal(src.reshape(-1, row), t[:row], out=dst)
            dst ^= flip[:row]
    return _pack(bits)


def _or_halves(a: np.ndarray) -> np.ndarray:
    """OR of the two halves of a's contiguous last axis, run on the widest
    unsigned ints that split each half."""
    half = a.shape[-1] * a.itemsize // 2
    x = a.view(_UINTS[min(8, half & -half)])
    m = x.shape[-1] // 2
    return (x[..., :m] | x[..., m:]).view(a.dtype)


def _binary_map(c: int, words: np.ndarray) -> BinaryTensor:
    """A BinaryTensor over channels-last (H, W, groups) words, as a view; the
    epilogue leaves their lanes past c zero."""
    return BinaryTensor.packed(c, words.transpose(2, 0, 1))


def _pool_dims(sums: IntTensor, th: ThresholdVector) -> tuple[int, int]:
    if sums.channels != len(th):
        raise ShapeError(f"{sums.channels} channels vs {len(th)} thresholds")
    ph, pw = sums.height // 2, sums.width // 2
    if ph == 0 or pw == 0:
        raise ShapeError(f"cannot 2x2-pool a {sums.height}x{sums.width} map")
    return ph, pw


def threshold_binarize(sums: IntTensor, th: ThresholdVector) -> BinaryTensor:
    """Re-binarize integer sums: bit = (S >= T), or (S < T) on flipped channels.

    Works channels-last: the sums are read pixel-major, and the result's
    words are a (groups, H, W) view of (H, W, groups) memory."""
    if sums.channels != len(th):
        raise ShapeError(f"{sums.channels} channels vs {len(th)} thresholds")
    return _binary_map(sums.channels, _binarize(_pixel_major(sums), th.t, th.flip))


def binary_maxpool(sums: IntTensor, th: ThresholdVector) -> BinaryTensor:
    """Max pool fused with binarization: OR-reduce bits over 2x2 windows.

    Because each output bit is monotone in the underlying real value, the
    OR of the four bits equals binarizing the real-domain window maximum.
    Odd trailing rows/columns are truncated.  Channels-last, as
    `threshold_binarize`: the rows the windows cover binarize and pack,
    then pairs of word rows and of adjacent pixels' words are ORed.
    """
    ph, pw = _pool_dims(sums, th)
    words = _binarize(_pixel_major(sums)[:2 * ph], th.t, th.flip)
    _, ow, g = words.shape
    rows = _or_halves(words.reshape(ph, 2 * ow * g)).reshape(ph, ow, g)
    return _binary_map(sums.channels, _or_halves(rows[:, :2 * pw].reshape(ph, pw, 2 * g)))


def avg_pool_threshold(sums: IntTensor, th: ThresholdVector) -> BinaryTensor:
    """Average pool fused with binarization, done on integer window sums.

    The 2x2 window sum is compared against the pre-scaled threshold
    `t_pool`, equivalent to averaging first and comparing against the
    real threshold under the ceil rounding rule.  Channels-last, as
    `threshold_binarize`: pairs of rows add as whole rows, in int64 (four
    32-bit sums may pass 2**31), then pairs of adjacent pixels.
    """
    ph, pw = _pool_dims(sums, th)
    v = _pixel_major(sums)[:2 * ph]
    _, ow, c = v.shape
    v = v.reshape(ph, 2, ow, c)
    rows = np.add(v[:, 0], v[:, 1], dtype=np.int64)[:, :2 * pw].reshape(ph, pw, 2 * c)
    s4 = rows[..., :c] + rows[..., c:]
    return _binary_map(c, _binarize(s4, th.t_pool, th.flip))


# ---------------------------------------------------------------------------
# golden network model
# ---------------------------------------------------------------------------

@dataclass
class LayerResult:
    sums: IntTensor          # final accumulated plane (post-residual, pre-pool)
    bits: BinaryTensor       # layer output (post binarize + pool)


def layer_forward(
    x: BinaryTensor,
    layer,
    weights: np.ndarray,
    residual: IntTensor | BinaryTensor | None = None,
    acc_bits: int = 16,
    acc_mode: str = "error",
    cols: tuple[int, int] | None = None,
) -> LayerResult:
    """Run one binary layer: conv (all bases), residual add, binarize/pool.

    `cols` = (lo, hi) runs only conv output columns [lo, hi) (all by
    default), as a spatial tile does; on a pooling layer an even `lo` keeps
    the 2x2 windows on the whole map's grid.
    `residual` is the whole parked int plane or the whole binary map of the
    layer's conv output; its columns [lo, hi) add, as integers or as +/-1,
    into the sums in place.  The conv sums, then the sums with the residual,
    are checked against (or saturated to) the `acc_bits` accumulator, each
    where its bound could pass it: an int residual's sums always are.
    """
    if getattr(layer, "flatten", False):
        x = x.flatten()
    if x.channels != layer.n_in:
        raise ShapeError(f"layer {layer.name}: input has {x.channels} channels, expected {layer.n_in}")
    if (len(weights) if np.ndim(weights) == 5 else 1) != layer.bases:
        raise ShapeError(f"layer {layer.name}: {np.shape(weights)} weights for {layer.bases} bases")
    sums = xnor_conv(x, weights, layer.k, layer.stride, layer.padding, cols)
    # Popcount partial sums are non-negative, so the accumulator only grows
    # over the blocks: one check (or clip) of the total equals one after
    # every block.  The sums lie in [0, taps] and a +/-1 residual moves them
    # by one: where that fits the accumulator no check can fire, so none runs.
    taps, acc_max = layer.bases * layer.k * layer.k * x.channels, (1 << (acc_bits - 1)) - 1
    if taps > acc_max:
        sums.check_range(acc_bits, acc_mode, f"layer {layer.name}: partial sum")
    if residual is not None:
        lo, hi = cols or (0, sums.width)
        ow = conv_out_hw(x.height, x.width, layer.k, layer.stride, layer.padding != "none")[1]
        dims = (residual.channels, residual.height, residual.width)
        if dims != (sums.channels, sums.height, ow):
            raise ShapeError(f"layer {layer.name}: residual dims {dims} != conv output "
                             f"{(sums.channels, sums.height, ow)}")
        if isinstance(residual, IntTensor):
            sums.values += residual.values[:, :, lo:hi]
        else:  # channels-last +/-1 lanes into the sums' pixel-major base
            base = sums.values.transpose(1, 2, 0)
            base += _bipolar_lanes(residual.words[:, :, lo:hi].transpose(1, 2, 0), sums.channels)
        if isinstance(residual, IntTensor) or taps + 1 > acc_max:
            sums.check_range(acc_bits, acc_mode, f"layer {layer.name}: residual add")
    th = layer.thresholds
    if th is None:
        raise ShapeError(f"layer {layer.name} has no thresholds attached")
    if layer.pool == "max":
        bits = binary_maxpool(sums, th)
    elif layer.pool == "avg":
        bits = avg_pool_threshold(sums, th)
    else:
        bits = threshold_binarize(sums, th)
    return LayerResult(sums, bits)


def run_network_reference(net, x: BinaryTensor, weights: dict) -> dict:
    """Golden model: compose layer_forward over the network's binary layers.

    Returns {layer name: LayerResult}; the last entry is the network
    output.  External layers are not simulated; `x` is the input to the
    first binary layer.
    """
    results: dict[str, LayerResult] = {}
    current = x
    for layer in net.binary_layers():
        feed = current if layer.input_layer is None else results[layer.input_layer].bits
        src = layer.residual
        if src is None:
            residual = None
        elif layer.residual_mode == "int":
            residual = results[src].sums
        else:  # a binary residual from the last prefix external layer is `x`
            residual = results[src].bits if src in results else x
        res = layer_forward(feed, layer, weights[layer.name], residual, net.acc_bits, net.acc_mode)
        results[layer.name] = res
        current = res.bits
    return results
