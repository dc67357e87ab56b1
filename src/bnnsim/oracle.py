"""Independent brute-force reference in the bipolar (+/-1) domain.

This path shares no packed-word, convolution or pooling code with the
simulator and the golden model.  Its own np.unpackbits unpacks tensors into
+/-1 maps kept channels-last: each is a (C, H, W) view of (H, W, C) memory.
The correlation lowers each input row once (row windows, after MEC: Cho &
Brand, ICML 2017) and runs one float32 GEMM per kernel row into pixel-major
int32 sums (`bipolar_conv`).  Every base is correlated and mapped back to
a binary-domain sum on its own.  Pooling reduces integer sums directly.  The
products are exact integers while k*k*n_in < 2**24.  It cross-checks the
golden model and the simulator.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensors import LANES, BinaryTensor

# float32 entries (1 MB each) in bipolar_conv's weight block, and in its window
# buffer and each of its product buffers; a 2 MB weight block put a checked
# resnet18 frame's peak RSS 1.7 MB higher
_WEIGHT_CAP = 1 << 18
_WINDOW_CAP = 1 << 18


def unpack_bipolar(t: BinaryTensor) -> np.ndarray:
    """(C, H, W) int8 array of +/-1 values, a view of channels-last
    (H, W, lanes) memory, unpacked via np.unpackbits."""
    g, h, w = t.words.shape
    bits = _unpack_words(t.words.transpose(1, 2, 0))  # (h, w, g, 16)
    lanes = _to_bipolar(bits.reshape(h, w, g * LANES))
    return lanes[..., : t.channels].transpose(2, 0, 1)


def unpack_weights_bipolar(packed: np.ndarray, n_in: int) -> np.ndarray:
    """Packed (n_out, k, k, groups) words -> (n_out, n_in, k, k) of +/-1,
    a view of (n_out, k, k, n_in) data, so each output channel's weights are
    one contiguous (k, k, n_in) row."""
    n_out, k, _, g = np.shape(packed)
    lanes = _to_bipolar(_unpack_words(packed).reshape(n_out, k, k, g * LANES))
    return lanes[..., :n_in].transpose(0, 3, 1, 2)


def _unpack_words(words: np.ndarray) -> np.ndarray:
    """uint16 words -> their 16 bits as 0/1 uint8 along a new last axis."""
    bytes_ = np.ascontiguousarray(words, dtype="<u2").view(np.uint8)
    bits = np.unpackbits(bytes_, bitorder="little")  # flat: 8x faster than along an axis
    return bits.reshape(*np.shape(words), LANES)


def _to_bipolar(bits: np.ndarray) -> np.ndarray:
    """0/1 uint8 bits -> int8 -1/+1, in place."""
    out = bits.view(np.int8)
    out *= 2
    out -= 1
    return out


class PackedWeights:
    """Packed (n_out, k, k, groups) words read as (n_out, n_in, k, k) +/-1
    weights: a slice of output channels unpacks only those channels."""

    def __init__(self, packed: np.ndarray, n_in: int):
        self.packed = np.asarray(packed, dtype=np.uint16)
        n_out, k = self.packed.shape[:2]
        self.shape = (n_out, n_in, k, k)

    def __getitem__(self, channels: slice) -> np.ndarray:
        return unpack_weights_bipolar(self.packed[channels], self.shape[1])


def bipolar_conv(
    x: np.ndarray, w: np.ndarray | PackedWeights, stride: int = 1, padding: str = "same0"
) -> np.ndarray:
    """Plain integer correlation of +/-1 arrays, padding with the pad bit's
    bipolar value.  Returns int32 (n_out, oh, ow), a view of (oh, ow, n_out).

    `x` is (n_in, h, w) in any memory order; `w` is (n_out, n_in, k, k) +/-1:
    an array, or `PackedWeights`, which unpacks one block of output channels
    at a time.  At stride 1 each chunk of output rows copies the input rows
    it reads, padded channels-last, once into a float32 buffer (input rows,
    ow, k*n_in) of their k-tap windows, and kernel row u runs one GEMM per
    block of output channels over a view of rows u, u + 1, ... of it.  At
    stride > 1 kernel row u copies only rows u, u + stride, ... of the windows
    straight from the padded map, per block.  The kernel rows' products add
    in float32.
    A block holds the most channels whose kernel-row weights fit _WEIGHT_CAP
    and converts for each chunk and kernel row, unless all of the layer's
    weights fit: then they convert once.  A chunk with fewer pixels than its
    block has channels multiplies weights by windows.
    """
    n_out, n_in, k, _ = w.shape
    if x.shape[0] != n_in:
        raise ShapeError(f"input has {x.shape[0]} channels, weights expect {n_in}")
    row = k * n_in  # taps of a kernel row
    if k * row >= 1 << 24:  # past this, float32 sums stop being exact
        raise ShapeError(f"{k}x{k}x{n_in} taps exceed the exact float32 range")
    p, (h, wd) = (k - 1) // 2 if padding != "none" else 0, x.shape[1:]
    xp = np.full((h + 2 * p, wd + 2 * p, n_in), 1 if padding == "same1" else -1, x.dtype)
    xp[p:p + h, p:p + wd] = x.transpose(1, 2, 0)  # channels-last
    oh = (h + 2 * p - k) // stride + 1
    ow = (wd + 2 * p - k) // stride + 1
    whole = n_out * k * row <= _WEIGHT_CAP
    m = n_out if whole else _even_split(n_out, _WEIGHT_CAP // row)
    rows = _even_split(oh, min((_WINDOW_CAP // (ow * row) - k) // stride + 1,
                               _WINDOW_CAP // (ow * m)))
    w_buf = np.empty((k if whole else 1) * m * row, dtype=np.float32)
    if whole:  # every kernel row's weights, converted once
        np.copyto(w_buf.reshape(k, m, k, n_in), w[:].transpose(2, 0, 3, 1))
    # at stride 1 a chunk's input rows' windows, which each kernel row views;
    # at stride > 1 one kernel row's every-stride rows, copied from the map
    windows = np.empty((rows - 1 + k if stride == 1 else rows, ow, k, n_in), dtype=np.float32)
    win_taps = windows.reshape(-1, row)  # a window's kernel-row taps a row
    acc, part = np.empty((2, rows * ow * m if k > 1 else 0), dtype=np.float32)
    sums = np.empty((oh, ow, n_out), dtype=np.int32)
    flat = sums.reshape(oh * ow, n_out)
    sy, sx, sc = xp.strides
    for y0 in range(0, oh, rows):
        n = min(rows, oh - y0)  # output rows of this chunk
        if stride == 1:
            shape = (n - 1 + k, ow, k, n_in)
            np.copyto(windows[:shape[0]], np.ndarray(shape, xp.dtype, xp, y0 * sy, (sy, sx, sx, sc)))
        for o0 in range(0, n_out, m):
            # kernel row first; each (channel, k, n_in) row contiguous once unpacked
            w_blk = w_buf.reshape(k, m, row) if whole else w[o0:o0 + m].transpose(2, 0, 3, 1)
            c = w_blk.shape[1]  # channels of the block
            first = n * ow < c  # fewer pixels than channels: weights first
            dst = flat[y0 * ow:(y0 + n) * ow, o0:o0 + c]  # this chunk's pixels
            dst = dst.T if first else dst
            if k == 1:  # one kernel row: its GEMM writes the sums
                sum_u = dst
            else:
                sum_u, prod = (b[:dst.size].reshape(dst.shape) for b in (acc, part))
            for u in range(k):
                if stride == 1:
                    a = win_taps[u * ow:(u + n) * ow]
                else:
                    np.copyto(windows[:n], np.ndarray((n, ow, k, n_in), xp.dtype, xp,
                                                      (stride * y0 + u) * sy,
                                                      (stride * sy, stride * sx, sx, sc)))
                    a = win_taps[:n * ow]
                w_u = w_blk[u] if whole else w_buf[:c * row].reshape(c, row)
                if not whole:
                    np.copyto(w_u.reshape(c, k, n_in), w_blk[u])
                np.matmul(*((w_u, a.T) if first else (a, w_u.T)),
                          out=prod if u else sum_u, casting="unsafe")
                if u:
                    sum_u += prod
            if k > 1:  # one cast: a float32 add with an int32 output ran slower
                dst[...] = sum_u
            del w_blk  # free an unpacked block before the next one unpacks
    return sums.transpose(2, 0, 1)


def _even_split(n: int, cap: int) -> int:
    """Size of the fewest equal parts, each at most `cap` (at least 1), that cover n."""
    parts = -(-n // max(1, cap))
    return -(-n // parts)


def to_binary_sum(s_bip: np.ndarray, taps: int) -> np.ndarray:
    """Invert the bipolar rewrite S_bip = 2*S_hat - taps, in place."""
    s_bip += taps
    if np.bitwise_or.reduce(s_bip, axis=None) & 1:  # some sum is odd
        raise ShapeError("bipolar sum parity broken; taps count is wrong")
    s_bip >>= 1
    return s_bip


def _accumulate(sums: np.ndarray, net) -> np.ndarray:
    """Apply the accumulator width: saturate, or raise on overflow."""
    hi = 1 << (net.acc_bits - 1)
    if net.acc_mode == "saturate":
        return np.clip(sums, -hi, hi - 1)
    if sums.min() < -hi or sums.max() > hi - 1:
        raise OverflowError("accumulator overflow in bipolar reference")
    return sums


def _compare(values: np.ndarray, t: np.ndarray, flip: np.ndarray) -> np.ndarray:
    bits = values >= t[:, None, None]
    bits ^= flip[:, None, None]
    return bits.view(np.uint8)


def _pooled_bits(sums: np.ndarray, pool: str, th) -> np.ndarray:
    """Output bits of a layer's sums; the pooling temporaries die on return."""
    if pool == "none":
        return _compare(sums, th.t, th.flip)
    v = sums[:, : 2 * (sums.shape[1] // 2), : 2 * (sums.shape[2] // 2)]
    a, b, c, d = v[:, 0::2, 0::2], v[:, 0::2, 1::2], v[:, 1::2, 0::2], v[:, 1::2, 1::2]
    if pool == "avg":
        return _compare(a.astype(np.int64) + b + c + d, th.t_pool, th.flip)
    # real-domain max: plain max on sums for normal channels, min on
    # flipped channels (their real value decreases with the sum)
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
    hi = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return _compare(np.where(th.flip[:, None, None], lo, hi), th.t, th.flip)


def run_bipolar_reference(net, x: BinaryTensor, weights: dict) -> dict:
    """Brute-force forward pass; returns {name: (sums int32 CxHxW, bits CxHxW)}."""
    results: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    x_bip = unpack_bipolar(x)

    def bipolar_map(name: str) -> np.ndarray:
        """+/-1 output map of a layer; the input map for the external prefix."""
        return _to_bipolar(results[name][1].copy(order="K")) if name in results else x_bip

    current = x_bip
    for layer in net.binary_layers():
        feed = current if layer.input_layer is None else bipolar_map(layer.input_layer)
        if layer.flatten:
            c, h, w = feed.shape
            feed = np.transpose(feed, (1, 2, 0)).reshape(c * h * w, 1, 1)
        taps = layer.k * layer.k * layer.n_in
        sums = None
        w_all = np.asarray(weights[layer.name], dtype=np.uint16)
        if w_all.ndim == 4:
            w_all = w_all[None]
        for b in range(layer.bases):
            w_bip = PackedWeights(w_all[b], layer.n_in)
            part = to_binary_sum(bipolar_conv(feed, w_bip, layer.stride, layer.padding), taps)
            sums = part if sums is None else sums + part
        # the accumulator width applies to the conv sum, then to the residual add
        sums = _accumulate(sums, net)
        if layer.residual is not None:
            if layer.residual_mode == "int":
                sums = _accumulate(sums + results[layer.residual][0], net)
            else:
                sums = _accumulate(sums + bipolar_map(layer.residual), net)

        results[layer.name] = (sums, _pooled_bits(sums, layer.pool, layer.thresholds))
        current = bipolar_map(layer.name)
    return results
