"""Independent brute-force reference in the bipolar (+/-1) domain.

This path shares no packed-word, convolution or pooling code with the
simulator and the golden model.  Its own np.unpackbits unpacks tensors into
+/-1 maps kept channels-last: each is a (C, H, W) view of (H, W, C) memory.
The correlation is an im2col GEMM per chunk of output rows: the k x k
windows of the padded map copy into a float32 (rows*ow) x (k*k*n_in) column
matrix, which multiplies each block of output channels' float32 (k, k, n_in)
weight rows, transposed (or, where the weights take several blocks, the
columns copy transposed and the rows multiply them), into pixel-major int32
sums.  Every base is correlated and mapped back to a binary-domain sum on
its own.  Pooling reduces integer sums directly.  The products are exact
integers while k*k*n_in < 2**24.  It cross-checks the golden model and the
simulator.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensors import LANES, BinaryTensor

# float32 entries (1 MB each) in bipolar_conv's weight block and column matrix;
# a 2 MB weight block put a checked resnet18 frame's peak RSS 1.7 MB higher
_WEIGHT_CAP = 1 << 18
_COLUMN_CAP = 1 << 18


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
    at a time.  The map pads channels-last, and for each chunk of output rows
    a window view of it copies once into a float32 column matrix, which takes
    one GEMM against each block of output channels' float32 (k, k, n_in)
    rows.  Blocks convert again for each chunk, unless one block holds every
    channel.
    """
    n_out, n_in, k, _ = w.shape
    if x.shape[0] != n_in:
        raise ShapeError(f"input has {x.shape[0]} channels, weights expect {n_in}")
    kk = k * k * n_in
    if kk >= 1 << 24:  # past this, float32 sums stop being exact
        raise ShapeError(f"{k}x{k}x{n_in} taps exceed the exact float32 range")
    x = x.transpose(1, 2, 0)  # channels-last
    if padding != "none":
        p, (h, wd) = (k - 1) // 2, x.shape[:2]
        xp = np.full((h + 2 * p, wd + 2 * p, n_in), 1 if padding == "same1" else -1, x.dtype)
        xp[p:p + h, p:p + wd] = x
        x = xp
    oh = (x.shape[0] - k) // stride + 1
    ow = (x.shape[1] - k) // stride + 1
    sy, sx, sc = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (oh, ow, k, k, n_in), (stride * sy, stride * sx, sy, sx, sc), writeable=False)
    m = _even_split(n_out, _WEIGHT_CAP // kk)
    rows = _even_split(oh, _COLUMN_CAP // (kk * ow))
    w_buf = np.empty(m * kk, dtype=np.float32)
    cols = np.empty(rows * ow * kk, dtype=np.float32)
    sums = np.empty((oh, ow, n_out), dtype=np.int32)
    flat = sums.reshape(oh * ow, n_out)
    # Where the weights take several blocks, the columns copy transposed, (k*k*n_in) x
    # (rows*ow), for each block's rows to multiply: that GEMM ran 10-20% faster on AlexNet
    # and ResNet stage 3-4 shapes; with one block (sed, ResNet stages 1-2, random nets)
    # the transposing copy cost more than the GEMM saved
    tall = m < n_out
    for y0 in range(0, oh, rows):
        src = win[y0:y0 + rows].transpose(2, 3, 4, 0, 1) if tall else win[y0:y0 + rows]
        a = cols[:src.size].reshape(src.shape)
        np.copyto(a, src)
        a = a.reshape(kk, -1) if tall else a.reshape(-1, kk)
        for o0 in range(0, n_out, m):
            if y0 == 0 or m < n_out:
                w_blk = w[o0:o0 + m].transpose(0, 2, 3, 1)  # contiguous when unpacked from words
                w_f = w_buf[:w_blk.size].reshape(w_blk.shape)
                np.copyto(w_f, w_blk)
                w_f = w_f.reshape(len(w_f), kk)
                del w_blk  # free an unpacked block before the next one unpacks
            out = flat[y0 * ow:(y0 + rows) * ow, o0:o0 + len(w_f)]  # this chunk's pixels
            if tall:
                np.copyto(out, (w_f @ a).T, casting="unsafe")
            else:
                np.matmul(a, w_f.T, out=out, casting="unsafe")
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
