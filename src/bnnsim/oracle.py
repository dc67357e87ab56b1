"""Independent brute-force reference in the bipolar (+/-1) domain.

This path shares no convolution or pooling code with the packed-word
implementation: tensors are unpacked via numpy bit twiddling, the
correlation is a sum over the k*k taps of float32 matrix products
(n_out x n_in) @ (n_in x oh*ow) on the +/-1 values, and pooling reduces
integer sums directly.  The products are exact integers while
k*k*n_in < 2**24.  It exists to cross-check both the functional model and
the cycle simulator.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensors import LANES, BinaryTensor


def unpack_bipolar(t: BinaryTensor) -> np.ndarray:
    """(C, H, W) int8 array of +/-1 values, unpacked via np.unpackbits."""
    g, h, w = t.words.shape
    bytes_ = t.words.reshape(g, h, w, 1).view(np.uint8)  # little-endian pairs
    bits = np.unpackbits(bytes_, axis=3, bitorder="little")  # (g, h, w, 16)
    lanes = np.moveaxis(bits, 3, 1).reshape(g * LANES, h, w)[: t.channels]
    return _to_bipolar(lanes)


def unpack_weights_bipolar(packed: np.ndarray, n_in: int) -> np.ndarray:
    """Packed (n_out, k, k, groups) words -> (n_out, n_in, k, k) of +/-1,
    a view of (k, k, n_out, n_in) data, so each tap is one contiguous block."""
    packed = np.asarray(packed, dtype=np.uint16)
    n_out, k, _, g = packed.shape
    bytes_ = packed.transpose(1, 2, 0, 3).reshape(k, k, n_out, g, 1).view(np.uint8)
    bits = np.unpackbits(bytes_, axis=4, bitorder="little")  # (k,k,n_out,g,16)
    lanes = _to_bipolar(bits.reshape(k, k, n_out, g * LANES))[:, :, :, :n_in]
    return lanes.transpose(2, 3, 0, 1)


def _to_bipolar(bits: np.ndarray) -> np.ndarray:
    """0/1 uint8 bits -> int8 -1/+1, in place."""
    out = bits.view(np.int8)
    out *= 2
    out -= 1
    return out


def bipolar_conv(
    x: np.ndarray, w: np.ndarray, stride: int = 1, padding: str = "same0"
) -> np.ndarray:
    """Plain integer correlation of +/-1 arrays, padding with the pad bit's
    bipolar value.  Returns int32 (n_out, oh, ow)."""
    n_out, n_in, k, _ = w.shape
    if x.shape[0] != n_in:
        raise ShapeError(f"input has {x.shape[0]} channels, weights expect {n_in}")
    if k * k * n_in >= 1 << 24:  # past this, float32 sums stop being exact
        raise ShapeError(f"{k}x{k}x{n_in} taps exceed the exact float32 range")
    if padding != "none":
        p = (k - 1) // 2
        fill = 1 if padding == "same1" else -1
        x = np.pad(x, ((0, 0), (p, p), (p, p)), constant_values=fill)
    oh = (x.shape[1] - k) // stride + 1
    ow = (x.shape[2] - k) // stride + 1
    # one buffer each for the tap copy, the tap weights and the product
    tap = np.empty((n_in, oh, ow), dtype=np.float32)
    w_tap = np.empty((n_out, n_in), dtype=np.float32)
    prod = np.empty((n_out, oh * ow), dtype=np.float32)
    acc = np.zeros((n_out, oh * ow), dtype=np.float32)
    w_taps = w.transpose(2, 3, 0, 1)  # (k, k, n_out, n_in)
    for u in range(k):
        for v in range(k):
            np.copyto(tap, x[:, u::stride, v::stride][:, :oh, :ow])
            np.copyto(w_tap, w_taps[u, v])
            acc += np.matmul(w_tap, tap.reshape(n_in, oh * ow), out=prod)
    sums = prod.view(np.int32)  # the product's buffer takes the int32 result
    np.copyto(sums, acc, casting="unsafe")
    return sums.reshape(n_out, oh, ow)


def to_binary_sum(s_bip: np.ndarray, taps: int) -> np.ndarray:
    """Invert the bipolar rewrite S_bip = 2*S_hat - taps, in place."""
    s_bip += taps
    if np.any(s_bip & 1):
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
    ge = values >= t[:, None, None]
    return np.where(flip[:, None, None], ~ge, ge).astype(np.uint8)


def run_bipolar_reference(net, x: BinaryTensor, weights: dict) -> dict:
    """Brute-force forward pass; returns {name: (sums int32 CxHxW, bits CxHxW)}."""
    results: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    x_bip = unpack_bipolar(x)

    def bipolar_map(name: str) -> np.ndarray:
        """+/-1 output map of a layer; the input map for the external prefix."""
        return _to_bipolar(results[name][1].copy()) if name in results else x_bip

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
        # a whole layer's unpacked weights (2.4 MB at 512x512x3x3) set a frame's peak memory
        blk = max(1, (1 << 19) // (layer.k * layer.k * layer.n_in))
        for b in range(layer.bases):
            part = to_binary_sum(np.concatenate([
                bipolar_conv(feed, unpack_weights_bipolar(w_all[b][o:o + blk], layer.n_in),
                             layer.stride, layer.padding)
                for o in range(0, layer.n_out, blk)]), taps)
            sums = part if sums is None else sums + part
        # the accumulator width applies to the conv sum, then to the residual add
        sums = _accumulate(sums, net)
        if layer.residual is not None:
            if layer.residual_mode == "int":
                sums = _accumulate(sums + results[layer.residual][0], net)
            else:
                sums = _accumulate(sums + bipolar_map(layer.residual), net)

        th = layer.thresholds
        if layer.pool == "max":
            # real-domain max: plain max on sums for normal channels, min on
            # flipped channels (their real value decreases with the sum)
            v = sums[:, : 2 * (sums.shape[1] // 2), : 2 * (sums.shape[2] // 2)]
            quads = np.stack(
                [v[:, 0::2, 0::2], v[:, 0::2, 1::2], v[:, 1::2, 0::2], v[:, 1::2, 1::2]]
            )
            agg = np.where(th.flip[:, None, None], quads.min(0), quads.max(0))
            bits = _compare(agg, th.t, th.flip)
        elif layer.pool == "avg":
            v = sums[:, : 2 * (sums.shape[1] // 2), : 2 * (sums.shape[2] // 2)].astype(np.int64)
            s4 = v[:, 0::2, 0::2] + v[:, 0::2, 1::2] + v[:, 1::2, 0::2] + v[:, 1::2, 1::2]
            bits = _compare(s4, th.t_pool, th.flip)
        else:
            bits = _compare(sums, th.t, th.flip)
        results[layer.name] = (sums, bits)
        current = bipolar_map(layer.name)
    return results
