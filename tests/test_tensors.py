"""Packing, unpacking, and invariants of the bit-packed tensors."""

import numpy as np
import pytest

from bnnsim.errors import AccumulatorOverflow, ShapeError
from bnnsim.tensors import (
    LANES,
    BinaryTensor,
    IntTensor,
    binarize_pack,
    lane_mask,
)


def test_binarize_single_negative():
    # a lone -1 maps to bit 0
    t = binarize_pack(np.array([[[-1.0]]]))
    assert t.words[0, 0, 0] == 0


def test_binarize_two_channel_word():
    # [+1, -1] across channels -> bits [1, 0] in one word, upper bits clear
    t = binarize_pack(np.array([[[1.0]], [[-1.0]]]))
    assert t.words.shape == (1, 1, 1)
    assert t.words[0, 0, 0] == 0b01


def test_binarize_17_channels():
    # all +1 over 17 channels -> 0xFFFF then 0x0001
    t = binarize_pack(np.ones((17, 1, 1)))
    assert t.words[0, 0, 0] == 0xFFFF
    assert t.words[1, 0, 0] == 0x0001


def test_word_count_invariant():
    rng = np.random.default_rng(1)
    for c, h, w in [(1, 2, 3), (16, 4, 4), (17, 3, 5), (48, 2, 2)]:
        bits = rng.integers(0, 2, size=(c, h, w)).astype(np.uint8)
        t = BinaryTensor.from_bits(bits)
        assert t.words.size == -(-c // LANES) * h * w


def test_trailing_bits_zero():
    rng = np.random.default_rng(2)
    for c in [1, 5, 15, 17, 31, 33]:
        bits = rng.integers(0, 2, size=(c, 3, 3)).astype(np.uint8)
        t = BinaryTensor.from_bits(bits)
        mask = lane_mask(c, t.words.shape[0] - 1)
        assert np.all((t.words[-1] & ~np.uint16(mask)) == 0)


def test_masking_leaves_callers_words_alone():
    w = np.full((2, 1, 1), 0xFFFF, dtype=np.uint16)
    t = BinaryTensor(17, 1, 1, w)
    assert w[1, 0, 0] == 0xFFFF and t.words[1, 0, 0] == 1
    # words with clean trailing lanes are kept, not copied
    clean = np.array([[[0xFFFF]], [[1]]], dtype=np.uint16)
    assert BinaryTensor(17, 1, 1, clean).words is clean


def test_pack_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = int(rng.integers(1, 70))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        bip = rng.choice([-1, 1], size=(c, h, w)).astype(np.int8)
        t = binarize_pack(bip)
        assert np.array_equal(t.to_bits(), bip > 0)


def test_pack_unpack_match_per_bit_loops():
    # word g holds channel 16*g + i in bit i; only the low bit of a value counts
    rng = np.random.default_rng(5)
    for c, h, w in [(1, 1, 1), (17, 3, 5), (64, 2, 7), (100, 4, 1)]:
        vals = rng.integers(0, 4, size=(c, h, w))
        want = np.zeros((-(-c // LANES), h, w), dtype=np.uint16)
        for ch in range(c):
            want[ch // LANES] |= ((vals[ch] & 1) << (ch % LANES)).astype(np.uint16)
        t = BinaryTensor.from_bits(vals)
        assert np.array_equal(t.words, want)
        bits = t.to_bits()
        assert bits.dtype == np.uint8 and bits.shape == (c, h, w)
        for ch in range(c):
            assert np.array_equal(bits[ch], (want[ch // LANES] >> (ch % LANES)) & 1)


def test_sign_zero_maps_to_minus_one():
    # storage mapping: bit = 1 iff value > 0, so 0.0 packs as -1
    t = binarize_pack(np.zeros((1, 1, 1)))
    assert t.words[0, 0, 0] == 0


def test_binarize_rejects_nan():
    with pytest.raises(ValueError):
        binarize_pack(np.array([[[np.nan]]]))


def test_flatten_word_permutation():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, size=(32, 3, 2)).astype(np.uint8)
    t = BinaryTensor.from_bits(bits)
    f = t.flatten()
    assert (f.channels, f.height, f.width) == (32 * 6, 1, 1)
    # channel c' = (y*W + x)*C + c
    expect = np.transpose(bits, (1, 2, 0)).reshape(-1, 1, 1)
    assert np.array_equal(f.to_bits(), expect)
    assert sorted(f.words.reshape(-1).tolist()) == sorted(t.words.reshape(-1).tolist())


def test_flatten_requires_aligned_channels():
    t = BinaryTensor(17, 2, 2)
    with pytest.raises(ShapeError):
        t.flatten()


def test_int_tensor_checked_overflow():
    t = IntTensor(1, 1, 1, np.array([[[40000]]], dtype=np.int32))
    with pytest.raises(AccumulatorOverflow):
        t.check_range(16, "error")
    t.check_range(16, "saturate")
    assert t.values[0, 0, 0] == 32767


def test_empty_tensor_rejected():
    with pytest.raises(ShapeError):
        BinaryTensor(0, 1, 1)
    with pytest.raises(ShapeError):
        IntTensor(1, 0, 1)
