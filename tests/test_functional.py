"""Layer math: xnor convolution, threshold folding, pooling, residuals.

Expected values for the derived cases are computed by independent
means in-line: exhaustive real-arithmetic sweeps for thresholds,
bipolar brute-force correlation for convolutions, and integer
max/average pooling for the boolean reductions.
"""

import tracemalloc

import numpy as np
import pytest

from bnnsim import functional
from bnnsim.errors import AccumulatorOverflow, DegenerateChannel, ShapeError
from bnnsim.functional import (
    BatchNorm,
    ThresholdVector,
    avg_pool_threshold,
    binary_maxpool,
    conv_out_hw,
    derive_threshold,
    fold_thresholds,
    layer_forward,
    real_sign_bit,
    threshold_binarize,
    xnor_conv,
)
from bnnsim.network import LayerConfig
from bnnsim.oracle import bipolar_conv, unpack_bipolar, unpack_weights_bipolar
from bnnsim.tensors import BinaryTensor, IntTensor, binarize_pack, lane_mask, n_groups

from helpers import constant_thresholds


def pack_weights(bip):
    """(n_out, n_in, k, k) bipolar -> packed (n_out, k, k, groups)."""
    bip = np.asarray(bip)
    n_out, n_in, k, _ = bip.shape
    packed = []
    for o in range(n_out):
        t = binarize_pack(np.moveaxis(bip[o], 0, 2).reshape(k, k, n_in).transpose(2, 0, 1))
        # t.words is (g, k, k); want (k, k, g)
        packed.append(np.transpose(t.words, (1, 2, 0)))
    return np.stack(packed)


# ---------------------------------------------------------------------------
# xnor_conv
# ---------------------------------------------------------------------------

def test_conv_all_match():
    x = binarize_pack(np.ones((1, 3, 3)))
    w = pack_weights(np.ones((1, 1, 3, 3)))
    out = xnor_conv(x, w, k=3, padding="none")
    assert out.values.shape == (1, 1, 1)
    assert out.values[0, 0, 0] == 9


def test_conv_no_match():
    x = binarize_pack(np.ones((1, 3, 3)))
    w = pack_weights(-np.ones((1, 1, 3, 3)))
    out = xnor_conv(x, w, k=3, padding="none")
    assert out.values[0, 0, 0] == 0


@pytest.mark.parametrize("padding", ["none", "same0", "same1"])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_conv_matches_bipolar_bruteforce(k, padding):
    rng = np.random.default_rng(100 + k)
    n_in, n_out, h, w = 16, 4, 8, 8
    x_bip = rng.choice([-1, 1], size=(n_in, h, w)).astype(np.int8)
    w_bip = rng.choice([-1, 1], size=(n_out, n_in, k, k)).astype(np.int8)
    x = binarize_pack(x_bip)
    packed = pack_weights(w_bip)
    got = xnor_conv(x, packed, k=k, padding=padding)
    s_bip = bipolar_conv(x_bip, w_bip, padding=padding)
    taps = k * k * n_in
    # binary-domain rewrite: S_bip = 2*S_hat - taps
    assert np.array_equal(2 * got.values - taps, s_bip)


def test_conv_odd_channel_masking():
    # 20 channels: the 12 unused lanes of the second group must not count
    rng = np.random.default_rng(7)
    x_bip = rng.choice([-1, 1], size=(20, 5, 5)).astype(np.int8)
    w_bip = rng.choice([-1, 1], size=(3, 20, 3, 3)).astype(np.int8)
    got = xnor_conv(binarize_pack(x_bip), pack_weights(w_bip), k=3)
    s_bip = bipolar_conv(x_bip, w_bip)
    assert np.array_equal(2 * got.values - 9 * 20, s_bip)


def test_conv_stride2():
    rng = np.random.default_rng(8)
    x_bip = rng.choice([-1, 1], size=(16, 9, 9)).astype(np.int8)
    w_bip = rng.choice([-1, 1], size=(2, 16, 3, 3)).astype(np.int8)
    got = xnor_conv(binarize_pack(x_bip), pack_weights(w_bip), k=3, stride=2)
    s_bip = bipolar_conv(x_bip, w_bip, stride=2)
    assert got.values.shape == (2, 5, 5)
    assert np.array_equal(2 * got.values - 9 * 16, s_bip)


def test_conv_dimension_mismatch():
    x = binarize_pack(np.ones((16, 4, 4)))
    w = np.zeros((2, 3, 3, 2), dtype=np.uint16)  # wrong group count
    with pytest.raises(ShapeError):
        xnor_conv(x, w, k=3)


def per_bit_conv(x, weights, k, stride, padding):
    """The definition, word by word: count the matching valid lanes of every
    (tap, group) pair; pad words are all-zero (same0) or all-one (same1)."""
    g = n_groups(x.channels)
    masks = [lane_mask(x.channels, i) for i in range(g)]
    p = (k - 1) // 2 if padding != "none" else 0
    pad = masks if padding == "same1" else [0] * g
    oh = (x.height + 2 * p - k) // stride + 1
    ow = (x.width + 2 * p - k) // stride + 1
    out = np.zeros((len(weights), oh, ow), dtype=np.int64)
    for o, w in enumerate(weights.tolist()):
        for oy in range(oh):
            for ox in range(ow):
                total = 0
                for u in range(k):
                    y = oy * stride + u - p
                    for v in range(k):
                        xx = ox * stride + v - p
                        inside = 0 <= y < x.height and 0 <= xx < x.width
                        for i in range(g):
                            a = int(x.words[i, y, xx]) if inside else pad[i]
                            total += bin(~(a ^ w[u][v][i]) & masks[i]).count("1")
                out[o, oy, ox] = total
    return out


def random_operands(rng, n_in, h, w, n_out, k):
    """A packed map and packed weights; the weights' masked lanes hold junk."""
    g = n_groups(n_in)
    x = BinaryTensor(n_in, h, w, rng.integers(0, 1 << 16, size=(g, h, w), dtype=np.uint16))
    return x, rng.integers(0, 1 << 16, size=(n_out, k, k, g), dtype=np.uint16)


@pytest.mark.parametrize("padding", ["none", "same0", "same1"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_conv_matches_per_bit_count(k, stride, padding):
    rng = np.random.default_rng(1000 * k + 10 * stride + len(padding))
    for n_in in (1, 17, 37, 64):
        x, w = random_operands(rng, n_in, 9, 8, 3, k)
        got = xnor_conv(x, w, k, stride, padding)
        assert np.array_equal(got.values, per_bit_conv(x, w, k, stride, padding)), n_in


def test_conv_matches_per_bit_count_flattened():
    rng = np.random.default_rng(11)
    flat = random_operands(rng, 32, 3, 2, 5, 1)[0].flatten()
    w = rng.integers(0, 1 << 16, size=(5, 1, 1, n_groups(flat.channels)), dtype=np.uint16)
    got = xnor_conv(flat, w, 1, padding="none")
    assert got.values.shape == (5, 1, 1)
    assert np.array_equal(got.values, per_bit_conv(flat, w, 1, 1, "none"))


def test_conv_counts_xnor_bits_of_single_words():
    # 16 channels at 1x1 and k=1: the sum is the popcount of one xnor word
    def count(a, b):
        x = BinaryTensor(16, 1, 1, np.array([[[a]]], dtype=np.uint16))
        return int(xnor_conv(x, np.array([[[[b]]]], dtype=np.uint16), 1).values[0, 0, 0])

    assert count(0, 0xFFFF) == 0
    assert count(0x1234, 0x1234) == 16
    assert count(0xFFFF ^ 0b1011, 0) == 3
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 16, size=1000, dtype=np.uint16)
    b = rng.integers(0, 1 << 16, size=(4, 1, 1, 1), dtype=np.uint16)
    got = xnor_conv(BinaryTensor(16, 1, 1000, a[None, None]), b, 1).values[:, 0]
    want = [[bin(~(int(p) ^ int(q)) & 0xFFFF).count("1") for p in a] for q in b.ravel()]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k, n_in", [(1, 1 << 24), (7, -(-(1 << 24) // 49))])
def test_conv_rejects_inexact_tap_count(k, n_in):
    x = BinaryTensor(n_in, 1, 1)
    w = np.zeros((1, k, k, n_groups(n_in)), dtype=np.uint16)
    with pytest.raises(ShapeError, match="exact float32"):
        xnor_conv(x, w, k)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_conv_stride2_unequal_phases(k):
    # odd padded sizes give stride phases of unequal size, even ones equal
    rng = np.random.default_rng(40 + k)
    for h, w in [(k + 3, k + 4), (k + 4, k + 3), (k + 5, k + 5), (k + 6, k + 6)]:
        for padding in ("same0", "same1", "none"):
            x, wts = random_operands(rng, 19, h, w, 3, k)
            got = xnor_conv(x, wts, k, 2, padding)
            assert np.array_equal(got.values, per_bit_conv(x, wts, k, 2, padding)), (h, w, padding)


def test_conv_tall_map_spans_row_chunks():
    # 64 x 300 x 8 at k=3: the whole map's windows overflow the window buffer,
    # so the rows run in chunks of row windows.  An input row's windows are
    # 8 x 3 x 64 floats and a chunk reaches 2 rows past its own, so the buffer
    # holds 339 output rows and the pixel ceiling (128 rows) binds: the 300
    # rows run in three chunks, the last one short
    assert 300 * 8 * 9 * 64 > functional._BUFFER_CAP
    chunk = min(functional._BUFFER_CAP // (8 * 3 * 64) - 2, functional._MAX_PIXELS // 8)
    assert chunk < 300 and 300 % chunk != 0 and -(-300 // chunk) == 3
    rng = np.random.default_rng(12)
    x, w = random_operands(rng, 64, 300, 8, 4, 3)
    assert np.array_equal(xnor_conv(x, w, 3).values, per_bit_conv(x, w, 3, 1, "same0"))


def block_sizes(n, size):
    """Sizes of the blocks that split n into runs of `size`, the last short."""
    return [min(size, n - i) for i in range(0, n, size)]


def gemm(pixels, taps, columns):
    """Operand shapes of one GEMM: windows @ weights, or weights @ windows
    where the chunk has fewer pixels than the GEMM has weight columns."""
    if pixels < columns:
        return (columns, taps), (taps, pixels)
    return (pixels, taps), (taps, columns)


def gemm_columns(group_taps, channels):
    """Weight columns of a group's GEMMs: two output channels a column where
    the group's taps lie in the paired range, one otherwise."""
    return -(-channels // 2) if group_taps in functional._PAIR_TAPS else channels


def group_rows(cap, k, row, bases, n_out):
    """Kernel rows in a weight group: the most whose GEMM columns for all
    output channels fit `cap` floats of row taps each, at least one."""
    return max([1] + [g for g in range(1, k + 1)
                      if gemm_columns(bases * g * row, n_out) * g * row <= cap])


def conv_gemms(oh, ow, k, n_in, bases, rows, g, m, n_out):
    """(pixels, taps, columns) of each GEMM of the blocked kernel: for each
    block of m channels, group of g kernel rows and chunk of `rows` output
    rows, one GEMM per kernel row of the group, over its k * n_in taps."""
    return [(r * ow, k * n_in, gemm_columns(bases * gg * k * n_in, mm))
            for mm in block_sizes(n_out, m) for gg in block_sizes(k, g)
            for r in block_sizes(oh, rows) for _ in range(gg)]


def blockings(ow, k, stride, n_in, n_out, bases):
    """Settings of (window/product cap, weight cap, pixel ceiling) and the
    blocking each must take: (rows per chunk or None for all, kernel rows
    per weight group, output channels per block)."""
    big = 1 << 30
    row = k * n_in
    phases, reach = min(stride, k), (k - 1) // stride
    chunk2 = phases * (2 + reach) * ow * row  # row windows of a 2-row chunk
    pair_rows = gemm_columns(bases * 2 * row, n_out) * 2 * row  # two kernel rows' weights
    assert gemm_columns(bases * row, 2) == 2  # single kernel rows do not pair
    return {
        "row chunks": ((chunk2, big, big), (2, k, n_out)),
        "kernel-row groups": ((big, pair_rows, big),
                              (None, group_rows(pair_rows, k, row, bases, n_out), n_out)),
        "channel blocks": ((big, 2 * row, big), (None, 1, 2)),
        "chunks in blocks": ((chunk2, 2 * row, big), (2, 1, 2)),
        "pixel ceiling": ((big, big, ow), (1, k, n_out)),
        "pixel ceiling in groups": ((big, pair_rows, ow),
                                    (1, group_rows(pair_rows, k, row, bases, n_out), n_out)),
        "pixel ceiling in channel blocks": ((big, 10 * row, ow), (1, 1, 10)),
    }


@pytest.fixture
def gemms(monkeypatch):
    """The operand shapes of every np.matmul call the test makes."""
    shapes = []
    matmul = np.matmul

    def spy(a, b, **kw):
        shapes.append((a.shape, b.shape))
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", spy)
    return shapes


@pytest.mark.parametrize("k, stride, bases",
                         [(1, 1, 1), (3, 1, 2), (3, 2, 1), (5, 2, 3), (7, 1, 1), (7, 2, 2)])
def test_conv_small_cap_blocks_and_chunks(monkeypatch, gemms, k, stride, bases):
    # small caps force each blocking path in turn, on the whole map and on a
    # column stripe, each with a short last row chunk, kernel-row group and
    # channel block where it splits (13 rows and 13 channels in twos, 13
    # channels in a block of 10 and one of 3); the GEMM shapes show the path
    # is taken, and every path gives the per-word count.  Each kernel row
    # runs its own GEMM over the row windows: at stride 2 the rows come from
    # two phases, the second one row short where k is odd.  A group of 256
    # to 2047 taps (bases x kernel rows x k x 17) runs two channels a GEMM
    # column, the last alone where they are odd.  A chunk of fewer pixels
    # than its GEMM has weight columns multiplies weights by windows
    # (one-row chunks under the pixel ceiling, 9, 5 or fewer pixels, against
    # 13 or 10 unpaired channels), and every case runs both orders
    n_in, n_out, h, w = 17, 13, 13, 9
    rng = np.random.default_rng(10 * k + stride + bases)
    x, w1 = random_operands(rng, n_in, h, w, n_out * bases, k)
    wts = w1.reshape(bases, n_out, k, k, -1)
    want = sum(per_bit_conv(x, wts[b], k, stride, "same1") for b in range(bases))
    oh, ow = want.shape[1:]
    assert oh % 2 and n_out % 2 and k % 2
    weights_first = set()
    for lo, hi in [(0, ow), (1, ow - 1)]:
        for name, ((buf, wcap, ceiling), (rows, g, m)) in blockings(
                hi - lo, k, stride, n_in, n_out, bases).items():
            monkeypatch.setattr(functional, "_BUFFER_CAP", buf)
            monkeypatch.setattr(functional, "_WEIGHT_CAP", wcap)
            monkeypatch.setattr(functional, "_MAX_PIXELS", ceiling)
            gemms.clear()
            got = xnor_conv(x, wts, k, stride, "same1", (lo, hi)).values
            assert np.array_equal(got, want[:, :, lo:hi]), (name, lo, hi)
            sizes = conv_gemms(oh, hi - lo, k, n_in, bases, rows or oh, g, m, n_out)
            assert sorted(gemms) == sorted(gemm(*size) for size in sizes), (name, lo, hi)
            weights_first |= {pixels < columns for pixels, _, columns in sizes}
    assert weights_first == {False, True}  # both orders ran


@pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (5, 2), (7, 1), (7, 2)])
def test_conv_few_tap_rows_run_row_windows(monkeypatch, gemms, k, stride):
    # 3 input channels give kernel rows of 3k taps, under twice the 20 GEMM
    # columns: few taps a GEMM, yet each kernel row runs its own GEMM over
    # its row windows, and a group adds its rows' products in float32.
    # A weight cap of 2 kernel rows (3 at k = 7) gives groups of 2 + 1,
    # 2 + 2 + 1 and 3 + 3 + 1 rows: at stride 2 the kernel rows of a group
    # read input rows of both phases
    n_in, n_out, h, w, bases = 3, 20, 13, 9, 1
    rng = np.random.default_rng(100 + 10 * k + stride)
    x, w1 = random_operands(rng, n_in, h, w, n_out * bases, k)
    wts = w1.reshape(bases, n_out, k, k, -1)
    want = sum(per_bit_conv(x, wts[b], k, stride, "same0") for b in range(bases))
    oh, ow = want.shape[1:]
    g = 3 if k == 7 else 2
    assert 3 * k < 2 * n_out and bases * k * k * n_in < 256  # unpaired
    monkeypatch.setattr(functional, "_WEIGHT_CAP", n_out * g * k * n_in)
    monkeypatch.setattr(functional, "_MAX_PIXELS", 2 * ow)
    for lo, hi in [(0, ow), (1, ow)]:
        gemms.clear()
        assert np.array_equal(xnor_conv(x, wts, k, stride, "same0", (lo, hi)).values,
                              want[:, :, lo:hi]), (lo, hi)
        sizes = conv_gemms(oh, hi - lo, k, n_in, bases, 2, g, n_out, n_out)
        assert sorted(gemms) == sorted(gemm(*size) for size in sizes), (lo, hi)


@pytest.mark.parametrize("bases, n_in, stride, padding, cols, data", [
    (1, 2047, 1, "same1", None, "extreme"),  # T = 2047: paired, at the bound
    (1, 2047, 2, "same0", (1, 3), "random"),
    (3, 682, 1, "none", None, "random"),  # T = 2046: paired
    (3, 682, 2, "same1", (0, 2), "extreme"),
    (2, 1024, 1, "same1", None, "extreme"),  # T = 2048: unpaired
    (2, 1024, 2, "none", None, "random"),
])
def test_conv_pairs_channels_up_to_2047_taps(monkeypatch, gemms, bases, n_in, stride, padding,
                                             cols, data):
    # Caps that split a 1 x 1 conv of T = bases x n_in taps (its one kernel
    # row is its one group) into blocks of 4 and 3 channels where its
    # channels pair (2 GEMM columns each) and 2, 2, 2 and 1 where they do not,
    # and its output rows into chunks of 2: two channels share a GEMM column
    # where T <= 2047, and the decoded halves d + T of each column span
    # [0, 2T] on the "extreme" maps, whose windows all agree with one channel
    # of a pair and all disagree with the other.  At the shipped caps the
    # same operands run the one-GEMM path, unpaired.
    k, n_out, h, w = 1, 7, 5, 5
    g = n_groups(n_in)
    rng = np.random.default_rng(bases * n_in + stride)
    if data == "extreme":
        x = BinaryTensor(n_in, h, w, np.full((g, h, w), 0xFFFF, dtype=np.uint16))
        agree = np.array([1, 1, 0, 0, 1, 0, 0], dtype=bool)  # pairs (0, 2), (1, 3), (4, 6)
        wts = np.where(agree[None, :, None, None, None], 0xFFFF, 0).astype(np.uint16)
        wts = np.broadcast_to(wts, (bases, n_out, k, k, g))
    else:
        x, w1 = random_operands(rng, n_in, h, w, n_out * bases, k)
        wts = w1.reshape(bases, n_out, k, k, g)
    want = sum(per_bit_conv(x, wts[b], k, stride, padding) for b in range(bases))
    taps = bases * k * k * n_in
    if data == "extreme":
        assert {0, taps} <= set(np.unique(want))
    lo, hi = cols or (0, want.shape[2])
    want = want[:, :, lo:hi]
    oh, ow = want.shape[1:]
    gemms.clear()
    assert np.array_equal(xnor_conv(x, wts, k, stride, padding, cols).values, want)
    assert gemms == [gemm(oh * ow, k * k * n_in, n_out)]  # one GEMM at the shipped caps

    monkeypatch.setattr(functional, "_BUFFER_CAP", 1 << 30)
    monkeypatch.setattr(functional, "_WEIGHT_CAP", 2 * n_in)
    monkeypatch.setattr(functional, "_MAX_PIXELS", 2 * ow)
    gemms.clear()
    assert np.array_equal(xnor_conv(x, wts, k, stride, padding, cols).values, want)
    columns = [2, 2] if bases * n_in <= 2047 else [2, 2, 2, 1]
    assert sorted(gemms) == sorted(gemm(r * ow, n_in, c) for c in columns
                                   for r in block_sizes(oh, 2))


@pytest.mark.parametrize("bases", [1, 3])
def test_conv_one_block_one_chunk_runs_one_gemm(monkeypatch, bases):
    # at the shipped caps a 6 x 5 map, 20 channels of 3 x 3 x 17 taps, fits
    # one weight block and one row chunk: one GEMM, windows first on the
    # whole map (30 pixels against 20 channels), weights first on the
    # column range [1, 3) (12 pixels)
    n_in, n_out, h, w, k = 17, 20, 6, 5, 3
    rng = np.random.default_rng(20 + bases)
    x, w1 = random_operands(rng, n_in, h, w, n_out * bases, k)
    wts = w1.reshape(bases, n_out, k, k, -1)
    want = sum(per_bit_conv(x, wts[b], k, 1, "same1") for b in range(bases))
    gemms = []
    matmul = np.matmul

    def spy(a, b, **kw):
        gemms.append((a.shape, b.shape))
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", spy)
    taps = k * k * n_in
    for (lo, hi), shapes in [((0, w), ((h * w, taps), (taps, n_out))),
                             ((1, 3), ((n_out, taps), (taps, h * 2)))]:
        gemms.clear()
        got = xnor_conv(x, wts if bases > 1 else wts[0], k, 1, "same1", (lo, hi))
        assert np.array_equal(got.values, want[:, :, lo:hi]), (lo, hi)
        assert gemms == [shapes], (lo, hi)


@pytest.mark.parametrize("n_out", [1, 5, 19, 100])
def test_conv_n_out_not_multiple_of_16(n_out):
    # output channel counts off the 16-lane grid, at 512 input channels; 100
    # channels' weights (3 x 3 x 512 x 100 floats) nearly fill _WEIGHT_CAP
    rng = np.random.default_rng(n_out)
    x, w = random_operands(rng, 512, 3, 3, n_out, 3)
    assert np.array_equal(xnor_conv(x, w, 3).values, per_bit_conv(x, w, 3, 1, "same0"))


def test_conv_wide_layer_runs_short_channel_block(gemms):
    # at the shipped caps, 600 output channels of 2064 taps overflow the
    # one-GEMM weight buffer, which holds 254 of them; a group of 2064 taps,
    # past 2047, does not pair, so the blocked kernel runs blocks of 254, 254
    # and 92 channels against a chunk of 2 pixels: the GEMMs take the weights first
    assert functional._WEIGHT_CAP // 2064 == 254 and 2064 > functional._PAIR_TAPS[-1]
    rng = np.random.default_rng(600)
    x, w = random_operands(rng, 2064, 1, 2, 600, 1)
    assert np.array_equal(xnor_conv(x, w, 1).values, per_bit_conv(x, w, 1, 1, "same0"))
    assert gemms == [((m, 2064), (2064, 2)) for m in (254, 254, 92)]


def test_conv_split_taps_stay_exact_at_the_float32_bound():
    # 85 bases of 3 x 3 x 21845 taps: 16,711,425, just under 2**24.  The one
    # output pixel runs one GEMM, and the tap count plus its dot is odd and
    # past 2**24, where float32 would round it; the map matches the weights
    # but for one first-row bit
    n_in, bases = 21845, 85
    rng = np.random.default_rng(85)
    w = rng.integers(0, 1 << 16, size=(1, 3, 3, n_groups(n_in)), dtype=np.uint16)
    words = w[0].transpose(2, 0, 1).copy()
    words[0, 0, 0] ^= 1
    x = BinaryTensor(n_in, 3, 3, words)
    got = xnor_conv(x, np.stack([w] * bases), 3, padding="none").values
    assert (1 << 24) - 9 * n_in < bases * 9 * n_in < 1 << 24
    assert got[0, 0, 0] == bases * (9 * n_in - 1)
    assert np.array_equal(got, bases * per_bit_conv(x, w, 3, 1, "none"))


def test_conv_row_windows_stay_exact_at_the_float32_bound(monkeypatch, gemms):
    # the operands above through the row windows: with a window buffer too
    # small for the one GEMM, each kernel row of 3 x 21845 taps runs its own
    # GEMM, and their float32 partial dots of 85 bases add up to 16,711,255
    # before they add, with the taps, to the int32 sums
    n_in, bases = 21845, 85
    rng = np.random.default_rng(85)
    w = rng.integers(0, 1 << 16, size=(1, 3, 3, n_groups(n_in)), dtype=np.uint16)
    words = w[0].transpose(2, 0, 1).copy()
    words[0, 0, 0] ^= 1
    x = BinaryTensor(n_in, 3, 3, words)
    monkeypatch.setattr(functional, "_BUFFER_CAP", 1 << 17)
    got = xnor_conv(x, np.stack([w] * bases), 3, padding="none").values
    assert gemms == [gemm(1, 3 * n_in, 1)] * 3
    assert got[0, 0, 0] == bases * (9 * n_in - 1)


def test_conv_three_bases_equal_sum_of_single_bases():
    rng = np.random.default_rng(3)
    x, w = random_operands(rng, 37, 7, 6, 3 * 4, 3)
    w = w.reshape(3, 4, 3, 3, -1)
    got = xnor_conv(x, w, 3, padding="same1")
    want = sum(xnor_conv(x, w[b], 3, padding="same1").values for b in range(3))
    assert np.array_equal(got.values, want)


def test_conv_folds_many_identical_bases_exactly():
    # 200 identical bases sum each +/-1 weight to +/-200, past an int8 fold
    rng = np.random.default_rng(200)
    x_bip = rng.choice([-1, 1], size=(5, 6, 5)).astype(np.int8)
    w_bip = rng.choice([-1, 1], size=(4, 5, 3, 3)).astype(np.int8)
    x, w = binarize_pack(x_bip), pack_weights(w_bip)
    got = xnor_conv(x, np.stack([w] * 200), 3, padding="same1").values
    assert np.array_equal(got, 200 * xnor_conv(x, w, 3, padding="same1").values)
    assert np.array_equal(2 * got - 200 * 9 * 5, 200 * bipolar_conv(x_bip, w_bip, padding="same1"))


def test_conv_rejects_inexact_multibase_tap_count():
    # 2 bases of 7x7x171197 taps pass the one-base bound but not the total
    n_in = -(-(1 << 24) // 98)
    x = BinaryTensor(n_in, 1, 1)
    w = np.zeros((2, 1, 7, 7, n_groups(n_in)), dtype=np.uint16)
    with pytest.raises(ShapeError, match="exact float32"):
        xnor_conv(x, w, 7)


@pytest.mark.parametrize("n_in, n_out, h, w, budget_mb", [
    (32, 32, 400, 64, 15.8),   # sed c1
    (512, 512, 7, 7, 4.6),     # ResNet-18 stage 4
])
def test_conv_traced_memory_budget(n_in, n_out, h, w, budget_mb):
    # under the peak of the previous tap-GEMM kernel on the same call
    # (16.5 MB and 4.9 MB with numpy 2.4)
    rng = np.random.default_rng(0)
    x, wts = random_operands(rng, n_in, h, w, n_out, 3)
    tracemalloc.start()
    try:
        xnor_conv(x, wts, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget_mb * 1e6


def test_weight_unpack_roundtrip():
    rng = np.random.default_rng(9)
    w_bip = rng.choice([-1, 1], size=(5, 20, 3, 3)).astype(np.int8)
    packed = pack_weights(w_bip)
    assert np.array_equal(unpack_weights_bipolar(packed, 20), w_bip)


# ---------------------------------------------------------------------------
# layer_forward over a column range
# ---------------------------------------------------------------------------

def column_layer(rng, k, stride, padding, pool="none", n_in=20, n_out=5, h=9, w=12):
    """A layer with random thresholds, its packed input map and weights."""
    x, wts = random_operands(rng, n_in, h, w, n_out, k)
    l = LayerConfig(name="a", k=k, n_out=n_out, stride=stride, padding=padding, pool=pool,
                    n_in=n_in)
    taps = k * k * n_in
    l.thresholds = ThresholdVector(rng.integers(taps // 4, 3 * taps // 4 + 1, size=n_out),
                                   rng.random(n_out) < 0.3)
    return l, x, wts


def column_ranges(ow, step):
    """Ranges touching the left edge, the right edge, and only the interior,
    with lo a multiple of `step`."""
    mid = step * (ow // 2 // step)
    return [(lo, hi) for lo, hi in [(0, ow // 2 + 1), (mid, ow), (step, ow - 1), (0, ow)]
            if 0 <= lo < hi <= ow and hi - lo >= step]


def residuals(rng, kind, n_out, oh, ow):
    """The residual operands of one kind: an int plane in C order and as a
    view of pixel-major memory (as the conv kernel and the simulator keep
    them), or a packed binary map."""
    if kind == "int":
        vals = rng.integers(-50, 50, size=(n_out, oh, ow)).astype(np.int32)
        hwc = np.ascontiguousarray(vals.transpose(1, 2, 0)).transpose(2, 0, 1)
        return [IntTensor(n_out, oh, ow, vals), IntTensor(n_out, oh, ow, hwc)]
    if kind == "binary":
        return [binarize_pack(rng.choice([-1, 1], size=(n_out, oh, ow)))]
    return [None]


@pytest.mark.parametrize("w", [11, 12])
@pytest.mark.parametrize("padding", ["none", "same0", "same1"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_layer_forward_column_range_is_that_slice_of_the_map(k, stride, padding, w):
    # 5, 20 and 37 output channels: the last channel group of a binary
    # residual holds 5 lanes and 11 masked ones, then 4 and 12, then 5 and 11
    rng = np.random.default_rng(300 + 10 * k + stride)
    for n_out, (pool, kind) in [(n, case) for n in (5, 20, 37) for case in [
            ("none", None), ("none", "int"), ("none", "binary"),
            ("max", None), ("avg", "int"), ("max", "binary")]]:
        l, x, wts = column_layer(rng, k, stride, padding, pool, n_out=n_out, w=w)
        oh, ow = conv_out_hw(x.height, x.width, k, stride, padding != "none")
        wholes = []
        for residual in residuals(rng, kind, n_out, oh, ow):
            kept = None if residual is None else {f: np.copy(v) for f, v in vars(residual).items()}
            whole = layer_forward(x, l, wts, residual)
            step = 2 if pool != "none" else 1
            for lo, hi in column_ranges(ow, step):
                part = layer_forward(x, l, wts, residual, cols=(lo, hi))
                assert np.array_equal(part.sums.values, whole.sums.values[:, :, lo:hi]), (lo, hi)
                p0, p1 = (lo // 2, lo // 2 + (hi - lo) // 2) if pool != "none" else (lo, hi)
                assert np.array_equal(part.bits.to_bits(), whole.bits.to_bits()[:, :, p0:p1])
            if residual is not None:  # added into the sums, never into the residual
                assert all(np.array_equal(v, kept[f]) for f, v in vars(residual).items())
            wholes.append(whole.sums.values)
        # a C-order int plane and a pixel-major view of the same values add alike
        assert all(np.array_equal(v, wholes[0]) for v in wholes)


def test_layer_forward_rejects_a_residual_narrower_than_its_columns():
    rng = np.random.default_rng(310)
    l, x, wts = column_layer(rng, 3, 1, "same0")
    for width in (7, 4):  # narrower than hi, and only the range's own width
        narrow = IntTensor(l.n_out, x.height, width)
        with pytest.raises(ShapeError, match="layer a: residual"):
            layer_forward(x, l, wts, narrow, cols=(4, 8))
    with pytest.raises(ShapeError, match="output columns"):
        layer_forward(x, l, wts, cols=(4, 13))


# ---------------------------------------------------------------------------
# layer_forward's accumulator range
# ---------------------------------------------------------------------------

def spy_range_checks(monkeypatch):
    """The `what` of every IntTensor.check_range call, in call order."""
    seen = []
    check = IntTensor.check_range

    def spy(self, acc_bits=16, mode="error", what="partial sum"):
        seen.append(what)
        return check(self, acc_bits, mode, what)

    monkeypatch.setattr(IntTensor, "check_range", spy)
    return seen


def test_layer_forward_checks_the_range_only_where_the_bound_can_pass_it(monkeypatch):
    # 1 x 1 taps over n_in channels: popcount sums lie in [0, n_in], a binary
    # residual moves them by one, and a 10-bit accumulator holds up to 511;
    # an int residual is always checked against the data
    seen = spy_range_checks(monkeypatch)
    rng = np.random.default_rng(320)
    for n_in, kind, want in [
            (510, None, []), (510, "binary", []),
            (511, None, []), (511, "binary", ["residual add"]),
            (512, None, ["partial sum"]), (512, "binary", ["partial sum", "residual add"]),
            (8, "int", ["residual add"])]:
        l, x, wts = column_layer(rng, 1, 1, "same0", n_in=n_in, h=3, w=4)
        residual = residuals(rng, kind, l.n_out, 3, 4)[0]
        seen.clear()
        layer_forward(x, l, wts, residual, acc_bits=10)
        assert seen == [f"layer a: {what}" for what in want], (n_in, kind)


def test_layer_forward_past_the_bound_raises_or_saturates():
    # 8 bits hold up to 127, and 3 x 3 taps over 32 channels sum to about 144:
    # the data check raises, or the sums clip before and after the residual
    rng = np.random.default_rng(321)
    l, x, wts = column_layer(rng, 3, 1, "same0", n_in=32, n_out=16, h=6, w=7)
    conv = xnor_conv(x, wts, 3).values
    assert conv.max() > 127
    with pytest.raises(AccumulatorOverflow, match="layer a: partial sum"):
        layer_forward(x, l, wts, acc_bits=8)
    for kind in ("int", "binary"):
        residual = residuals(rng, kind, 16, 6, 7)[0]
        got = layer_forward(x, l, wts, residual, acc_bits=8, acc_mode="saturate")
        add = residual.values if kind == "int" else 2 * residual.to_bits().astype(np.int32) - 1
        want = np.clip(np.clip(conv, -128, 127) + add, -128, 127)
        assert np.array_equal(got.sums.values, want), kind
        assert np.array_equal(got.bits.to_bits(), per_channel_epilogue(want, l.thresholds, "none"))
    # sums that fit, with an int residual that does not
    l, x, wts = column_layer(rng, 1, 1, "same0", n_in=8, h=3, w=4)
    big = IntTensor(l.n_out, 3, 4, np.full((l.n_out, 3, 4), 200, dtype=np.int32))
    with pytest.raises(AccumulatorOverflow, match="layer a: residual add"):
        layer_forward(x, l, wts, big, acc_bits=8)


# ---------------------------------------------------------------------------
# derive_threshold
# ---------------------------------------------------------------------------

def exhaustive_match(c, alpha, bn, n):
    """Check the folded compare against the real path at every sum."""
    t, flip = derive_threshold(c, alpha, bn, n)
    s = np.arange(n + 1)
    want = real_sign_bit(s, c, alpha, bn, n)
    got = (s < t) if flip else (s >= t)
    return np.array_equal(got, want), t, flip


def test_threshold_identity_bn():
    ok, t, flip = exhaustive_match(0.0, 1.0, BatchNorm(), 9)
    assert ok and t == 5 and flip is False


def test_threshold_negative_gamma_flips():
    ok, t, flip = exhaustive_match(0.0, 1.0, BatchNorm(gamma=-1.0), 9)
    assert ok and flip is True
    # output +1 exactly for sums <= 4
    s = np.arange(10)
    assert np.array_equal(s < t, s <= 4)


def test_threshold_single_xnor_passthrough():
    t, flip = derive_threshold(0.0, 1.0, BatchNorm(), 1)
    assert (t, flip) == (1, False)


def test_threshold_randomized_exhaustive():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 442))
        c = float(rng.normal(0, n))
        alpha = float(rng.normal(0, 2)) or 1.0
        bn = BatchNorm(
            gamma=float(rng.normal(0, 2)) or 1.0,
            beta=float(rng.normal(0, 3)),
            mu=float(rng.normal(0, n)),
            sigma=float(abs(rng.normal(0, 2)) + 1e-3),
        )
        ok, _, _ = exhaustive_match(c, alpha, bn, n)
        assert ok


def test_threshold_degenerate_scale():
    with pytest.raises(DegenerateChannel):
        derive_threshold(0.0, 0.0, BatchNorm(), 9)
    with pytest.raises(DegenerateChannel):
        derive_threshold(0.0, 1.0, BatchNorm(sigma=0.0), 9)


def test_fold_thresholds_pool_domain():
    # window threshold must reproduce average-then-compare on the real path
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 50))
        row = [float(rng.normal(0, n)), float(rng.normal(0, 2)) or 1.0,
               float(rng.normal(0, 2)) or 1.0, float(rng.normal(0, 2)),
               float(rng.normal(0, n)), float(abs(rng.normal(0, 2)) + 1e-3)]
        th = fold_thresholds(np.array([row]), n)
        c, alpha, gamma, beta, mu, sigma = row
        bn = BatchNorm(gamma, beta, mu, sigma)
        sums4 = np.arange(4 * n + 1)
        want = real_sign_bit(sums4 / 4.0, c, alpha, bn, n)
        got = (sums4 < th.t_pool[0]) if th.flip[0] else (sums4 >= th.t_pool[0])
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# threshold_binarize / pooling
# ---------------------------------------------------------------------------

def test_binarize_below_threshold():
    th = constant_thresholds(1, 5)
    s = IntTensor(1, 1, 1, np.array([[[4]]], dtype=np.int32))
    assert threshold_binarize(s, th).to_bits()[0, 0, 0] == 0


def test_binarize_at_threshold():
    th = constant_thresholds(1, 5)
    s = IntTensor(1, 1, 1, np.array([[[5]]], dtype=np.int32))
    assert threshold_binarize(s, th).to_bits()[0, 0, 0] == 1


def test_binarize_flipped():
    th = constant_thresholds(1, 5, flip=True)
    s = IntTensor(1, 1, 1, np.array([[[4]]], dtype=np.int32))
    assert threshold_binarize(s, th).to_bits()[0, 0, 0] == 1


def test_maxpool_one_hit_wins():
    th = constant_thresholds(1, 5)
    s = IntTensor(1, 2, 2, np.array([[[4, 4], [4, 6]]], dtype=np.int32))
    assert binary_maxpool(s, th).to_bits()[0, 0, 0] == 1


def test_maxpool_all_below():
    th = constant_thresholds(1, 5)
    s = IntTensor(1, 2, 2, np.full((1, 2, 2), 4, dtype=np.int32))
    assert binary_maxpool(s, th).to_bits()[0, 0, 0] == 0


def test_maxpool_matches_integer_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        sums = rng.integers(0, 30, size=(3, 8, 8)).astype(np.int32)
        t = rng.integers(0, 31, size=3).astype(np.int32)
        flip = rng.integers(0, 2, size=3).astype(bool)
        th = ThresholdVector(t, flip)
        got = binary_maxpool(IntTensor(3, 8, 8, sums), th).to_bits()
        # integer oracle: aggregate respecting the comparator direction
        quads = np.stack([sums[:, 0::2, 0::2], sums[:, 0::2, 1::2],
                          sums[:, 1::2, 0::2], sums[:, 1::2, 1::2]])
        agg = np.where(flip[:, None, None], quads.min(0), quads.max(0))
        ge = agg >= t[:, None, None]
        want = np.where(flip[:, None, None], ~ge, ge).astype(np.uint8)
        assert np.array_equal(got, want)


def test_maxpool_truncates_odd_edge():
    th = constant_thresholds(1, 1)
    s = IntTensor(1, 3, 3, np.arange(9, dtype=np.int32).reshape(1, 3, 3))
    out = binary_maxpool(s, th)
    assert (out.height, out.width) == (1, 1)


def test_avgpool_window_examples():
    th = constant_thresholds(1, 5)
    s = IntTensor(1, 2, 2, np.full((1, 2, 2), 5, dtype=np.int32))
    assert avg_pool_threshold(s, th).to_bits()[0, 0, 0] == 1  # 20 >= 20
    s = IntTensor(1, 2, 2, np.array([[[4, 5], [5, 5]]], dtype=np.int32))
    assert avg_pool_threshold(s, th).to_bits()[0, 0, 0] == 0  # 19 < 20


def test_avgpool_matches_average_then_compare():
    rng = np.random.default_rng(14)
    for _ in range(30):
        sums = rng.integers(0, 40, size=(2, 6, 6)).astype(np.int32)
        t = rng.integers(0, 41, size=2).astype(np.int32)
        flip = rng.integers(0, 2, size=2).astype(bool)
        th = ThresholdVector(t, flip)
        got = avg_pool_threshold(IntTensor(2, 6, 6, sums), th).to_bits()
        avg = (sums[:, 0::2, 0::2] + sums[:, 0::2, 1::2]
               + sums[:, 1::2, 0::2] + sums[:, 1::2, 1::2]) / 4.0
        ge = avg >= t[:, None, None]
        want = np.where(flip[:, None, None], ~ge, ge).astype(np.uint8)
        assert np.array_equal(got, want)


def per_channel_epilogue(sums, th, pool):
    """(C, H', W') 0/1 bits of (C, H, W) sums, one channel at a time."""
    out = []
    for c in range(len(sums)):
        v = sums[c].astype(np.int64)
        t, flip = (th.t_pool[c], th.flip[c]) if pool == "avg" else (th.t[c], th.flip[c])
        if pool != "none":
            h, w = v.shape[0] // 2 * 2, v.shape[1] // 2 * 2
            quads = [v[dy:h:2, dx:w:2] for dy in (0, 1) for dx in (0, 1)]
            if pool == "avg":
                v = sum(quads)
            else:  # OR of the four window bits
                out.append(np.any([(q >= t) != flip for q in quads], axis=0))
                continue
        out.append((v >= t) != flip)
    return np.array(out, dtype=np.uint8)


@pytest.mark.parametrize("c", [1, 5, 16, 17, 32, 48, 512])
def test_epilogue_matches_per_channel_loop(c):
    # odd H and W; 37 x 41 = 1517 and 11 x 13 = 143 pixels have no divisor
    # near the compare rows' length in pixels, so a short last row runs too;
    # sums as the conv kernel keeps them (a view of pixel-major memory) and
    # in C order, with about a third of the channels flipped
    h, w = (11, 13) if c == 512 else (37, 41)
    rng = np.random.default_rng(c)
    vals = rng.integers(-5, 300, size=(c, h, w)).astype(np.int32)
    th = ThresholdVector(rng.integers(0, 300, size=c), rng.random(c) < 0.3,
                         rng.integers(0, 1200, size=c))
    pixel_major = np.ascontiguousarray(vals.transpose(1, 2, 0)).transpose(2, 0, 1)
    for step, pool in [(threshold_binarize, "none"), (binary_maxpool, "max"),
                       (avg_pool_threshold, "avg")]:
        want = per_channel_epilogue(vals, th, pool)
        for layout in (vals, pixel_major):
            got = step(IntTensor(c, h, w, layout), th)
            assert (got.channels, got.height, got.width) == want.shape, pool
            assert np.array_equal(got.to_bits(), want), pool
            # the lanes past the last channel are zero in every word
            assert np.array_equal(got.words, BinaryTensor.from_bits(want).words), pool


@pytest.mark.parametrize("c", [1, 5, 17, 33])
def test_layer_step_leaves_masked_lanes_zero(c):
    # a layer step's maps keep their words unscanned, so the lanes past the
    # last channel must come out zero: on maps that compare in one broadcast
    # (3 x 5, and 4 x 4 under a pool) and in rows of pixels (20 x 24)
    rng = np.random.default_rng(30 + c)
    unused = np.uint16(0xFFFF ^ lane_mask(c, n_groups(c) - 1))
    for pool in ("none", "max", "avg"):
        for h, w in [(3, 5), (4, 4), (20, 24)]:
            l, x, wts = column_layer(rng, 3, 1, "same0", pool, n_out=c, h=h, w=w)
            res = layer_forward(x, l, wts)
            assert not (res.bits.words[-1] & unused).any(), (pool, h, w)
            want = per_channel_epilogue(res.sums.values, l.thresholds, pool)
            assert np.array_equal(res.bits.to_bits(), want), (pool, h, w)


def test_unpack_bipolar_roundtrip():
    rng = np.random.default_rng(15)
    bip = rng.choice([-1, 1], size=(37, 4, 5)).astype(np.int8)
    assert np.array_equal(unpack_bipolar(binarize_pack(bip)), bip)
