"""The bipolar oracle's own pieces: its row-window correlation against a
per-pixel window sum written here, its bounds and parity checks, the
traced memory of one oracle frame, and its independence from the code it
checks.
"""

import ast
import tracemalloc

import numpy as np
import pytest

from bnnsim import netio, oracle
from bnnsim.errors import ShapeError
from bnnsim.oracle import (
    PackedWeights,
    bipolar_conv,
    run_bipolar_reference,
    to_binary_sum,
    unpack_weights_bipolar,
)
from bnnsim.tensors import n_groups


def window_sums(x, w, stride, padding):
    """Per output pixel, the sum over its k x k window of x times w."""
    n_out, n_in, k, _ = w.shape
    p = (k - 1) // 2 if padding != "none" else 0
    xp = np.pad(x.astype(np.int64), ((0, 0), (p, p), (p, p)),
                constant_values=1 if padding == "same1" else -1)
    oh = (xp.shape[1] - k) // stride + 1
    ow = (xp.shape[2] - k) // stride + 1
    out = np.zeros((n_out, oh, ow), dtype=np.int64)
    for y in range(oh):
        for x0 in range(ow):
            win = xp[:, y * stride:y * stride + k, x0 * stride:x0 * stride + k]
            out[:, y, x0] = np.tensordot(w.astype(np.int64), win, axes=3)
    return out


CONV_CASES = [
    (7, 2, "same1", 20, 10, 15, 13),
    (3, 1, "same0", 37, 9, 11, 6),
    (5, 1, "none", 3, 4, 9, 9),
    (1, 2, "same1", 17, 6, 7, 8),
    (3, 2, "same0", 5, 7, 15, 15),
]


@pytest.fixture
def calls(monkeypatch):
    """(source dtype, source shape) of every np.copyto and the operand shapes
    of every np.matmul the test makes."""
    seen = {"copy": [], "gemm": []}
    copyto, matmul = np.copyto, np.matmul

    def copy_spy(dst, src, **kw):
        seen["copy"].append((src.dtype, src.shape))
        return copyto(dst, src, **kw)

    def gemm_spy(a, b, **kw):
        seen["gemm"].append((a.shape, b.shape))
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "copyto", copy_spy)
    monkeypatch.setattr(np, "matmul", gemm_spy)
    return seen


def check_window_sums(monkeypatch, calls, block, rows, k, stride, padding, n_in, n_out, h, w):
    """bipolar_conv, on an array and on `PackedWeights`, against window_sums,
    with a weight cap of `block` output channels a kernel row (None: the
    whole layer's weights) and a window buffer of the input rows of `rows`
    output rows.  Each chunk of output rows runs one GEMM per kernel row and
    block.  At stride 1 it copies its row windows once; at stride > 1 each
    kernel row of each block copies its every-stride rows from the padded
    map, and nothing else is copied.  The weights convert once where they
    all fit, else once per chunk, block and kernel row."""
    rng = np.random.default_rng(k * 100 + n_in)
    row = k * n_in
    p = (k - 1) // 2 if padding != "none" else 0
    ow = (w + 2 * p - k) // stride + 1
    assert ow != n_out  # then window copies and weight conversions differ in shape
    m = n_out if block is None else -(-n_out // -(-n_out // block))  # channels a block
    assert (stride * (rows - 1) + k) * row >= rows * m  # the window buffer sets the chunk
    monkeypatch.setattr(oracle, "_WEIGHT_CAP", (n_out * k if block is None else block) * row)
    monkeypatch.setattr(oracle, "_WINDOW_CAP", (stride * (rows - 1) + k) * ow * row)
    x = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_in, h, w))
    packed = rng.integers(0, 1 << 16, size=(n_out, k, k, n_groups(n_in)), dtype=np.uint16)
    w_bip = np.ascontiguousarray(unpack_weights_bipolar(packed, n_in))
    want = window_sums(x, w_bip, stride, padding)
    oh = want.shape[1]
    chunks = -(-oh // rows)
    assert chunks > 1
    blocks = [min(m, n_out - o0) for o0 in range(0, n_out, m)]  # their channels
    for weights in (w_bip, PackedWeights(packed, n_in)):
        calls["copy"].clear()
        calls["gemm"].clear()
        got = bipolar_conv(x, weights, stride=stride, padding=padding)
        assert got.dtype == np.int32 and np.array_equal(got, want)
        assert all(dtype == np.int8 for dtype, _ in calls["copy"])  # from the map or weights
        int8 = [shape for _, shape in calls["copy"]]
        windows = [s for s in int8 if len(s) == 4 and s[1:] == (ow, k, n_in)]
        if stride == 1:  # one row-window copy a chunk
            assert len(windows) == chunks
            heights = [s[0] - k + 1 for s in windows]
        else:  # per chunk, block and kernel row, that kernel row's output rows
            heights = [s[0] for s in windows[::len(blocks) * k]]
            assert windows == [(n, ow, k, n_in) for n in heights for _ in blocks for _ in range(k)]
        assert len(heights) == chunks and sum(heights) == oh and max(heights) <= rows
        converted = [s for s in int8 if s not in windows]
        if block is None:  # converted once
            assert converted == [(k, n_out, k, n_in)]
        else:  # per chunk, block and kernel row
            assert converted == [(c, k, n_in) for _ in heights for c in blocks for _ in range(k)]
        pixels = [n * ow for n in heights for _ in blocks for _ in range(k)]
        columns = [c for _ in heights for c in blocks for _ in range(k)]
        assert calls["gemm"] == [((c, row), (row, px)) if px < c else ((px, row), (row, c))
                                 for px, c in zip(pixels, columns)]


@pytest.mark.parametrize("k, stride, padding, n_in, n_out, h, w", CONV_CASES)
def test_bipolar_conv_matches_window_sums(monkeypatch, calls, k, stride, padding, n_in, n_out,
                                          h, w):
    # three output channels a kernel-row block: several blocks, the last one short
    assert n_out > 3
    check_window_sums(monkeypatch, calls, 3, 3, k, stride, padding, n_in, n_out, h, w)


@pytest.mark.parametrize("k, stride, padding, n_in, n_out, h, w", CONV_CASES)
def test_bipolar_conv_one_block_matches_window_sums(monkeypatch, calls, k, stride, padding, n_in,
                                                    n_out, h, w):
    # every weight fits the cap: one block, converted once a call
    check_window_sums(monkeypatch, calls, None, 3, k, stride, padding, n_in, n_out, h, w)


@pytest.mark.parametrize("block", [10, None])
def test_bipolar_conv_weights_first_matches_window_sums(monkeypatch, calls, block):
    # one-row chunks of 4 pixels against blocks of 8 and 24 channels: the
    # weights multiply the windows
    check_window_sums(monkeypatch, calls, block, 1, 3, 1, "same0", 9, 24, 5, 4)


def test_to_binary_sum_rejects_odd_sums():
    assert np.array_equal(to_binary_sum(np.array([-3, -1, 1, 3], dtype=np.int32), 3),
                          [0, 1, 2, 3])
    with pytest.raises(ShapeError, match="parity"):
        to_binary_sum(np.array([[[-3, -1], [1, 2]]], dtype=np.int32), 3)


@pytest.mark.parametrize("k, n_in", [(7, -(-(1 << 24) // 49)), (1, 1 << 24)])
def test_bipolar_conv_rejects_inexact_tap_count(k, n_in):
    # broadcast views: the bound is checked before anything is allocated
    x = np.broadcast_to(np.int8(1), (n_in, k, k))
    w = np.broadcast_to(np.int8(1), (1, n_in, k, k))
    with pytest.raises(ShapeError, match="exact float32"):
        bipolar_conv(x, w, padding="none")


@pytest.mark.parametrize("name, budget_mb", [
    ("resnet18_ilsvrc", 11.2),
    ("sed_freesound", 16.2),
])
def test_oracle_traced_memory_budget(name, budget_mb):
    # 10.8 MB and 15.8 MB with numpy 2.4 (seed 41); the per-tap oracle
    # before the im2col GEMM peaked at 9.5 MB and 16.4 MB
    rng = np.random.default_rng(41)
    net = netio.builtin_network(name)
    netio.random_thresholds(net, rng)
    weights = netio.random_weights(net, rng)
    x = netio.random_input(net, rng)
    tracemalloc.start()
    try:
        run_bipolar_reference(net, x, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget_mb * 1e6


def test_oracle_imports_nothing_it_checks():
    # `simulator.check` holds the simulator and the golden model to the
    # oracle because it shares no packed-word code with them: from the
    # package's tensors it may take only the lane width and the tensor type
    paths = set()  # package imports as "module" or "module.name", without "bnnsim."
    for node in ast.walk(ast.parse(open(oracle.__file__).read())):
        if isinstance(node, ast.Import):
            paths |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("bnnsim")):
            module = (node.module or "").removeprefix("bnnsim").strip(".")
            paths |= {f"{module}.{a.name}".strip(".") for a in node.names}
    paths = {p.removeprefix("bnnsim.") for p in paths}
    assert {"tensors.LANES", "tensors.BinaryTensor"} <= paths
    shared = {p for p in paths if p.split(".")[0] in ("functional", "simulator", "scheduler")
              or p.startswith("tensors") and p not in ("tensors.LANES", "tensors.BinaryTensor")}
    assert not shared, shared
