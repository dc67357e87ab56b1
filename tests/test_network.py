"""Network graph validation, op counting, formats, and the two reference
implementations agreeing bit-for-bit."""

import numpy as np
import pytest

from bnnsim.arch import default_arch
from bnnsim.errors import FormatError, ShapeError
from bnnsim.functional import run_network_reference
from bnnsim.netio import (
    format_network,
    load_network,
    load_weights,
    parse_network,
    random_input,
    random_network,
    random_thresholds,
    random_weights,
    save_network,
    save_tensor,
    load_tensor,
    save_weights,
)
from bnnsim.network import LayerConfig, NetworkDesc
from bnnsim.simulator import check

from helpers import constant_thresholds


def tiny_net(**kw):
    net = NetworkDesc("t", 16, 4, 4, [LayerConfig(name="l0", k=1, n_out=16, **kw)])
    return net.validate()


def test_shapes_chain():
    net = NetworkDesc("t", 16, 8, 8, [
        LayerConfig(name="a", k=3, n_out=32, pool="max"),
        LayerConfig(name="b", k=3, n_out=32),
    ]).validate()
    a, b = net.layers
    assert (a.out_h, a.out_w, a.pooled_h, a.pooled_w) == (8, 8, 4, 4)
    assert (b.n_in, b.in_h, b.in_w) == (32, 4, 4)


def test_stride2_dims():
    net = NetworkDesc("t", 16, 9, 9, [LayerConfig(name="a", k=3, n_out=16, stride=2)]).validate()
    assert (net.layers[0].out_h, net.layers[0].out_w) == (5, 5)


def test_unsupported_kernel_rejected():
    with pytest.raises(ShapeError):
        NetworkDesc("t", 16, 8, 8, [LayerConfig(name="a", k=2, n_out=16)]).validate()


def test_external_kernel_free():
    net = NetworkDesc("t", 3, 8, 8, [
        LayerConfig(name="stem", k=11, n_out=16, external=True),
        LayerConfig(name="a", k=3, n_out=16),
    ]).validate()
    assert net.layers[0].out_h == 8


def test_external_must_wrap_body():
    with pytest.raises(ShapeError):
        NetworkDesc("t", 16, 8, 8, [
            LayerConfig(name="a", k=3, n_out=16),
            LayerConfig(name="mid", k=3, n_out=16, external=True),
            LayerConfig(name="b", k=3, n_out=16),
        ]).validate()


def test_residual_dims_checked():
    with pytest.raises(ShapeError):
        NetworkDesc("t", 16, 8, 8, [
            LayerConfig(name="a", k=3, n_out=32),
            LayerConfig(name="b", k=3, n_out=16, residual="a"),
        ]).validate()


def test_residual_int_source_pool_rejected():
    with pytest.raises(ShapeError):
        NetworkDesc("t", 16, 8, 8, [
            LayerConfig(name="a", k=3, n_out=16, pool="max"),
            LayerConfig(name="b", k=3, n_out=16, residual="a", residual_mode="int"),
        ]).validate()


def test_zero_size_layer_rejected():
    with pytest.raises(ShapeError):
        tiny_net(n_out=0) if False else NetworkDesc(
            "t", 16, 4, 4, [LayerConfig(name="a", k=1, n_out=0)]).validate()


@pytest.mark.parametrize("acc", [dict(acc_bits=0), dict(acc_bits=33), dict(acc_mode="clip")])
def test_accumulator_settings_checked(acc):
    # partial sums are int32, and only checked or saturating adds exist
    with pytest.raises(ShapeError):
        NetworkDesc("t", 16, 4, 4, [LayerConfig(name="a", k=1, n_out=16)], **acc).validate()


def test_op_count_basis():
    net = NetworkDesc("t", 16, 8, 8, [LayerConfig(name="a", k=3, n_out=32, pool="max")]).validate()
    # MACs at conv output dims (pre-pool), 2 ops per MAC
    assert net.op_count()["total_ops"] == 2 * 9 * 16 * 32 * 64


def test_op_count_bases_multiplier():
    n1 = NetworkDesc("t", 16, 8, 8, [LayerConfig(name="a", k=3, n_out=32)]).validate()
    n3 = NetworkDesc("t", 16, 8, 8, [LayerConfig(name="a", k=3, n_out=32, bases=3)]).validate()
    assert n3.op_count()["total_ops"] == 3 * n1.op_count()["total_ops"]


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_parse_minimal():
    net = parse_network("network n\ninput 16 4 4\nlayer a k=1 out=16\n")
    assert net.name == "n" and len(net.layers) == 1


def test_parse_error_reports_line():
    with pytest.raises(FormatError) as e:
        parse_network("network n\ninput 16 4 4\nlayer a k=QQ out=16\n", path="f.net")
    assert "f.net:3" in str(e.value)


def test_parse_unknown_attr():
    with pytest.raises(FormatError):
        parse_network("network n\ninput 16 4 4\nlayer a k=1 out=16 wat=1\n")


def test_format_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    for i in range(10):
        net = random_network(rng, name=f"r{i}")
        p = tmp_path / f"{i}.net"
        save_network(net, p)
        back = load_network(p)
        assert format_network(back) == format_network(net)
        assert [l.name for l in back.layers] == [l.name for l in net.layers]
        for a, b in zip(back.layers, net.layers):
            assert (a.k, a.n_out, a.stride, a.padding, a.pool, a.residual,
                    a.residual_mode, a.bases) == (
                b.k, b.n_out, b.stride, b.padding, b.pool, b.residual,
                b.residual_mode, b.bases)


# ---------------------------------------------------------------------------
# blobs
# ---------------------------------------------------------------------------

def test_weight_blob_roundtrip(tmp_path):
    rng = np.random.default_rng(22)
    net = random_network(rng)
    random_thresholds(net, rng)
    weights = random_weights(net, rng)
    p = tmp_path / "w.bin"
    save_weights(p, net, weights)
    net2 = NetworkDesc(net.name, net.in_channels, net.in_h, net.in_w,
                       [l for l in net.copy().layers]).validate()
    back = load_weights(p, net2)
    for l in net.binary_layers():
        assert np.array_equal(back[l.name], weights[l.name])
        l2 = net2.layer(l.name)
        assert np.array_equal(l2.thresholds.t, l.thresholds.t)
        assert np.array_equal(l2.thresholds.flip, l.thresholds.flip)


def test_weight_blob_checksum(tmp_path):
    rng = np.random.default_rng(23)
    net = random_network(rng)
    random_thresholds(net, rng)
    p = tmp_path / "w.bin"
    save_weights(p, net, random_weights(net, rng))
    blob = bytearray(p.read_bytes())
    blob[10] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        load_weights(p, net)


def test_tensor_blob_roundtrip(tmp_path):
    rng = np.random.default_rng(24)
    net = random_network(rng)
    t = random_input(net, rng)
    p = tmp_path / "t.bin"
    save_tensor(p, t)
    assert load_tensor(p).bit_equal(t)


# ---------------------------------------------------------------------------
# reference model vs independent bipolar brute force
# ---------------------------------------------------------------------------

def test_identity_single_layer():
    # one input channel, +1 weight, T=1: a single xnor passes the bit through
    net = NetworkDesc("t", 1, 3, 3, [LayerConfig(name="a", k=1, n_out=1)]).validate()
    net.layers[0].thresholds = constant_thresholds(1, 1)
    rng = np.random.default_rng(25)
    x = random_input(net, rng)
    w = np.ones((1, 1, 1, 1, 1), dtype=np.uint16)
    golden = run_network_reference(net, x, {"a": w})
    assert np.array_equal(golden["a"].bits.to_bits(), x.to_bits())


def test_two_layer_composition():
    rng = np.random.default_rng(26)
    net = NetworkDesc("t", 16, 4, 4, [
        LayerConfig(name="a", k=3, n_out=24),
        LayerConfig(name="b", k=1, n_out=16),
    ]).validate()
    random_thresholds(net, rng)
    weights = random_weights(net, rng)
    x = random_input(net, rng)
    full = run_network_reference(net, x, weights)
    # layer b alone, fed with a's output
    sub = NetworkDesc("s", 24, 4, 4, [net.layers[1]]).validate()
    part = run_network_reference(sub, full["a"].bits, {"b": weights["b"]})
    assert part["b"].bits.bit_equal(full["b"].bits)


def test_residual_identities():
    rng = np.random.default_rng(27)
    net = NetworkDesc("t", 16, 6, 6, [
        LayerConfig(name="a", k=3, n_out=16),
        LayerConfig(name="b", k=3, n_out=16, residual="a", residual_mode="int"),
    ]).validate()
    random_thresholds(net, rng)
    weights = random_weights(net, rng)
    x = random_input(net, rng)
    rep = check(net, x, weights, default_arch())
    assert rep.equal, rep.first_divergence


def test_random_nets_match_bruteforce():
    rng = np.random.default_rng(28)
    for _ in range(40):
        net = random_network(rng)
        random_thresholds(net, rng)
        weights = random_weights(net, rng)
        x = random_input(net, rng)
        rep = check(net, x, weights, default_arch())
        assert rep.equal, rep.first_divergence


def test_reference_deterministic():
    rng = np.random.default_rng(29)
    net = random_network(rng)
    random_thresholds(net, rng)
    weights = random_weights(net, rng)
    x = random_input(net, rng)
    a = run_network_reference(net, x, weights)
    b = run_network_reference(net, x, weights)
    for name in a:
        assert a[name].bits.bit_equal(b[name].bits)
        assert np.array_equal(a[name].sums.values, b[name].sums.values)
