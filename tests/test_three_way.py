"""Three-way bit identity (simulator, golden model, bipolar oracle) on the
`.net` features that `random_network` never draws: input reroutes,
flatten, multiple bases, residuals from the external prefix, int
residuals, saturating accumulators, tiled runs, and a ResNet-18 frame."""

import numpy as np
import pytest

from bnnsim.arch import ArchConfig, MemoryGeometry, default_arch
from bnnsim.errors import ShapeError
from bnnsim.functional import ThresholdVector, run_network_reference
from bnnsim.netio import builtin_network, random_input, random_thresholds, random_weights
from bnnsim.network import LayerConfig, NetworkDesc
from bnnsim.scheduler import plan_network
from bnnsim.simulator import check, execute
from bnnsim.tensors import BinaryTensor

from helpers import constant_thresholds

TINY = ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1))


def three_way(net, arch, x=None, weights=None, seed=0):
    """`check` the net on seeded stimulus: every layer's bits and both
    reference sums must agree.  Returns its report."""
    rng = np.random.default_rng(seed)
    if any(l.thresholds is None for l in net.binary_layers()):
        random_thresholds(net, rng)
    weights = weights if weights is not None else random_weights(net, rng)
    x = x if x is not None else random_input(net, rng)
    rep = check(net, x, weights, arch)
    assert rep.equal, rep.first_divergence
    return rep


def net_of(c, h, w, *layers, **kw):
    return NetworkDesc("t", c, h, w, list(layers), **kw).validate()


def reroute(h, w):
    # a downsample branch and a rerouted main branch, joined by a residual
    return net_of(
        16, h, w,
        LayerConfig(name="a", k=3, n_out=32),
        LayerConfig(name="ds", k=1, n_out=32, stride=2),
        LayerConfig(name="b", k=3, n_out=32, stride=2, input_layer="a"),
        LayerConfig(name="c", k=3, n_out=32, residual="ds", residual_mode="binary"),
        LayerConfig(name="d", k=1, n_out=16, input_layer="a", pool="max"),
    )


def flatten(h, w):
    return net_of(
        16, h, w,
        LayerConfig(name="a", k=3, n_out=16, pool="max"),
        LayerConfig(name="fc", k=1, n_out=40, flatten=True),
        LayerConfig(name="out", k=1, n_out=10),
    )


def flatten_first(h, w):
    # the first binary layer flattens the map an external prefix produced
    return net_of(
        3, h, w,
        LayerConfig(name="stem", k=3, n_out=32, external=True),
        LayerConfig(name="fc", k=1, n_out=24, flatten=True),
    )


def multibase(h, w):
    return net_of(
        20, h, w,
        LayerConfig(name="a", k=3, n_out=24, bases=3),
        LayerConfig(name="b", k=5, n_out=24, bases=2, residual="a", residual_mode="binary"),
        LayerConfig(name="c", k=1, n_out=16, bases=3, pool="avg"),
    )


def prefix_residual(h, w):
    # a binary residual whose source is the network input map
    return net_of(
        3, h, w,
        LayerConfig(name="stem", k=3, n_out=32, external=True),
        LayerConfig(name="a", k=3, n_out=32, padding="same1"),
        LayerConfig(name="b", k=3, n_out=32, residual="stem", residual_mode="binary"),
        LayerConfig(name="head", k=1, n_out=10, external=True),
    )


def int_residual(h, w):
    # an int residual across a rerouted layer
    return net_of(
        16, h, w,
        LayerConfig(name="a", k=3, n_out=32),
        LayerConfig(name="b", k=1, n_out=32),
        LayerConfig(name="c", k=3, n_out=32, input_layer="a", residual="b",
                    residual_mode="int"),
    )


FEATURES = [reroute, flatten, flatten_first, multibase, prefix_residual, int_residual]


@pytest.mark.parametrize("make", FEATURES, ids=lambda f: f.__name__)
def test_feature_three_way(make):
    three_way(make(8, 10), default_arch())


@pytest.mark.parametrize("make,w", [
    *[pytest.param(f, 48, id=f.__name__) for f in (reroute, multibase, prefix_residual, int_residual)],
    # tiled groups that must start before the first layer that overflows
    *[pytest.param(reroute, w, id=f"reroute-{w}") for w in (28, 32)],
])
def test_feature_three_way_tiled(make, w):
    rep = three_way(make(8, w), TINY, seed=1)
    assert any(l.tile > 0 for l in rep.stats.layers), "tiny memory did not tile"


def test_saturate_clips_conv_sum_before_residual():
    # all-zero maps and weights: every tap matches, so each conv sum is
    # 9*64 = 576 and clips to 127 in an 8-bit accumulator; a's bits are 0
    # (-1), so b adds -1 after clipping: 126, which is below b's threshold
    net = net_of(
        64, 4, 4,
        LayerConfig(name="a", k=3, n_out=64, thresholds=constant_thresholds(64, 128)),
        LayerConfig(name="b", k=3, n_out=64, residual="a", residual_mode="binary",
                    thresholds=constant_thresholds(64, 127)),
        acc_bits=8, acc_mode="saturate",
    )
    zeros = {l.name: np.zeros((1, 64, 3, 3, 4), dtype=np.uint16) for l in net.layers}
    three_way(net, default_arch(), x=BinaryTensor(64, 4, 4), weights=zeros)
    golden = run_network_reference(net, BinaryTensor(64, 4, 4), zeros)
    assert np.all(golden["b"].sums.values == 126)
    assert not golden["b"].bits.to_bits().any()


def test_resnet18_frame_three_way():
    three_way(builtin_network("resnet18_ilsvrc"), default_arch(), seed=18)


def test_resnet18_frame_three_way_tiled():
    # at 38+38 banks s1b1c2 overflows; it tiles only in a group that starts
    # at s1b1c1, which fits on its own, and ends once stage 2 has halved
    # the map
    arch = ArchConfig(memory=MemoryGeometry(fmm_src_banks=38, fmm_snk_banks=38))
    rep = three_way(builtin_network("resnet18_ilsvrc"), arch, seed=38)
    tiled = [l.name for l in rep.stats.layers if l.tile == 1]
    assert (tiled[0], tiled[-1], len(tiled)) == ("s1b1c1", "s2b1c2", 7)


def test_random_thresholds_centre_multibase_sums():
    # centred on one base's sum, the thresholds sit below every 2- or 3-base
    # sum: unflipped channels would be all ones whatever the number of bases
    rng = np.random.default_rng(3)
    nets = {b: net_of(32, 8, 8, LayerConfig(name="a", k=3, n_out=32, bases=b)) for b in (2, 3)}
    for net in nets.values():
        random_thresholds(net, rng)
    flip = nets[3].layers[0].thresholds.flip
    nets[2].layers[0].thresholds = ThresholdVector(nets[2].layers[0].thresholds.t, flip)
    w, x = random_weights(nets[3], rng)["a"], random_input(nets[3], rng)
    bits = {b: run_network_reference(net, x, {"a": w[:b]})["a"].bits.to_bits()
            for b, net in nets.items()}
    unflipped = bits[3][~flip]
    assert unflipped.any() and not unflipped.all()
    assert not np.array_equal(bits[2], bits[3])


def test_weights_must_hold_every_base():
    # the kernel sums whatever bases the weights hold, so one base's weights
    # on a 3-base layer must be rejected, not run as a 1-base layer
    net = net_of(16, 6, 6, LayerConfig(name="a", k=3, n_out=16, bases=3))
    rng = np.random.default_rng(0)
    random_thresholds(net, rng)
    one_base = {"a": random_weights(net, rng)["a"][0]}
    x = random_input(net, rng)
    with pytest.raises(ShapeError, match="3 bases"):
        run_network_reference(net, x, one_base)
    with pytest.raises(ShapeError, match="3 bases"):
        execute(plan_network(net, default_arch()), net, x, one_base, default_arch())
