"""Pinned modeled output of every bundled net.

For seed 1 on the default arch, each net's run is pinned by two SHA-256
digests: one of `Stats.to_text()` (every counter, per layer run and per
bank) and one of every binary layer's output words, in layer order.  A
change that moves one modeled counter or one output bit fails here.

Regenerate the pins only with a change that means to move them:

    PYTHONPATH=src python tests/test_bundled_pins.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bnnsim import default_arch, netio, run

PINS = Path(__file__).parent / "data" / "bundled_pins.json"
NETS = ("vgg_like_cifar10", "resnet18_ilsvrc", "resnet18_ilsvrc_3x", "resnet18_ilsvrc_8x",
        "alexnet_dorefa_ilsvrc", "sed_freesound")


def digests(name: str) -> dict:
    """The stimulus of `bnnsim run <name> --seed 1`, run on the default arch."""
    rng = np.random.default_rng(1)
    net = netio.builtin_network(name)
    netio.random_thresholds(net, rng)
    weights = netio.random_weights(net, rng)
    x = netio.random_input(net, rng)
    outputs, stats, _ = run(net, x, weights, default_arch())
    words = hashlib.sha256()
    for l in net.binary_layers():
        words.update(np.ascontiguousarray(outputs[l.name].words, dtype="<u2").tobytes())
    return {"stats": hashlib.sha256(stats.to_text().encode()).hexdigest(),
            "outputs": words.hexdigest()}


@pytest.mark.parametrize("name", NETS)
def test_bundled_net_output_is_pinned(name):
    assert digests(name) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    PINS.write_text(json.dumps({name: digests(name) for name in NETS}, indent=1) + "\n")
