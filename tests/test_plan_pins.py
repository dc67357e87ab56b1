"""Pinned plans and fit reports.

Every field of every `LayerPlan` in a plan's `exec_order` (layer, index,
tile, window, loop nest, feed, banks, parameter-buffer offset and flags)
and of its `FitReport` is digested, per net and arch:

* the six bundled nets on the default, a 38+38-bank and the bundled
  `small48k` arch;
* the first 500 nets of the seed-99 stream
  (`random_network(rng, n_layers=rng.integers(2, 7), max_hw=16,
  max_channels=64)`) on the default and a 1+1-bank arch, 16 hex digits a
  net.

A net that fails to plan is pinned by its error type and the digest of
its `validate` report.  The addresses are pinned as they are, the
slice-address overflow of some tiled random nets included.

Regenerate the pins only with a change that means to move plans:

    PYTHONPATH=src python tests/test_plan_pins.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bnnsim import ArchConfig, MemoryGeometry, builtin_arch, netio, plan_network, validate
from bnnsim.errors import BnnSimError

PINS = Path(__file__).parent / "data" / "plan_pins.json"
NETS = ("vgg_like_cifar10", "resnet18_ilsvrc", "resnet18_ilsvrc_3x", "resnet18_ilsvrc_8x",
        "alexnet_dorefa_ilsvrc", "sed_freesound")
BUNDLED_ARCHS = {
    "default": lambda: builtin_arch("default"),
    "38+38": lambda: ArchConfig(memory=MemoryGeometry(fmm_src_banks=38, fmm_snk_banks=38)),
    "small48k": lambda: builtin_arch("small48k"),
}
STREAM_ARCHS = {
    "default": lambda: builtin_arch("default"),
    "1+1": lambda: ArchConfig(memory=MemoryGeometry(fmm_src_banks=1, fmm_snk_banks=1)),
}
STREAM_NETS = 500


def _fields(obj):
    """`obj` as JSON values: a dataclass as the list of its fields, a list
    by its items and a plan's layer by its name."""
    if isinstance(obj, list):
        return [_fields(v) for v in obj]
    if not dataclasses.is_dataclass(obj):
        return obj
    return [getattr(obj, f.name).name if f.name == "layer" and not isinstance(obj.layer, str)
            else _fields(getattr(obj, f.name)) for f in dataclasses.fields(obj)]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def plan_digest(net, arch) -> str:
    """Digest of the plan's exec_order and fit report; for a net that fails
    to plan, its error type and the digest of its validate report."""
    try:
        plan = plan_network(net, arch)
    except BnnSimError as e:
        return f"{type(e).__name__} {_digest(_fields(validate(net, arch)))}"
    return _digest([[_fields(pl) for pl in plan.exec_order], _fields(plan.fit)])


def stream_nets():
    rng = np.random.default_rng(99)
    for _ in range(STREAM_NETS):
        yield netio.random_network(rng, n_layers=int(rng.integers(2, 7)),
                                   max_hw=16, max_channels=64)


def bundled_pins(name: str) -> dict:
    net = netio.builtin_network(name)
    return {arch: plan_digest(net, make()) for arch, make in BUNDLED_ARCHS.items()}


def stream_pins() -> dict:
    archs = {name: make() for name, make in STREAM_ARCHS.items()}
    nets = list(stream_nets())
    return {name: [d if " " in d else d[:16] for d in (plan_digest(net, arch) for net in nets)]
            for name, arch in archs.items()}


@pytest.mark.parametrize("name", NETS)
def test_bundled_plans_are_pinned(name):
    assert bundled_pins(name) == json.loads(PINS.read_text())["bundled"][name]


def test_random_net_plans_are_pinned():
    want = json.loads(PINS.read_text())["stream"]
    got = stream_pins()
    for arch in STREAM_ARCHS:
        moved = [i for i, (a, b) in enumerate(zip(got[arch], want[arch])) if a != b]
        assert not moved, f"{arch}: plans of stream nets {moved[:10]} moved"
    # the stream holds nets that tile and nets that fail to plan
    assert any(d.startswith("FitError ") for d in want["1+1"])


if __name__ == "__main__":
    PINS.write_text(json.dumps({"bundled": {name: bundled_pins(name) for name in NETS},
                                "stream": stream_pins()}, indent=1) + "\n")
