"""Pinned modeled output of every bundled net.

For seed 1 on the default arch, each net's run is pinned by two SHA-256
digests: one of `Stats.to_text()` (every counter, per layer run and per
bank) and one of every binary layer's output words, in layer order.  A
change that moves one modeled counter or one output bit fails here.

The bipolar oracle is pinned too: one digest of every layer's
`run_bipolar_reference` sums (`<i4`) and bits (`u1`), hashed in (C, H, W)
order, so the digest does not depend on the memory order the oracle keeps.

Each net's `arch.validate()` report is pinned too, on the default arch and
on a 38+38-bank one on which resnet18_ilsvrc and sed_freesound tile: one
digest of every report and entry field per arch.

Regenerate the pins only with a change that means to move them:

    PYTHONPATH=src python tests/test_bundled_pins.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bnnsim import (ArchConfig, MemoryGeometry, default_arch, netio, run, run_bipolar_reference,
                    validate)

from helpers import write_pins

PINS = Path(__file__).parent / "data" / "bundled_pins.json"
NETS = ("vgg_like_cifar10", "resnet18_ilsvrc", "resnet18_ilsvrc_3x", "resnet18_ilsvrc_8x",
        "alexnet_dorefa_ilsvrc", "sed_freesound")
FIT_ARCHS = {"default": default_arch,
             "38+38": lambda: ArchConfig(memory=MemoryGeometry(fmm_src_banks=38, fmm_snk_banks=38))}
REPORT_FIELDS = ("fits_untiled", "needs_tiling", "unsupported_kernels", "weights_fit_pb",
                 "streamed_param_bits")
ENTRY_FIELDS = ("layer", "active_banks", "fits", "tiles", "overlap_cols")


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
            "outputs": words.hexdigest(), "oracle": oracle_digest(net, x, weights),
            "fit": fit_digests(net)}


def oracle_digest(net, x, weights) -> str:
    """Digest of every layer's oracle sums and bits, each in (C, H, W) order."""
    h = hashlib.sha256()
    for sums, bits in run_bipolar_reference(net, x, weights).values():
        h.update(np.ascontiguousarray(sums, dtype="<i4").tobytes())
        h.update(np.ascontiguousarray(bits, dtype="u1").tobytes())
    return h.hexdigest()


def fit_digests(net) -> dict:
    """Per arch, the digest of the fit report's fields and its entries'."""
    out = {}
    for arch_name, make_arch in FIT_ARCHS.items():
        report = validate(net, make_arch())
        fields = [getattr(report, f) for f in REPORT_FIELDS]
        fields += [[getattr(e, f) for f in ENTRY_FIELDS] for e in report.entries]
        out[arch_name] = hashlib.sha256(json.dumps(fields).encode()).hexdigest()
    return out


@pytest.mark.parametrize("name", NETS)
def test_bundled_net_output_is_pinned(name):
    assert digests(name) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    write_pins(PINS, {name: digests(name) for name in NETS})
