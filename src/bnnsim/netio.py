"""File formats and stimulus generation.

Network description (.net) is a line-oriented text format:

    # comment
    network <name>
    input <channels> <height> <width>
    acc_bits <n>                        (optional, default 16)
    bases <n>                           (optional default for binary layers)
    layer <name> [external] k=<1|3|5|7> out=<n> [stride=1|2]
          [pad=same0|same1|none] [pool=none|max|avg]
          [residual=<layer>[:int|:binary]] [bases=<n>]
          [input=<layer>] [flatten] [gpool]

Weight blobs are little-endian binary files carrying, per binary layer,
the packed kernel words (16 channel bits per word, laid out out-channel,
kernel-row, kernel-col, in-channel-group) plus either folded integer
thresholds or raw per-channel batch-norm rows that are folded at load
time.  A CRC32 over the payload guards the whole file.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError
from .functional import ThresholdVector, fold_thresholds
from .network import LayerConfig, NetworkDesc
from .tensors import BinaryTensor, lane_masks, n_groups

WEIGHT_MAGIC = b"BNNW"
TENSOR_MAGIC = b"BNNT"
FORMAT_VERSION = 1

_FLAGS = ("external", "flatten", "gpool")
_KEYS = ("k", "out", "stride", "pad", "pool", "residual", "bases", "input")


# ---------------------------------------------------------------------------
# network text format
# ---------------------------------------------------------------------------

def parse_network(text: str, path: str = "<string>") -> NetworkDesc:
    name = None
    input_dims = None
    acc_bits = 16
    default_bases = 1
    layers: list[LayerConfig] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        try:
            if head == "network":
                name = tokens[1]
            elif head == "input":
                input_dims = tuple(int(t) for t in tokens[1:4])
            elif head == "acc_bits":
                acc_bits = int(tokens[1])
            elif head == "bases":
                default_bases = int(tokens[1])
            elif head == "layer":
                layers.append(_parse_layer(tokens[1:], default_bases))
            else:
                raise FormatError(f"unknown directive {head!r}", path, lineno)
        except FormatError:
            raise
        except (ValueError, IndexError) as e:
            raise FormatError(f"bad {head!r} line: {e}", path, lineno) from e
    if name is None:
        raise FormatError("missing 'network' directive", path)
    if input_dims is None or len(input_dims) != 3:
        raise FormatError("missing or malformed 'input' directive", path)
    net = NetworkDesc(name, *input_dims, layers, acc_bits=acc_bits)
    try:
        net.validate()
    except ShapeError as e:
        raise FormatError(str(e), path) from e
    return net


def _parse_layer(tokens: list[str], default_bases: int) -> LayerConfig:
    lname = tokens[0]
    kw: dict = {}
    for tok in tokens[1:]:
        if tok in _FLAGS:
            kw[tok] = True
            continue
        if "=" not in tok:
            raise ValueError(f"unexpected token {tok!r}")
        key, val = tok.split("=", 1)
        if key not in _KEYS:
            raise ValueError(f"unknown attribute {key!r}")
        if key == "residual":
            if ":" in val:
                src, mode = val.split(":", 1)
                kw["residual"], kw["residual_mode"] = src, mode
            else:
                kw["residual"] = val
        elif key == "pad":
            kw["padding"] = val
        elif key == "out":
            kw["n_out"] = int(val)
        elif key == "input":
            kw["input_layer"] = val
        elif key == "pool":
            kw["pool"] = val
        else:
            kw[key] = int(val)
    if "k" not in kw or "n_out" not in kw:
        raise ValueError(f"layer {lname!r} needs k= and out=")
    if "bases" not in kw and not kw.get("external"):
        kw["bases"] = default_bases  # network-level default, binary layers only
    return LayerConfig(name=lname, **kw)


def format_network(net: NetworkDesc) -> str:
    lines = [f"network {net.name}", f"input {net.in_channels} {net.in_h} {net.in_w}"]
    if net.acc_bits != 16:
        lines.append(f"acc_bits {net.acc_bits}")
    for l in net.layers:
        parts = [f"layer {l.name}"]
        if l.external:
            parts.append("external")
        parts.append(f"k={l.k}")
        parts.append(f"out={l.n_out}")
        if l.stride != 1:
            parts.append(f"stride={l.stride}")
        if l.padding != "same0":
            parts.append(f"pad={l.padding}")
        if l.pool != "none":
            parts.append(f"pool={l.pool}")
        if l.residual is not None:
            parts.append(f"residual={l.residual}:{l.residual_mode}")
        if l.bases != 1:
            parts.append(f"bases={l.bases}")
        if l.input_layer is not None:
            parts.append(f"input={l.input_layer}")
        if l.flatten:
            parts.append("flatten")
        if l.gpool:
            parts.append("gpool")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_network(path) -> NetworkDesc:
    path = Path(path)
    return parse_network(path.read_text(), str(path))


def save_network(net: NetworkDesc, path) -> None:
    Path(path).write_text(format_network(net))


def builtin_network(name: str) -> NetworkDesc:
    """Load one of the shape files shipped with the package."""
    from importlib.resources import files

    res = files("bnnsim") / "shapes" / f"{name}.net"
    return parse_network(res.read_text(), f"shapes/{name}.net")


# ---------------------------------------------------------------------------
# weight blob
# ---------------------------------------------------------------------------

def save_weights(path, net: NetworkDesc, weights: dict) -> None:
    body = bytearray()
    binary = net.binary_layers()
    body += struct.pack("<H", len(binary))
    for l in binary:
        w = np.ascontiguousarray(np.asarray(weights[l.name], dtype="<u2"))
        g = n_groups(l.n_in)
        if w.shape != (l.bases, l.n_out, l.k, l.k, g):
            raise ShapeError(f"layer {l.name}: weight shape {w.shape}")
        th = l.thresholds
        if th is None:
            raise ShapeError(f"layer {l.name}: no thresholds to serialize")
        body += struct.pack("<HHHHBB", l.k, l.n_in, l.n_out, l.bases, 0, 0)
        body += np.asarray(th.t, dtype="<i4").tobytes()
        body += np.asarray(th.flip, dtype=np.uint8).tobytes()
        body += np.asarray(th.t_pool, dtype="<i4").tobytes()
        body += w.tobytes()
    header = WEIGHT_MAGIC + struct.pack("<H", FORMAT_VERSION)
    crc = zlib.crc32(bytes(body))
    Path(path).write_bytes(header + bytes(body) + struct.pack("<I", crc))


def load_weights(path, net: NetworkDesc) -> dict:
    """Read a weight blob, attach thresholds to the network layers, and
    return {layer name: packed weight array}."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != WEIGHT_MAGIC:
        raise FormatError("not a weight blob (bad magic)", str(path))
    try:
        return _parse_weights(blob, net, str(path))
    except (struct.error, ValueError) as e:   # a read past the end of the blob
        raise FormatError(f"truncated weight blob: {e}", str(path)) from e


def _parse_weights(blob: bytes, net: NetworkDesc, path: str) -> dict:
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported blob version {version}", path)
    body, (crc,) = blob[6:-4], struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(body) != crc:
        raise FormatError("checksum failure", path)
    off = 0
    (n_layers,) = struct.unpack_from("<H", body, off)
    off += 2
    binary = net.binary_layers()
    if n_layers != len(binary):
        raise FormatError(f"blob has {n_layers} layers, network has {len(binary)}", path)
    weights = {}
    for l in binary:
        k, n_in, n_out, bases, th_kind, _ = struct.unpack_from("<HHHHBB", body, off)
        off += 10
        if (k, n_in, n_out, bases) != (l.k, l.n_in, l.n_out, l.bases):
            raise FormatError(
                f"layer {l.name}: blob dims {(k, n_in, n_out, bases)} != "
                f"network dims {(l.k, l.n_in, l.n_out, l.bases)}", path)
        if th_kind == 0:
            t = np.frombuffer(body, "<i4", n_out, off).copy(); off += 4 * n_out
            flip = np.frombuffer(body, np.uint8, n_out, off).astype(bool); off += n_out
            t_pool = np.frombuffer(body, "<i4", n_out, off).copy(); off += 4 * n_out
            l.thresholds = ThresholdVector(t, flip, t_pool)
        elif th_kind == 1:
            raw = np.frombuffer(body, "<f8", n_out * 6, off).reshape(n_out, 6).copy()
            off += 48 * n_out
            l.thresholds = fold_thresholds(raw, k * k * n_in)
        else:
            raise FormatError(f"layer {l.name}: unknown threshold kind {th_kind}", path)
        g = n_groups(n_in)
        count = bases * n_out * k * k * g
        w = np.frombuffer(body, "<u2", count, off).reshape(bases, n_out, k, k, g).copy()
        off += 2 * count
        weights[l.name] = w
    if off != len(body):
        raise FormatError(f"{len(body) - off} trailing bytes", path)
    return weights


# ---------------------------------------------------------------------------
# tensor blob
# ---------------------------------------------------------------------------

def save_tensor(path, t: BinaryTensor) -> None:
    body = struct.pack("<HHH", t.channels, t.height, t.width)
    body += np.ascontiguousarray(t.words, dtype="<u2").tobytes()
    header = TENSOR_MAGIC + struct.pack("<H", FORMAT_VERSION)
    Path(path).write_bytes(header + body + struct.pack("<I", zlib.crc32(body)))


def load_tensor(path) -> BinaryTensor:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != TENSOR_MAGIC:
        raise FormatError("not a tensor blob (bad magic)", str(path))
    body, (crc,) = blob[6:-4], struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(body) != crc:
        raise FormatError("checksum failure", str(path))
    try:
        c, h, w = struct.unpack_from("<HHH", body, 0)
        words = np.frombuffer(body, "<u2", n_groups(c) * h * w, 6)
    except (struct.error, ValueError) as e:   # a read past the end of the blob
        raise FormatError(f"truncated tensor blob: {e}", str(path)) from e
    return BinaryTensor(c, h, w, words.reshape(n_groups(c), h, w).copy())


# ---------------------------------------------------------------------------
# random stimulus
# ---------------------------------------------------------------------------

def random_weights(net: NetworkDesc, rng: np.random.Generator) -> dict:
    """Random packed weights for every binary layer, unused lanes zeroed."""
    weights = {}
    for l in net.binary_layers():
        g = n_groups(l.n_in)
        masks = lane_masks(l.n_in)
        w = rng.integers(0, 1 << 16, size=(l.bases, l.n_out, l.k, l.k, g), dtype=np.uint16)
        weights[l.name] = w & masks
    return weights


def random_thresholds(net: NetworkDesc, rng: np.random.Generator) -> None:
    """Attach plausible random thresholds to every binary layer, centred on
    half the largest sum over all of its bases."""
    for l in net.binary_layers():
        n = l.bases * l.k * l.k * l.n_in
        mid = n // 2
        spread = max(1, n // 4)
        t = rng.integers(mid - spread, mid + spread + 1, size=l.n_out).astype(np.int32)
        flip = rng.random(l.n_out) < 0.2
        l.thresholds = ThresholdVector(np.clip(t, 0, n + 1), flip)


def random_input(net: NetworkDesc, rng: np.random.Generator) -> BinaryTensor:
    c, h, w = net.sim_input_dims()
    masks = lane_masks(c)
    words = rng.integers(0, 1 << 16, size=(n_groups(c), h, w), dtype=np.uint16)
    return BinaryTensor(c, h, w, words & masks[:, None, None])


def random_network(
    rng: np.random.Generator,
    n_layers: int | None = None,
    max_channels: int = 64,
    max_hw: int = 16,
    pool_prob: float = 0.3,
    residual_prob: float = 0.3,
    stride2_prob: float = 0.1,
    name: str = "random",
) -> NetworkDesc:
    """A random but always-valid binary network for property testing."""
    if n_layers is None:
        n_layers = int(rng.integers(1, 5))
    c = int(rng.integers(16, max_channels + 1))
    h = int(rng.integers(4, max_hw + 1))
    w = int(rng.integers(4, max_hw + 1))
    net = NetworkDesc(name, c, h, w, [])
    for i in range(n_layers):
        layer = None
        if net.layers and rng.random() < residual_prob:
            layer = _residual_layer(net, f"l{i}", rng)
        if layer is None:
            k = int(rng.choice([1, 3, 5, 7]))
            padding = str(rng.choice(["same0", "same1", "none"], p=[0.6, 0.2, 0.2]))
            stride = 2 if rng.random() < stride2_prob else 1
            # keep 'none' padding feasible on the running map
            probe = net.copy()
            layer = LayerConfig(
                name=f"l{i}", k=k, n_out=int(rng.integers(16, max_channels + 1)),
                stride=stride, padding=padding,
            )
            probe.layers.append(layer)
            try:
                probe.validate()
            except ShapeError:
                layer.padding = "same0"
                layer.stride = 1
        if rng.random() < pool_prob:
            if layer.padding == "none":
                layer.padding = "same0"
            probe = net.copy()
            trial = LayerConfig(**{**layer.__dict__, "pool": str(rng.choice(["max", "avg"]))})
            probe.layers.append(trial)
            try:
                probe.validate()
                layer.pool = trial.pool
            except ShapeError:
                pass
        net.layers.append(layer)
        net.validate()
    return net


def _residual_layer(net: NetworkDesc, name: str, rng) -> LayerConfig | None:
    """A same-padded stride-1 layer whose sums fold in an earlier map."""
    h, w = net.layers[-1].pooled_h, net.layers[-1].pooled_w
    mode = str(rng.choice(["int", "binary"]))
    candidates = []
    for src in net.layers:
        if src.external:
            continue
        if mode == "int":
            if src.pool == "none" and (src.out_h, src.out_w) == (h, w):
                candidates.append(src)
        elif (src.pooled_h, src.pooled_w) == (h, w):
            candidates.append(src)
    if not candidates:
        return None
    src = candidates[int(rng.integers(0, len(candidates)))]
    return LayerConfig(
        name=name, k=int(rng.choice([1, 3])), n_out=src.n_out,
        padding=str(rng.choice(["same0", "same1"])),
        residual=src.name, residual_mode=mode,
    )
