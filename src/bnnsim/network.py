"""Layer graph description and validation.

A network is an ordered list of layers; each layer consumes the previous
layer's output unless it names another earlier layer with `input_layer`.
Residual edges point strictly backward and are accumulated into the
consumer's integer sums before re-binarization.  Layers marked external
(non-binarized first/last stages) are shape-checked and op-counted but
never simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ShapeError
from .functional import ThresholdVector, conv_out_hw
from .tensors import LANES

SUPPORTED_KERNELS = (1, 3, 5, 7)
PADDINGS = ("same0", "same1", "none")
POOLS = ("none", "max", "avg")
RESIDUAL_MODES = ("int", "binary")
ACC_MODES = ("error", "saturate")


@dataclass
class LayerConfig:
    """One layer of the graph; spatial dims are filled in by validation."""

    name: str
    k: int
    n_out: int
    stride: int = 1
    padding: str = "same0"
    pool: str = "none"
    residual: str | None = None
    residual_mode: str = "int"
    bases: int = 1
    flatten: bool = False
    gpool: bool = False
    external: bool = False
    input_layer: str | None = None
    thresholds: ThresholdVector | None = None

    # derived during NetworkDesc.validate()
    n_in: int = field(default=0, compare=False)
    in_h: int = field(default=0, compare=False)
    in_w: int = field(default=0, compare=False)
    out_h: int = field(default=0, compare=False)   # conv output, pre-pool
    out_w: int = field(default=0, compare=False)
    pooled_h: int = field(default=0, compare=False)
    pooled_w: int = field(default=0, compare=False)

    @property
    def pad(self) -> int:
        """Columns (and rows) of 'same' padding on each side of the map."""
        return (self.k - 1) // 2 if self.padding != "none" else 0

    def out_dims(self) -> tuple[int, int, int]:
        """Final output dims (channels, h, w) after any pooling."""
        return self.n_out, self.pooled_h, self.pooled_w

    def macs(self) -> int:
        """Graph-level MAC count (full k*k taps, conv output dims, all bases)."""
        return self.k * self.k * self.n_in * self.n_out * self.out_h * self.out_w * self.bases

    def weight_bits(self) -> int:
        return self.k * self.k * self.n_in * self.n_out * self.bases

    def param_bits(self) -> int:
        """Weights plus 16-bit thresholds, as stored in the parameter buffer."""
        return self.weight_bits() + 16 * self.n_out


@dataclass
class NetworkDesc:
    name: str
    in_channels: int
    in_h: int
    in_w: int
    layers: list[LayerConfig] = field(default_factory=list)
    acc_bits: int = 16
    acc_mode: str = "error"

    def layer(self, name: str) -> LayerConfig:
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(name)

    def binary_layers(self) -> list[LayerConfig]:
        return [l for l in self.layers if not l.external]

    def validate(self) -> "NetworkDesc":
        """Chain shapes through the graph and check every structural rule."""
        if not 1 <= self.acc_bits <= 32:   # partial sums are int32
            raise ShapeError(f"acc_bits {self.acc_bits} is outside 1..32")
        if self.acc_mode not in ACC_MODES:
            raise ShapeError(f"acc_mode {self.acc_mode!r} is not one of {', '.join(ACC_MODES)}")
        if not self.layers:
            return self
        names = set()
        for l in self.layers:
            if l.name in names:
                raise ShapeError(f"duplicate layer name {l.name!r}")
            names.add(l.name)

        # externals must be a prefix and/or suffix around the binary body
        kinds = [l.external for l in self.layers]
        body = [i for i, ext in enumerate(kinds) if not ext]
        if body:
            lo, hi = body[0], body[-1]
            if any(kinds[lo:hi + 1]):
                raise ShapeError("external layers are only allowed before or after the binary body")

        dims: dict[str, tuple[int, int, int]] = {}
        current = (self.in_channels, self.in_h, self.in_w)
        for l in self.layers:
            if l.input_layer is not None:
                if l.external:
                    raise ShapeError(f"external layer {l.name} cannot re-route its input")
                if l.input_layer not in dims or self.layer(l.input_layer).external:
                    raise ShapeError(f"layer {l.name}: input {l.input_layer!r} is not an earlier binary layer")
                c, h, w = dims[l.input_layer]
            else:
                c, h, w = current

            if l.gpool:
                if not l.external:
                    raise ShapeError(f"layer {l.name}: global pooling is host-side only")
                h = w = 1
            if l.flatten:
                if not l.external and c % LANES != 0:
                    raise ShapeError(f"layer {l.name}: flatten needs a multiple of {LANES} channels, got {c}")
                c, h, w = c * h * w, 1, 1
                if l.k != 1:
                    raise ShapeError(f"layer {l.name}: flattened input requires a 1x1 kernel")

            if not l.external:
                if l.k not in SUPPORTED_KERNELS:
                    raise ShapeError(f"layer {l.name}: unsupported kernel {l.k}x{l.k}")
                if l.stride not in (1, 2):
                    raise ShapeError(f"layer {l.name}: stride {l.stride} not supported")
            if l.padding not in PADDINGS:
                raise ShapeError(f"layer {l.name}: unknown padding {l.padding!r}")
            if l.pool not in POOLS:
                raise ShapeError(f"layer {l.name}: unknown pool {l.pool!r}")
            if l.n_out <= 0:
                raise ShapeError(f"layer {l.name}: zero-size layer")
            if l.bases < 1:
                raise ShapeError(f"layer {l.name}: bases must be >= 1")

            oh, ow = conv_out_hw(h, w, l.k, l.stride, l.padding != "none")
            ph, pw = oh, ow
            if l.pool != "none":
                ph, pw = oh // 2, ow // 2
                if ph == 0 or pw == 0:
                    raise ShapeError(f"layer {l.name}: 2x2 pool on a {oh}x{ow} map")

            l.n_in, l.in_h, l.in_w = c, h, w
            l.out_h, l.out_w, l.pooled_h, l.pooled_w = oh, ow, ph, pw

            if l.residual is not None:
                self._check_residual(l, dims)

            dims[l.name] = (l.n_out, ph, pw)
            current = dims[l.name]
        return self

    def _check_residual(self, l: LayerConfig, dims: dict) -> None:
        if l.external:
            raise ShapeError(f"external layer {l.name} cannot take a residual")
        if l.residual_mode not in RESIDUAL_MODES:
            raise ShapeError(f"layer {l.name}: residual mode {l.residual_mode!r}")
        src = l.residual
        if src not in dims:
            raise ShapeError(f"layer {l.name}: residual source {src!r} is not an earlier layer")
        src_layer = self.layer(src)
        if l.residual_mode == "int":
            if src_layer.external:
                raise ShapeError(f"layer {l.name}: int residual from external layer {src}")
            if src_layer.pool != "none":
                raise ShapeError(f"layer {l.name}: int residual source {src} must not pool")
            src_dims = (src_layer.n_out, src_layer.out_h, src_layer.out_w)
        else:
            if src_layer.external and not self._is_last_prefix_external(src):
                raise ShapeError(f"layer {l.name}: binary residual from hidden external layer {src}")
            src_dims = dims[src]
        if src_dims != (l.n_out, l.out_h, l.out_w):
            raise ShapeError(
                f"layer {l.name}: residual dims {src_dims} != conv output "
                f"{(l.n_out, l.out_h, l.out_w)}"
            )

    def _is_last_prefix_external(self, name: str) -> bool:
        last = None
        for l in self.layers:
            if l.external:
                last = l.name
            else:
                break
        return name == last

    def sim_input_dims(self) -> tuple[int, int, int]:
        """Dims of the map fed to the first binary layer."""
        body = self.binary_layers()
        if not body:
            raise ShapeError("network has no binary layers to simulate")
        first = body[0]
        c, h, w = first.n_in, first.in_h, first.in_w
        if first.flatten:  # the stored map is the pre-flatten shape
            idx = self.layers.index(first)
            if idx == 0:
                return self.in_channels, self.in_h, self.in_w
            prev = self.layers[idx - 1]
            return prev.out_dims()
        return c, h, w

    def op_count(self) -> dict:
        """Graph arithmetic: 2 ops per MAC, conv output dims, every layer."""
        total = binary = 0
        for l in self.layers:
            ops = 2 * l.macs()
            total += ops
            if not l.external:
                binary += ops
        return {
            "total_ops": total,
            "binary_ops": binary,
            "total_mop": total / 1e6,
            "binary_fraction": binary / total if total else 0.0,
        }

    def copy(self) -> "NetworkDesc":
        return NetworkDesc(
            self.name, self.in_channels, self.in_h, self.in_w,
            [replace(l) for l in self.layers], self.acc_bits, self.acc_mode,
        )
