"""Command-line interface.

    bnnsim verify <net> [--seed N] [--trials N] [--arch FILE]
    bnnsim run <net> [--weights FILE] [--input FILE] [--arch FILE]
                     [--seed N] [--out FILE] [--trace FILE]
    bnnsim sweep [--kernel 1,3,5,7] [--banks 4..48] [--arch FILE] [--out FILE]
    bnnsim report <runfiles...> [--out FILE]

Networks are given as a file path or the name of a bundled shape
(vgg_like_cifar10, resnet18_ilsvrc, resnet18_ilsvrc_3x, resnet18_ilsvrc_8x,
alexnet_dorefa_ilsvrc, sed_freesound).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import netio
from .arch import ArchConfig, builtin_arch, default_arch, load_arch
from .errors import BnnSimError, FormatError
from .power import core_power, efficiency, full_report, ideal_point
from .simulator import run as run_network
from .simulator import check, utilization

ARCH_ENV = "BNNSIM_ARCH"


def _resolve_arch(path: str | None) -> ArchConfig:
    path = path or os.environ.get(ARCH_ENV)
    if path is None:
        return default_arch()
    if Path(path).exists():
        return load_arch(path)
    try:
        return builtin_arch(path)
    except FileNotFoundError:
        raise BnnSimError(f"no such arch file or bundled arch: {path!r}")


def _resolve_net(name: str):
    if Path(name).exists():
        return netio.load_network(name)
    try:
        return netio.builtin_network(name)
    except FileNotFoundError:
        raise BnnSimError(f"no such network file or bundled shape: {name!r}")


def _prepare_stimulus(net, args, rng):
    if getattr(args, "weights", None):
        weights = netio.load_weights(args.weights, net)
    else:
        netio.random_thresholds(net, rng)
        weights = netio.random_weights(net, rng)
    if getattr(args, "input", None):
        x = netio.load_tensor(args.input)
    else:
        x = netio.random_input(net, rng)
    return weights, x


def cmd_verify(args) -> int:
    arch = _resolve_arch(args.arch)
    failures = 0
    for trial in range(args.trials):
        rng = np.random.default_rng(args.seed + trial)
        net = _resolve_net(args.net)
        weights, x = _prepare_stimulus(net, args, rng)
        rep = check(net, x, weights, arch)
        if rep.equal:
            print(f"trial {trial}: equal over {rep.layers_checked} layers")
        failures += not rep.equal
        for what, at in rep.first_divergence.items():
            if at:
                layer, c, y, xx = at
                print(f"trial {trial}: DIVERGENCE of {what} at {layer} channel {c} pixel ({y},{xx})")
    if failures:
        print(f"{failures}/{args.trials} trials diverged")
        return 1
    return 0


def cmd_run(args) -> int:
    arch = _resolve_arch(args.arch)
    rng = np.random.default_rng(args.seed)
    net = _resolve_net(args.net)
    if not net.binary_layers():
        raise BnnSimError(f"network {net.name!r} has no binary layers to simulate")
    weights, x = _prepare_stimulus(net, args, rng)
    outputs, stats, plan = run_network(net, x, weights, arch)
    util = utilization(stats, arch)
    power = full_report(arch, stats)
    oc = net.op_count()
    f_clk = arch.op_point.f_clk
    t = stats.time_s(f_clk)
    header = [
        "# run report",
        f"seed = {args.seed}",
        f"graph_mop = {oc['total_mop']:.6f}",
        f"binary_fraction = {oc['binary_fraction']:.6f}",
        f"gops = {stats.xnor_ops_done / t / 1e9:.4f}",
        f"fps = {1.0 / t:.4f}",
        f"fits_untiled = {plan.fit.fits_untiled}",
    ]
    text = "\n".join(header) + "\n" + util.to_text() + power.to_text() + stats.to_text()
    _summary_row(_scan_kv(text), f"run report of {net.name}")  # what `report` would refuse
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    if args.trace:
        with open(args.trace, "w") as fh:
            for line in plan.dump_lines():
                fh.write(line + "\n")
    return 0


def _parse_range(option: str, text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise FormatError(f"{option} {text!r}: want a list like 1,3,5 or a range like 4..48")


def cmd_sweep(args) -> int:
    arch = _resolve_arch(args.arch)
    kernels = _parse_range("--kernel", args.kernel)
    banks = _parse_range("--banks", args.banks)
    f_clk = arch.op_point.f_clk
    lines = ["kernel,banks,gops,core_mw,tops_per_watt"]
    for k in kernels:
        if not arch.compute.kernel_ok(k):
            print(f"# kernel {k} unsupported, skipped", file=sys.stderr)
            continue
        for b in banks:
            if b > arch.memory.fmm_banks_total:
                continue
            st = ideal_point(k, b)
            mw, _, _ = core_power(arch, st)
            gops = st.xnor_ops_done / st.cycles_total * f_clk / 1e9
            eff = efficiency(st, mw, f_clk)
            lines.append(f"{k},{b},{gops:.4f},{mw:.6f},{eff:.4f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def _scan_kv(text: str) -> dict:
    vals = {}
    for line in text.splitlines():
        if line.startswith("[layers]"):
            break
        if " = " in line and not line.startswith("#"):
            key, _, val = line.partition(" = ")
            vals[key.strip()] = val.strip()
    return vals


def _summary_row(kv: dict, path: str) -> str:
    """The `report` CSV row of a run report's scanned keys; a FormatError
    names the first number it reads that is missing or not finite."""

    def num(key: str) -> float:
        if key not in kv:
            raise FormatError(f"no {key} line", path)
        try:
            if np.isfinite(value := float(kv[key])):
                return value
        except ValueError:
            pass
        raise FormatError(f"{key} = {kv[key]!r} is not a finite number", path)

    return ",".join([
        kv.get("net", Path(path).stem),
        f"{num('graph_mop'):.1f}",
        f"{100 * num('util_kernel_limited'):.1f}",
        f"{num('gops'):.1f}",
        f"{num('core_mw'):.3f}",
        f"{num('io_mw'):.3f}",
        f"{num('total_mw'):.3f}",
        f"{num('core_uj'):.1f}",
        f"{num('io_uj'):.1f}",
        f"{num('energy_uj_per_inference'):.1f}",
        f"{num('tops_per_watt'):.2f}",
        f"{num('fps'):.1f}",
    ])


def cmd_report(args) -> int:
    cols = ["network", "net_mop", "util_pct", "gops", "core_mw", "io_mw",
            "total_mw", "core_uj", "io_uj", "total_uj", "core_tops_w", "fps"]
    lines = [",".join(cols)]
    for path in args.runfiles:
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as e:
            raise FormatError(f"not a text run report ({e.reason})", path) from e
        lines.append(_summary_row(_scan_kv(text), path))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bnnsim", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="bit identity with the golden model and the bipolar oracle")
    v.add_argument("net")
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--trials", type=int, default=1)
    v.add_argument("--arch")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("run", help="simulate one inference and report stats/power")
    r.add_argument("net")
    r.add_argument("--weights", help="weight blob (default: random)")
    r.add_argument("--input", help="input tensor blob (default: random)")
    r.add_argument("--arch")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--out", help="write the report to a file")
    r.add_argument("--trace", help="write the schedule trace to a file")
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="ideal-layer grid: throughput vs efficiency")
    s.add_argument("--kernel", default="1,3,5,7")
    s.add_argument("--banks", default="4..48")
    s.add_argument("--arch")
    s.add_argument("--out")
    s.set_defaults(func=cmd_sweep)

    g = sub.add_parser("report", help="merge run reports into a summary CSV")
    g.add_argument("runfiles", nargs="+")
    g.add_argument("--out")
    g.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BnnSimError, OSError) as e:   # OSError: a named file cannot be read or written
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
