"""Compare two perfbench result files (written by `run.py --out`).

    python3 perfbench/diff.py OLD.json NEW.json

Prints every modeled per-layer counter, and every modeled total, that
differs between the two files, then the host times side by side; when one
file is traced and the other is not, their difference is the tracing
overhead.  Exits 1 if any modeled number differs, else 0.  Modeled numbers
do not depend on the seed, so runs of one workload are comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _layer_key(layer: dict) -> tuple:
    return layer["name"], layer["tile"]


def modeled_diffs(old: dict, new: dict) -> list[str]:
    """One line per modeled number that differs, naming net, layer and tile."""
    lines = []
    for net in sorted(set(old) | set(new)):
        if net not in old or net not in new:
            lines.append(f"{net}: only in {'new' if net in new else 'old'}")
            continue
        a, b = old[net], new[net]
        for key in sorted((set(a) | set(b)) - {"layers"}):
            if a.get(key) != b.get(key):
                lines.append(f"{net} total {key}: {a.get(key)} -> {b.get(key)}")
        la = {_layer_key(l): l for l in a["layers"]}
        lb = {_layer_key(l): l for l in b["layers"]}
        for key in sorted(set(la) | set(lb)):
            name, tile = key
            if key not in la or key not in lb:
                lines.append(f"{net} layer {name} tile {tile}: only in "
                             f"{'new' if key in lb else 'old'}")
                continue
            for counter in sorted(set(la[key]) | set(lb[key])):
                va, vb = la[key].get(counter), lb[key].get(counter)
                if va != vb:
                    lines.append(f"{net} layer {name} tile {tile} {counter}: {va} -> {vb}")
    return lines


def host_lines(old: dict, new: dict) -> list[str]:
    """Host-time metrics present in both files, plus the tracing overhead."""
    lines = []
    mo, mn = old["metrics"], new["metrics"]
    for name in mo:
        if name in mn and mo[name]["unit"] == "s":
            a, b = mo[name]["value"], mn[name]["value"]
            lines.append(f"host {name}: {a:.6g} -> {b:.6g} s ({b - a:+.6g} s)")
    traces = old["env"]["trace"], new["env"]["trace"]
    if traces[0] != traces[1]:
        untraced, traced = (mo, mn) if traces[1] else (mn, mo)
        if "check_s" in untraced and "trace.check_s" in traced:
            over = traced["trace.check_s"]["value"] - untraced["check_s"]["value"]
            lines.append(f"tracing overhead per item: {over:+.6g} s "
                         f"({over / untraced['check_s']['value']:+.2%} of check_s)")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    if old["env"]["workload"] != new["env"]["workload"]:
        print(f"# note: workload differs ({old['env']['workload']} vs "
              f"{new['env']['workload']}); modeled numbers are expected to differ")
    diffs = modeled_diffs(old["modeled"], new["modeled"])
    for line in diffs:
        print(line)
    print(f"# {len(diffs)} modeled numbers differ")
    for line in host_lines(old, new):
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
