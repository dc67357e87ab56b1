"""Tests of the benchmark itself.  Run with `python -m pytest perfbench`."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import diff  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# --seconds 0 runs every item of the workload's pool once and no more
TINY = ["--workload", "random_nets", "--seed", "7", "--seconds", "0"]


def bench(*args, out=None, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    if out is not None:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def summary(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_prints_every_named_metric(trace, kind):
    proc = bench(*TINY, "--trace", trace)
    s = summary(proc)
    assert set(s) == {"correct", "attempted", "failed", "metrics"}
    assert s["correct"] and s["attempted"] == 200 and s["failed"] == 0
    assert set(s["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert s["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b",
                         proc.stdout, re.M), m["name"]
    assert "sim_fail_rate = 0 ratio" in proc.stdout
    assert "oracle_fail_rate = 0 ratio" in proc.stdout


def test_same_seed_gives_identical_modeled_numbers(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    sa = summary(bench(*TINY, "--trace", "0", out=a))
    sb = summary(bench(*TINY, "--trace", "0", out=b))
    for name in ("modeled_cycles", "modeled_energy_uj", "modeled_util"):
        assert sa["metrics"][name] == sb["metrics"][name]
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["modeled"] == rb["modeled"] and len(ra["modeled"]) == 200
    assert ra["env"]["seed"] == 7 and ra["env"]["threads"]["OPENBLAS_NUM_THREADS"]
    assert diff.main([str(a), str(b)]) == 0

    # another seed draws other data for the same shapes: modeled numbers stay
    other = [*TINY[:3], "8", *TINY[4:]]
    summary(bench(*other, "--trace", "1", out=c))
    rc = json.loads(c.read_text())
    assert rc["modeled"] == ra["modeled"]
    assert diff.main([str(a), str(c)]) == 0
    names = {s[0] for s in rc["spans"]}
    assert {"item", "netio.stimulus", "simulator.execute", "oracle.run_bipolar_reference"} <= names
    assert all(len(s) == 5 and s[2] >= s[1] for s in rc["spans"])

    # a changed layer counter in a result file is found
    rc["modeled"]["net0"]["layers"][0]["cycles_load"] += 1
    c.write_text(json.dumps(rc))
    assert diff.main([str(a), str(c)]) == 1


def test_diff_names_each_changed_layer_counter():
    layer = {"name": "c1", "tile": 0, "k": 3, "cycles_load": 10, "fmm_reads": 4}
    old = {"n": {"cycles": 10, "layers": [layer]}}
    new = {"n": {"cycles": 12, "layers": [{**layer, "cycles_load": 12}]}}
    assert diff.modeled_diffs(old, new) == ["n total cycles: 10 -> 12",
                                            "n layer c1 tile 0 cycles_load: 10 -> 12"]
    assert diff.modeled_diffs(old, old) == []


def test_resnet18_modeled_cycles_match_bnnsim_run():
    proc = bench("--workload", "resnet18", "--seed", "3", "--seconds", "0", "--trace", "0")
    s = summary(proc)
    cli = subprocess.run([sys.executable, "-m", "bnnsim.cli", "run", "resnet18_ilsvrc"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert cli.returncode == 0, cli.stderr
    cycles = int(re.search(r"^cycles_total = (\d+)$", cli.stdout, re.M).group(1))
    assert s["metrics"]["modeled_cycles"]["value"] == cycles
    # the oracle's known defect on input= layers is counted, not hidden
    assert s["correct"] and s["failed"] == 0
    assert "oracle_fail_rate = 1 ratio" in proc.stdout


def test_run_leaves_the_checkout_clean():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def status():
        return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout

    before = status()
    summary(bench(*TINY, "--trace", "1"))
    assert status() == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(*TINY, "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
