"""Command-line surface: verify, run, sweep, report."""

import contextlib
import io
import math
import re
import struct
import tempfile
import zlib
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnnsim.cli import main


def test_verify_builtin_shape(capsys):
    rc = main(["verify", "vgg_like_cifar10", "--seed", "5"])
    assert rc == 0
    assert "equal over" in capsys.readouterr().out


def test_run_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "vgg.run"
    rc = main(["run", "vgg_like_cifar10", "--seed", "2", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "graph_mop = 46.24" in text
    assert "core_mw" in text and "[layers]" in text
    capsys.readouterr()
    rc = main(["report", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("network,")
    assert lines[1].startswith("vgg_like_cifar10,46.2,")


def test_run_report_states_each_key_once(capsys):
    assert main(["run", "vgg_like_cifar10", "--seed", "2"]) == 0
    head = capsys.readouterr().out.split("[layers]")[0]
    keys = [line.partition(" = ")[0] for line in head.splitlines() if " = " in line]
    assert len(keys) == len(set(keys)) and {"net", "seed"} <= set(keys), keys


def test_run_deterministic_output(tmp_path):
    a, b = tmp_path / "a.run", tmp_path / "b.run"
    main(["run", "sed_freesound", "--seed", "9", "--out", str(a)])
    main(["run", "sed_freesound", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_sweep_headline_point(tmp_path, capsys):
    rc = main(["sweep", "--kernel", "7", "--banks", "4", "--out",
               str(tmp_path / "s.csv")])
    assert rc == 0
    row = (tmp_path / "s.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(241.5, rel=0.005)   # GOPS
    assert float(row[4]) == pytest.approx(223, rel=0.02)      # TOPS/W


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--kernel", "3,5,7", "--banks", "4..12", "--out", str(a)])
    main(["sweep", "--kernel", "3,5,7", "--banks", "4..12", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_run_empty_network_clean_error(tmp_path, capsys):
    p = tmp_path / "empty.net"
    p.write_text("network empty\ninput 3 8 8\nlayer a external k=3 out=8\n")
    rc = main(["run", str(p)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_shape_clean_error(capsys):
    rc = main(["run", "no_such_net"])
    assert rc == 2
    assert "no such network" in capsys.readouterr().err


def test_trace_dump(tmp_path):
    p = tmp_path / "t.net"
    p.write_text("network t\ninput 16 4 4\nlayer a k=1 out=16\n")
    trace = tmp_path / "trace.txt"
    rc = main(["run", str(p), "--seed", "1", "--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("SwapFMM")
    assert any(l.startswith("LoadFilterChunkToRowBanks") for l in lines)


def test_arch_env_var(tmp_path, monkeypatch, capsys):
    from bnnsim.arch import ArchConfig, MemoryGeometry, save_arch

    cfg = tmp_path / "tiny.arch"
    save_arch(ArchConfig(memory=MemoryGeometry(fmm_src_banks=16, fmm_snk_banks=32)), cfg)
    monkeypatch.setenv("BNNSIM_ARCH", str(cfg))
    rc = main(["run", "vgg_like_cifar10", "--seed", "1", "--out",
               str(tmp_path / "o.run")])
    assert rc == 0  # the 48 kB geometry from the env var is picked up and fits


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


# finite values the arch accepts but whose run report overflows: the error
# names the report's first number that is not finite
REPORT_OVERFLOWS = {("f_clk", "1e308"): "gops = 'inf'", ("io_pj_per_bit", "1e308"): "io_mw = 'inf'"}


@pytest.mark.parametrize("section,key,value", [
    ("operating", "f_clk", "-1"),
    ("memory", "io_bits_per_cycle", "0"),
    ("memory", "fmm_bank_words", "0"),
    ("memory", "fmm_src_banks", "-4"),
    ("compute", "n_bpu", "0"),
    ("operating", "f_clk", "inf"),
    ("calibration", "io_pj_per_bit", "1e400"),
    ("operating", "f_clk", "1e308"),
    ("calibration", "io_pj_per_bit", "1e308"),
    ("calibration", "full_banks", "4"),  # = gated_banks: the memory slope divides by zero
    ("calibration", "full_banks", "2"),  # below gated_banks: negative core power
    ("calibration", "io_pj_per_bit", "-1"),  # negative I/O energy
    pytest.param("calibration", "breakdown", "1000 memory:0.561, interconnect:0.157, "
                 "compute:0.176, control:0.027, other:0.079", id="calibration-breakdown-misnamed"),
])
def test_run_rejects_bad_arch_value(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "bad.arch"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    rc = main(["run", "resnet18_ilsvrc", "--arch", str(cfg)])
    assert rc == 2
    assert REPORT_OVERFLOWS.get((key, value), key) in _one_error_line(capsys)


def test_run_rejects_input_of_wrong_dims(tmp_path, capsys):
    from bnnsim.netio import save_tensor
    from bnnsim.tensors import BinaryTensor

    blob = tmp_path / "x.bin"
    save_tensor(blob, BinaryTensor(16, 8, 8))
    rc = main(["run", "vgg_like_cifar10", "--input", str(blob)])
    assert rc == 2
    assert "16x32x32" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_rejects_bad_accumulator_width(tmp_path, capsys, command):
    p = tmp_path / "acc0.net"
    p.write_text("network t\ninput 16 4 4\nacc_bits 0\nlayer a k=1 out=16\n")
    rc = main([command, str(p)])
    assert rc == 2
    assert "acc_bits" in _one_error_line(capsys)


def test_report_rejects_binary_file(tmp_path, capsys):
    blob = tmp_path / "run.bin"
    blob.write_bytes(bytes(range(256)))
    rc = main(["report", str(blob)])
    assert rc == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["report", "{tmp}/missing.run"],
    ["run", "vgg_like_cifar10", "--weights", "{tmp}/missing.bin"],
    ["run", "vgg_like_cifar10", "--input", "{tmp}"],
    ["run", "vgg_like_cifar10", "--arch", "no_such_arch"],
    ["run", "vgg_like_cifar10", "--arch", "{tmp}"],
], ids=["report-missing", "weights-missing", "input-directory", "arch-unknown", "arch-directory"])
def test_unreadable_path_clean_error(tmp_path, capsys, argv):
    rc = main([a.format(tmp=tmp_path) for a in argv])
    assert rc == 2
    assert argv[-1].format(tmp=tmp_path) in _one_error_line(capsys)


TINY_NET = "network t\ninput 16 4 4\nlayer a k=1 out=16\n"


def _truncated(blob: bytes) -> bytes:
    """`blob` with the second half of its body cut off, under a valid checksum."""
    body = blob[6:-4][: (len(blob) - 10) // 2]
    return blob[:6] + body + struct.pack("<I", zlib.crc32(body))


def _short_weights(tmp_path):
    from bnnsim.netio import parse_network, random_thresholds, random_weights, save_weights

    net_file = tmp_path / "t.net"
    net_file.write_text(TINY_NET)
    net = parse_network(TINY_NET)
    rng = np.random.default_rng(0)
    random_thresholds(net, rng)
    blob = tmp_path / "w.bin"
    save_weights(blob, net, random_weights(net, rng))
    blob.write_bytes(_truncated(blob.read_bytes()))
    return ["run", str(net_file), "--weights", str(blob)], "truncated weight blob"


def _short_tensor(tmp_path):
    from bnnsim.netio import save_tensor
    from bnnsim.tensors import BinaryTensor

    net_file = tmp_path / "t.net"
    net_file.write_text(TINY_NET)
    blob = tmp_path / "x.bin"
    save_tensor(blob, BinaryTensor(16, 4, 4))
    blob.write_bytes(_truncated(blob.read_bytes()))
    return ["run", str(net_file), "--input", str(blob)], "truncated tensor blob"


def _non_numeric_report(tmp_path):
    run_file = tmp_path / "bad.run"
    run_file.write_text("# run report\nnet = t\ngraph_mop = abc\n")
    return ["report", str(run_file)], "graph_mop = 'abc'"


def _report_with(tmp_path, key, value):
    """A full run report of vgg_like_cifar10 with `key` set to `value`, or
    its line dropped when `value` is None."""
    run_file = tmp_path / "edited.run"
    assert main(["run", "vgg_like_cifar10", "--seed", "2", "--out", str(run_file)]) == 0
    text = run_file.read_text()
    line = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    run_file.write_text(text.replace(f"{line}\n", "" if value is None else f"{key} = {value}\n", 1))
    return ["report", str(run_file)]


@pytest.mark.parametrize("case", [
    _short_weights,
    _short_tensor,
    _non_numeric_report,
    lambda t: (_report_with(t, "fps", None), "no fps line"),
    lambda t: (_report_with(t, "graph_mop", "nan"), "graph_mop = 'nan' is not a finite number"),
    lambda t: (_report_with(t, "fps", "inf"), "fps = 'inf' is not a finite number"),
    lambda _: (["sweep", "--kernel", "x"], "--kernel 'x'"),
    lambda _: (["sweep", "--banks", "4.."], "--banks '4..'"),
], ids=["weights-short-body", "tensor-short-body", "report-non-numeric", "report-missing-key",
        "report-nan", "report-inf", "sweep-kernel", "sweep-banks"])
def test_malformed_content_clean_error(tmp_path, capsys, case):
    argv, message = case(tmp_path)
    assert main(argv) == 2
    assert message in _one_error_line(capsys)


DEFAULT_ARCH = (files("bnnsim") / "shapes" / "default.arch").read_text().splitlines()


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(changes=st.dictionaries(
    st.sampled_from([line.partition(" = ")[0] for line in DEFAULT_ARCH
                     if _is_float(line.partition(" = ")[2])]),
    st.sampled_from(["0", "-1", "1e308", "1e400", "nan", "inf", "x", ""]),
    min_size=1, max_size=2))
@example(changes={"f_clk": "1e308"})
@example(changes={"io_pj_per_bit": "1e308"})
@example(changes={"full_banks": "0", "gated_banks": "0"})
def test_run_with_one_arch_value_ends_in_report_or_typed_error(changes):
    # one or two numeric keys of the bundled arch file set to extreme or
    # malformed values: the run either reports only finite numbers or exits 2
    # with one error line; an exception escaping main fails the test
    lines = [f"{key} = {changes[key]}" if (key := line.partition(" = ")[0]) in changes else line
             for line in DEFAULT_ARCH]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.arch"
        path.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["run", "vgg_like_cifar10", "--arch", str(path)])
    if rc == 0:
        numbers = [float(t) for t in re.split(r"[\s=,:()\[\]]+", out.getvalue()) if _is_float(t)]
        assert numbers and all(math.isfinite(v) for v in numbers), changes
    else:
        assert rc == 2, (changes, rc)
        errors = err.getvalue().strip().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:"), (changes, errors)
