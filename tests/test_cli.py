import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import bhl
from bhl.cli import run
from bhl.coxeter import build_group
from bhl.sigma import SigmaEngine
from bhl.verify import run_suite


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_command(capsys):
    code, out, _ = invoke(capsys, "group", "--type", "A2", "--info")
    assert code == 0
    assert out == (
        "type: A2\n"
        "order: 6\n"
        "lengths: 1,2,2,1\n"
        "positive_roots: (1,0) (0,1) (1,1)\n"
    )


def test_meet_and_vmin(capsys):
    code, out, _ = invoke(capsys, "meet", "--type", "A2", "-u", "12", "-w", "21")
    assert code == 0 and out == "1\n"
    code, out, _ = invoke(capsys, "vmin", "--type", "A2", "-u", "12", "-w", "21")
    assert code == 0 and out == "2\n"


def test_theta_command(capsys):
    code, out, _ = invoke(
        capsys, "theta", "--type", "A2", "-x", "1", "-y", "1", "-w", "1"
    )
    assert code == 0 and out == "q^2\n"


def test_rpoly_command(capsys):
    code, out, _ = invoke(capsys, "rpoly", "--type", "A2", "-u", "e", "-v", "1")
    assert code == 0 and out == "(x1 - q*x1) / (1 - x1)\n"
    code, out, _ = invoke(
        capsys, "rpoly", "--type", "A2", "-u", "e", "-v", "1", "--bar"
    )
    assert code == 0 and out == "(-q^-1*x1 + x1) / (1 - x1)\n"


def test_sigma_text_format(capsys):
    code, out, _ = invoke(
        capsys, "sigma", "--type", "A2", "-u", "e", "-v", "1", "-w", "e"
    )
    assert code == 0
    assert out == "σ = (1 - q^-1*x1) / (1 - x1)\n"


def test_sigma_json_format(capsys):
    code, out, _ = invoke(
        capsys,
        "sigma", "--type", "A2", "-u", "1", "-v", "1", "-w", "12",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "A2"
    assert payload["u"] == "1" and payload["v"] == "1" and payload["w"] == "12"
    g = build_group("A2")
    expected = SigmaEngine(g).sigma(g.simple(1), g.simple(1), g.from_word("12"))
    assert payload["sigma"] == str(expected)


def test_sigma_words_non_reduced_input(capsys):
    # non-reduced input words are accepted; output words are canonical
    code, out, _ = invoke(
        capsys, "vmin", "--type", "A2", "-u", "1121", "-w", "2211"
    )
    assert code == 0 and out == "21\n"


def test_classify_json(capsys):
    code, out, _ = invoke(capsys, "classify", "--type", "A2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "A2"
    assert payload["total"] == 216
    assert payload["nonzero"] == 167
    assert payload["gk"] == 147
    assert len(payload["exceptions"]) == 20
    assert {"u": "1", "v": "1", "w": "12"} in payload["exceptions"]
    assert list(payload) == ["type", "total", "nonzero", "gk", "exceptions"]


def test_classify_csv_and_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, _ = invoke(
        capsys,
        "classify", "--type", "A2", "--format", "csv", "--out", str(out_file),
    )
    assert code == 0 and out == ""
    lines = out_file.read_text().splitlines()
    assert lines[0] == "type,u,v,w,is_gk,sigma0"
    assert len(lines) == 168  # header + one row per nonzero triple
    assert lines[1] == "A2,1,1,1,true,q"
    assert "A2,1,1,12,false,q + q^2" in lines


def test_classify_jobs_byte_identical(capsys):
    code, out1, _ = invoke(capsys, "classify", "--type", "A2", "--jobs", "1")
    assert code == 0
    code, out2, _ = invoke(capsys, "classify", "--type", "A2", "--jobs", "2")
    assert code == 0
    assert out1 == out2


def test_verify_command(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--type", "A2", "--suite", "main-theorem"
    )
    assert code == 0
    assert out == "main-theorem: PASS (36 pairs)\n"


def test_verify_all_suites_b2(capsys):
    code, out, _ = invoke(capsys, "verify", "--type", "B2", "--suite", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(": PASS (" in line for line in lines)


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--type", "B2"], "6f4ef21a9eac648765d9f16116579801ba59f03b5a2a6d4c127de3350cac092a"),
        (
            ["--type", "B3", "--samples", "40"],
            "4dfb98c64f6534a68cae98d17267e0074be5d3b8282a9685da1c1ece57325665",
        ),
    ],
    ids=["B2", "B3-samples40"],
)
def test_verify_all_stdout_is_pinned(capsys, args, digest):
    """The sha256 of the whole stdout pins every suite's detail count, so a
    change in what a suite samples or counts shows here."""
    code, out, _ = invoke(capsys, "verify", "--suite", "all", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--type", "A2"],
        ["classify", "--type", "A2", "--format", "csv"],
        ["verify", "--type", "A2", "--suite", "all"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_ends_by_sigpipe_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before bhl writes anything
    env = dict(os.environ, PYTHONPATH=str(Path(bhl.__file__).parent.parent))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bhl.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, b"")


def test_word_round_trip_via_cli(capsys, a3):
    for w in a3.elements():
        code, out, _ = invoke(
            capsys, "vmin", "--type", "A3", "-u", w.word(), "-w", "e"
        )
        assert code == 0 and out.strip() == w.word()


def test_usage_errors_exit_two(capsys, tmp_path):
    code, _, err = invoke(capsys, "group", "--type", "Z9")
    assert code == 2 and "unsupported" in err
    code, _, err = invoke(capsys, "sigma", "--type", "A2", "-u", "x", "-v", "1", "-w", "e")
    assert code == 2 and "malformed" in err
    code, _, err = invoke(capsys, "classify")
    assert code == 2
    code, _, err = invoke(capsys, "verify", "--type", "A2", "--suite", "nope")
    assert code == 2
    for cmd in (["classify"], ["verify", "--suite", "theta"]):
        for jobs in ("0", "-3", "x"):
            code, out, err = invoke(capsys, *cmd, "--type", "A2", "--jobs", jobs)
            assert code == 2 and out == "" and "at least 1" in err
    for suite in ("vanishing", "mixed-meet", "all"):
        for samples in ("0", "-3", "x"):
            code, out, err = invoke(
                capsys, "verify", "--type", "B3", "--suite", suite, "--samples", samples
            )
            assert code == 2 and out == "" and "at least 1" in err
    with pytest.raises(ValueError, match="at least 1"):
        run_suite("vanishing", build_group("A2"), samples=0)
    for path in (tmp_path, tmp_path / "missing" / "f.json"):
        code, out, err = invoke(capsys, "classify", "--type", "A2", "--out", str(path))
        assert code == 2 and out == "" and err.startswith("error: cannot write")
    assert list(tmp_path.iterdir()) == []


def test_order_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("BHL_MAX_ORDER", "10")
    code, _, err = invoke(capsys, "group", "--type", "A3")
    assert code == 2 and "cap" in err
    monkeypatch.setenv("BHL_MAX_ORDER", "abc")
    code, out, err = invoke(capsys, "group", "--type", "A2")
    assert code == 2 and out == "" and "BHL_MAX_ORDER" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_engine_invariant_failure_exits_one(capsys, monkeypatch, jobs):
    """A RuntimeError raised for one w, in a forked worker too, ends the run
    with its message on stderr and exit 1, not a traceback."""
    original = SigmaEngine.classify_for_w

    def failing(self, w):
        if w == 3:
            raise RuntimeError(f"invariant broken (u=1, v=1, w={self.group.word_str(w)})")
        return original(self, w)

    monkeypatch.setattr(SigmaEngine, "classify_for_w", failing)
    code, out, err = invoke(capsys, "classify", "--type", "A2", "--jobs", jobs)
    w = build_group("A2").word_str(3)
    assert (code, out) == (1, "")
    assert err == f"error: invariant broken (u=1, v=1, w={w})\n"
