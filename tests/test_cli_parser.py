"""One argument parser per process: ``cli.build_parser`` builds it on first
use and every later ``cli.main`` call reuses it, with the same exit codes,
output and files as a freshly built parser."""

import argparse
import contextlib
import io
import os
import subprocess
import sys

import pytest

import cylpack
from cylpack import cli


@pytest.fixture
def fresh_parser():
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(cylpack.__file__))
    code = "from cylpack import cli; print(cli.build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "0"


def test_repeated_calls_build_one_parser(tmp_path, monkeypatch, fresh_parser):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    inst = str(tmp_path / "ns.json")
    assert _run(["construct", "--kind", "ns-family", "--n", "4", "--out", inst])[0] == 0
    once = len(built)
    assert built.count("cylpack") == 1
    for argv in (["verify", inst], ["bounds", inst], ["falconer", inst], ["verify"]):
        _run(argv)
    assert len(built) == once


SEQUENCE = (
    ["construct", "--kind", "ns-family", "--n", "4", "--r", "2", "--seed", "3",
     "--out", "ns.json"],
    ["verify"],  # a usage error: SystemExit 2
    ["verify", "ns.json"],
    ["bounds", "ns.json", "--format", "csv"],
    ["falconer", "ns.json", "--svg", "family.svg"],
)


def _files(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _steps(directory, monkeypatch, fresh: bool) -> list:
    """(exit code, stdout, stderr, files) after each step of SEQUENCE, run in
    ``directory`` with one parser or, ``fresh``, a new parser per step."""
    monkeypatch.chdir(directory)
    cli.build_parser.cache_clear()
    steps = []
    for argv in SEQUENCE:
        if fresh:
            cli.build_parser.cache_clear()
        steps.append((*_run(argv), _files(directory)))
    return steps


def test_reused_parser_matches_a_fresh_one_step_by_step(tmp_path, monkeypatch,
                                                       fresh_parser):
    (tmp_path / "reused").mkdir()
    (tmp_path / "fresh").mkdir()
    reused = _steps(tmp_path / "reused", monkeypatch, fresh=False)
    fresh = _steps(tmp_path / "fresh", monkeypatch, fresh=True)
    for argv, got, want in zip(SEQUENCE, reused, fresh):
        assert got == want, argv
    assert [step[0] for step in reused] == [0, 2, 0, 0, 0]
    assert sorted(reused[-1][3]) == ["family.svg", "ns.json"]
