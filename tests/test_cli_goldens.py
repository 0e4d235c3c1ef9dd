"""Byte-for-byte stdout and exit codes of fixed CLI runs.

cli_goldens.json holds, per case id, the exit code and stdout of the run.
Running this module as a script reruns every case on the source tree it
imports and rewrites the file:

    PYTHONPATH=src python tests/test_cli_goldens.py
"""
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cyclevote.cli import main

GOLDENS = Path(__file__).with_name("cli_goldens.json")

#: Input files, written into a fresh directory before the runs.
FILES = {
    "rolo4.tsv": "A|D,C\t3\nB|C,D\t-1\nC|B,A\t1/2\nA|C,B\t2\nD|C,B\t-5/3\n",
    "trad4.tsv": "AB-DA\t3\nAB-CB\t-1\nAC-BA\t1/2\nAD-CA\t2\nAB-AC\t-5/3\n",
    "seeds_rolo4.txt": "A|D,C (ACBD) 2\nA|D,C (ADBC) 1/2\nA|D,C (ABCD) -1\n",
    "cyclic5.tsv": "(ABCDE)\t2\n(ABDCE)\t-1/3\n(ACEDB)\t5/4\n(AEBCD)\t-2\n",
    "cyclic6.tsv": "(ABCDEF)\t3\n(ABCDFE)\t-1/2\n(ACEBDF)\t2/3\n(AFEDCB)\t-4\n(ADBFCE)\t7/5\n",
    "rolo5.tsv": "A|B,C\t2\nA|C,B\t-1/2\nB|D,E\t3/4\nE|C,A\t-2\nD|A,B\t5/3\n",
}

_RULES = (
    ("generic4", "3,1,-1/2"),
    ("rolo_generic", "6,-5,4,3/2,2,1"),
    ("rolo_x1", "3/2"),
    ("rolo21", ""),
    ("trad21", ""),
    ("generic5", "4,0,3,1,2,2,1,1"),
    ("distance5", "0,1,2,3,4"),
    ("adjusted_distance5", ""),
)
_PARTITIONS = ("4", "3+1", "2+2", "2+1+1", "1+1+1+1")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for n in ("4", "5", "6"):
        cases[f"orders{n}"] = ["orders", "--n", n]
        for ordering in ("paper", "canonical"):
            cases[f"orders{n}-{ordering}"] = ["orders", "--n", n, "--ordering", ordering]
    for command in ("characters", "decompose"):
        cases[f"{command}-rolo4"] = [command, "--space", "rolo", "--n", "4"]
    for space in ("rolo", "trad"):
        for lam in _PARTITIONS:
            cases[f"project-{space}4-{lam}"] = [
                "project", "--space", space, "--n", "4", "--partition", lam,
                "--profile", f"{{dir}}/{space}4.tsv"]
    cases["project-rolo4-canonical"] = [
        "project", "--space", "rolo", "--n", "4", "--ordering", "canonical",
        "--partition", "3+1", "--profile", "{dir}/rolo4.tsv"]
    for space, n, lam in (("cyclic", "6", "3+2+1"), ("cyclic", "5", "3+1+1"),
                          ("rolo", "5", "3+1+1")):
        cases[f"project-{space}{n}-{lam}"] = [
            "project", "--space", space, "--n", n, "--partition", lam,
            "--profile", f"{{dir}}/{space}{n}.tsv"]
    for family, params in _RULES:
        cases[f"matrix-{family}"] = ["matrix", "--rule", family, "--params", params]
    for ordering in ("paper", "canonical"):
        cases[f"matrix-orbit_seeds-rolo4-{ordering}"] = [
            "matrix", "--rule", "orbit_seeds", "--seeds", "{dir}/seeds_rolo4.txt",
            "--ballots", "rolo", "--n", "4", "--ordering", ordering]
    cases["scaling-rolo21"] = ["scaling", "--rule", "rolo21"]
    cases["scaling-generic5"] = ["scaling", "--rule", "generic5", "--params", "4,0,3,1,2,2,1,1"]
    return cases


CASES = _cases()


def _run(argv: list[str], directory: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([a.replace("{dir}", directory) for a in argv])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_goldens")
    for name, text in FILES.items():
        (directory / name).write_text(text)
    return str(directory)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, inputs, goldens):
    assert _run(CASES[case], inputs) == goldens[case]


def test_every_golden_has_a_case(goldens):
    assert sorted(goldens) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for name, text in FILES.items():
            Path(directory, name).write_text(text)
        runs = {case: _run(argv, directory) for case, argv in sorted(CASES.items())}
    GOLDENS.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} goldens to {GOLDENS}", file=sys.stderr)
