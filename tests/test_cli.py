import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclevote.cli import main
from _goldens import CO4_ORDER, CO5_ORDER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orders_paper_default(capsys):
    code, out, _ = run(capsys, "orders", "--n", "4")
    assert code == 0
    assert out.splitlines() == [f"({w})" for w in CO4_ORDER]
    code, out, _ = run(capsys, "orders", "--n", "5")
    assert out.splitlines() == [f"({w})" for w in CO5_ORDER]


def test_orders_canonical(capsys):
    code, out, _ = run(capsys, "orders", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["(ABC)", "(ACB)"]


def test_characters_co6_includes_brute_force_value(capsys):
    code, out, _ = run(capsys, "characters", "--space", "co", "--n", "6")
    assert code == 0
    rows = dict(line.split("\t")[0:3:2] for line in out.splitlines())
    assert rows["2+2+2"] == "8"
    assert rows["1+1+1+1+1+1"] == "120"


def test_decompose_rolo(capsys):
    code, out, _ = run(capsys, "decompose", "--space", "rolo", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert "3+1\t3\t3\t9" in lines
    assert lines[-1] == "# dimension sum: 24 == 24"


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--rule", "generic4", "--params", "2,1,0")
    assert code == 0
    assert out.splitlines()[1] == "(ACBD),2,1,0,0,0,0"


def test_tally_profile(tmp_path, capsys):
    pfile = tmp_path / "p.tsv"
    pfile.write_text("(ACBD)\t2\n(ADBC)\t1\n(ACDB)\t1\n")
    code, out, _ = run(
        capsys, "tally", "--rule", "generic4", "--params", "2,1,0", "--profile", str(pfile)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(ACBD)\t5\t*"
    assert lines[1] == "(ADBC)\t4\t"


def test_kernel_and_effective(capsys):
    code, out, _ = run(capsys, "kernel", "--rule", "rolo21")
    assert code == 0
    assert len(out.splitlines()) == 18
    code, out, _ = run(capsys, "effective", "--rule", "rolo21")
    assert len(out.splitlines()) == 6


def test_project(tmp_path, capsys):
    pfile = tmp_path / "p.tsv"
    pfile.write_text("(ACBD)\t2\n(ADBC)\t1\n(ACDB)\t1\n")
    code, out, _ = run(
        capsys, "project", "--space", "cyclic", "--n", "4",
        "--partition", "4", "--profile", str(pfile),
    )
    assert code == 0
    assert out.splitlines()[0] == "(ACBD)\t2/3"


def test_scaling(capsys):
    code, out, _ = run(capsys, "scaling", "--rule", "generic4", "--params", "2,1,0")
    assert code == 0
    lines = out.splitlines()
    assert "T\t4\tscalar\t3" in lines
    assert "rev\t2+1+1\tscalar\t1" in lines
    assert "MMT\trev\t1" in lines


def test_distance_and_classify(capsys):
    code, out, _ = run(capsys, "distance", "--x", "(ABCDE)", "--y", "(AEDCB)")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "classify", "--x", "(ABCDE)", "--y", "(ACEBD)")
    assert code == 0 and out.startswith("Step\t")


def test_mask(capsys):
    code, out, _ = run(
        capsys, "mask", "--rule", "rolo21", "--target", "(ACBD)",
        "--decoys", "(ABCD),(ADCB)", "--magnitude", "2",
    )
    assert code == 0
    assert len(out.splitlines()) == 24


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog", "--space", "co4")
    assert code == 0
    assert out.splitlines()[0] == "T\t4\t1 1 1 1 1 1"


def test_seeded_matrix(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("A|D,C (ACBD) 2\nA|D,C (ACDB) 1\nA|D,C (ABCD) 1\n")
    code, out, _ = run(
        capsys, "matrix", "--rule", "orbit_seeds", "--seeds", str(seeds),
        "--ballots", "rolo", "--n", "4",
    )
    assert code == 0
    ref_code, ref_out, _ = run(capsys, "matrix", "--rule", "rolo21")
    assert out == ref_out


def test_scaling_needs_the_default_ordering(tmp_path, capsys):
    seeds = {"cyclic": "(ACBD) (ACBD) 2\n(ADBC) (ACBD) 1\n", "rolo": "A|D,C (ACBD) 2\n"}
    for kind, text in seeds.items():
        path = tmp_path / f"{kind}.txt"
        path.write_text(text)
        argv = ["scaling", "--rule", "orbit_seeds", "--seeds", str(path),
                "--ballots", kind, "--n", "4", "--ordering"]
        code, out, err = run(capsys, *argv, "canonical")
        assert (code, out) == (2, "")
        assert err == ("error: the " + kind.replace("cyclic", "co") + "4 catalog is written "
                       "in the 'paper' ordering, not 'canonical'\n")
        code, out, err = run(capsys, *argv, "paper")
        assert code == 0 and err == ""
        if kind == "cyclic":
            assert [line.split("\t")[3] for line in out.splitlines()[:3]] == ["3", "3", "1"]


@pytest.mark.parametrize("flag, value", [
    ("--n", "5"), ("--ordering", "canonical"), ("--ballots", "cyclic"), ("--seeds", "seeds.txt"),
])
def test_named_rule_rejects_a_space_flag(capsys, flag, value):
    code, out, err = run(capsys, "matrix", "--rule", "generic4", "--params", "1,2,3", flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} applies to --rule orbit_seeds only, not to generic4\n"


def test_orbit_seeds_rejects_params(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("A|D,C (ACBD) 2\n")
    code, out, err = run(capsys, "matrix", "--rule", "orbit_seeds", "--seeds", str(seeds),
                         "--ballots", "rolo", "--params", "1,2,3")
    assert (code, out) == (2, "")
    assert err == "error: --params applies to named rules only, not to orbit_seeds\n"


def test_missing_ordering_names_kind_and_n(capsys):
    code, out, err = run(capsys, "orders", "--n", "6", "--ordering", "paper")
    assert (code, out, err) == (2, "", "error: no 'paper' ordering for (cyclic, 6)\n")


def test_duplicate_seed_warns_in_one_line(tmp_path):
    # in a fresh interpreter, where no test harness captures the warning
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("A|D,C (ACBD) 2\nA|D,C (ACDB) 1\nA|D,C (ACBD) 2\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "cyclevote.cli", "matrix", "--rule", "orbit_seeds",
            "--seeds", str(seeds), "--ballots", "rolo", "--n", "4"]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0
    assert result.stderr.splitlines() == ["warning: duplicate seed for one orbit: (A|D,C, (ACBD))"]
    assert len(result.stdout.splitlines()) == 7  # header and the six outcomes


def test_closed_reader_is_not_an_error():
    # `cyclevote orders --n 7 | head -1` with the reader already gone: the
    # writes fail with EPIPE, and the command still exits 0 and prints nothing
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "cyclevote.cli", "orders", "--n", "7"],
                                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                                timeout=120)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, "")


def test_cli_import_generates_no_code_and_no_catalog_fractions():
    # -S: no site hook imports anything before cyclevote does
    code = (
        "import fractions, sys\n"
        "made = []\n"
        "new = fractions.Fraction.__new__\n"
        "def counting(cls, *args, **kwargs):\n"
        "    made.append(args)\n"
        "    return new(cls, *args, **kwargs)\n"
        "fractions.Fraction.__new__ = counting\n"
        "import cyclevote.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)), len(made))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    # the one Fraction is masking_profile's default magnitude; the catalog
    # tables hold integers until subspace_catalog is first called
    assert result.stdout == "[] 1\n"


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "orders")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys, "nonsense")
    assert code == 1


def test_data_error_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "characters", "--space", "co", "--n", "9")
    assert code == 2 and "exceeds" in err
    bad = tmp_path / "bad.tsv"
    bad.write_text("(AXBD)\t1\n")
    code, _, err = run(
        capsys, "tally", "--rule", "generic4", "--params", "2,1,0", "--profile", str(bad)
    )
    assert code == 2
    code, _, err = run(capsys, "matrix", "--rule", "generic4", "--params", "1,2")
    assert code == 2
    code, _, err = run(capsys, "orders", "--n", "6", "--ordering", "paper")
    assert code == 2
    # --max-n caps the CLI's own enumerations, projections included: n=8 needs --max-n 8
    one = tmp_path / "one.tsv"
    one.write_text("(ABCDEFGH)\t1\n")
    project8 = ("project", "--space", "cyclic", "--n", "8", "--partition", "8",
                "--profile", str(one))
    code, _, err = run(capsys, *project8)
    assert code == 2 and err == "error: n=8 exceeds --max-n 7\n"
    code, out, err = run(capsys, "--max-n", "8", *project8)
    lines = out.splitlines()
    assert code == 0 and err == "" and len(lines) == 5040 and lines[0] == "(ABCDEFGH)\t1/5040"
    assert {line.split("\t")[1] for line in lines} == {"1/5040"}


def test_deterministic_output(capsys):
    first = run(capsys, "scaling", "--rule", "generic5", "--params", "4,0,3,1,2,2,1,1")
    second = run(capsys, "scaling", "--rule", "generic5", "--params", "4,0,3,1,2,2,1,1")
    assert first == second
    assert first[0] == 0


def test_mask_rejects_orders_of_another_degree(capsys):
    for target, decoys in (("(ACBD)", "(ABCDE)"), ("(ACBDE)", "(ABCD)"),
                           ("(ACBD)", "(ABCD),(ABCDE)")):
        code, out, err = run(capsys, "mask", "--rule", "rolo21", "--target", target,
                             "--decoys", decoys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "n=5" in err


def test_cyclic_characters_need_n_at_least_3(capsys):
    for command in ("characters", "decompose"):
        for n in ("1", "2"):
            code, out, err = run(capsys, command, "--space", "co", "--n", n)
            assert code == 2 and out == ""
            assert err == "error: cyclic orders need n >= 3\n"
        code, out, _ = run(capsys, command, "--space", "co", "--n", "3")
        assert code == 0 and out


def test_seed_order_of_another_degree(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# header\nABCD ABC 1\n")
    code, out, err = run(
        capsys, "matrix", "--rule", "orbit_seeds", "--seeds", str(seeds),
        "--ballots", "cyclic", "--n", "4",
    )
    assert code == 2 and out == ""
    assert err == "error: seed line 2: order (ABC) has n=3, ballots have n=4\n"


def test_seed_errors_name_the_line(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    for kind, text, message in (
        ("rolo", "A|D,C (ACBD) 2\nA|D,X (ACBD) 1\n",
         "seed line 2: A|D,X is not a ballot of BallotSpace('rolo', n=4"),
        ("cyclic", "ABCD ABCE 1\n", "seed line 1: bad cyclic-order literal: 'ABCE'"),
        ("rolo", "\n# c\nA|D (ACBD) 1\n", "seed line 3: bad ROLO ballot literal: 'A|D'"),
    ):
        seeds.write_text(text)
        code, out, err = run(
            capsys, "matrix", "--rule", "orbit_seeds", "--seeds", str(seeds),
            "--ballots", kind, "--n", "4",
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


def test_profile_errors_name_the_line(tmp_path, capsys):
    pfile = tmp_path / "p.tsv"
    for text, message in (
        ("# votes\n(ACBD)\t2\n(ABCE)\t2\n", "profile line 3: bad cyclic-order literal: '(ABCE)'"),
        ("(ABCDE)\t1\n", "profile line 1: (ABCDE) is not a ballot of BallotSpace('cyclic', n=4"),
        ("(ACBD)\t1/0\n", "profile line 1: bad rational '1/0'"),
    ):
        pfile.write_text(text)
        code, out, err = run(
            capsys, "tally", "--rule", "generic4", "--params", "2,1,0", "--profile", str(pfile)
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


def test_mask_bad_magnitude(capsys):
    for magnitude in ("1/0", "x"):
        code, out, err = run(capsys, "mask", "--rule", "rolo21", "--target", "(ACBD)",
                             "--decoys", "(ABCD)", "--magnitude", magnitude)
        assert code == 2 and out == ""
        assert err == f"error: bad magnitude: {magnitude!r}\n"


def test_help_returns_zero(capsys):
    for argv in (["-h"], ["distance", "-h"], ["tally", "--help"]):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: cyclevote") and err == ""


_ORDER_LITERALS = (
    "(ABCDE)", "ACBD", "(0,2,1,3)", "0 1 2", "A", "AB", "(BCA)", "(ABCDEFGH)",
    "", "(", "()", "(AXBD)", "(AAB)", "(BCD)", "1,x", "-1", "A\nB",
)
_FLAG_VALUES = {
    "--x": _ORDER_LITERALS,
    "--y": _ORDER_LITERALS,
    "--n": ("0", "1", "2", "3", "4", "5", "-1", "x", ""),
    "--ordering": ("paper", "canonical", "sideways"),
    "--space": ("co", "rolo", "trad", "cyclic"),
}
_COMMAND_FLAGS = {
    "distance": ("--x", "--y"),
    "classify": ("--x", "--y"),
    "orders": ("--n", "--ordering"),
    "characters": ("--space", "--n"),
}


@st.composite
def _argv(draw):
    argv = draw(st.sampled_from([[], [], ["--max-n", "4"], ["--max-n", "x"]]))
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv.append(command)
    for flag in _COMMAND_FLAGS[command]:
        if draw(st.integers(0, 5)):
            argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    stray = [[], [], [], [], ["extra"], ["--n"], ["--space", "co"], ["--x", "A\nB"], ["-h"]]
    return argv + draw(st.sampled_from(stray))


@given(_argv())
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
    assert (code == 0) == (err.getvalue() == "")


# Lines for malformed profile and seed files: good lines, wrong field counts,
# bad literals, orders and ballots of the wrong n, bad rationals, blanks.
_PROFILE_LINES = (
    "(ACBD)\t2", "(ADBC) 1/2", "(0,2,1,3)\t-1", "A|D,C\t3", "AB-DA\t1", "(ABCDE)\t1",
    "(ABCE)\t2", "(AXBD)\t1", "(ACBD)", "(ACBD)\t1\t2", "(ACBD)\tx", "(ACBD)\t1/0",
    "(ACBD)\t1e400", "# comment", "", "\t", "A|D,X\t1", "(ACB)\t1",
)
_SEED_LINES = (
    "A|D,C (ACBD) 2", "A|D,C (ACDB) 1", "(ACBD) (ACBD) 1", "ABCDE ABCED 1", "AB-DA ABCD 1",
    "A|D,X (ACBD) 1", "ABCD ABCE 1", "A|D,C (ACB) 1", "A|D,C (ACBD)", "A|D,C (ACBD) 1 2",
    "A|D,C (ACBD) 1/0", "A|D,C (ACBD) x", "A|D,C (ACBD) 3", "# c", "",
)
_RULES = (
    ["--rule", "generic4", "--params", "2,1,0"],
    ["--rule", "rolo21"],
    ["--rule", "generic5", "--params", "4,0,3,1,2,2,1,1"],
    ["--rule", "generic4", "--params", "1/0,1,1"],
    ["--rule", "orbit_seeds", "--ballots", "rolo", "--n", "4", "--seeds", "{seeds}"],
    ["--rule", "orbit_seeds", "--ballots", "cyclic", "--n", "5", "--seeds", "{seeds}"],
    ["--rule", "orbit_seeds", "--ballots", "trad", "--n", "4", "--seeds", "{seeds}"],
    ["--rule", "orbit_seeds", "--ballots", "cyclic", "--seeds", "{seeds}"],
    ["--rule", "orbit_seeds", "--ballots", "rolo", "--n", "9", "--seeds", "{seeds}"],
    ["--rule", "orbit_seeds", "--n", "4", "--seeds", "{seeds}"],
    ["--rule", "orbit_seeds", "--ballots", "rolo", "--seeds", "{missing}"],
)


@st.composite
def _file_argv(draw):
    command = draw(st.sampled_from(["tally", "project", "matrix", "mask"]))
    if command == "project":
        argv = ["project", "--space", draw(st.sampled_from(["cyclic", "rolo", "trad"])),
                "--n", draw(st.sampled_from(["3", "4", "5", "x"])),
                "--partition", draw(st.sampled_from(["4", "2+2", "3+1", "5", "2+1", "x", "0"])),
                "--profile", draw(st.sampled_from(["{profile}", "{profile}", "{missing}"]))]
    else:
        argv = [command] + draw(st.sampled_from(_RULES))
    if command == "tally":
        argv += ["--profile", draw(st.sampled_from(["{profile}", "{profile}", "{missing}"]))]
    if command == "mask":
        argv += ["--target", draw(st.sampled_from(_ORDER_LITERALS[:4] + ("(ACBD)", "(ABCD)"))),
                 "--decoys", draw(st.sampled_from(["(ABCD),(ADCB)", "(ACDB)", "", "(ACBD)",
                                                   "(ABCDE)", "x,(ABCD)"])),
                 "--magnitude", draw(st.sampled_from(["1", "3/2", "0", "-1", "x", "1/0"]))]
    profile = draw(st.lists(st.sampled_from(_PROFILE_LINES), max_size=5))
    seeds = draw(st.lists(st.sampled_from(_SEED_LINES), max_size=5))
    return argv, "\n".join(profile), "\n".join(seeds)


@given(_file_argv())
@settings(max_examples=80, deadline=None)
def test_cli_file_fuzz_exits_cleanly(tmp_path_factory, case):
    argv, profile_text, seed_text = case
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "p.tsv").write_text(profile_text)
    (workdir / "s.txt").write_text(seed_text)
    paths = {"profile": workdir / "p.tsv", "seeds": workdir / "s.txt", "missing": workdir / "x"}
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate seeds only warn
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
    assert (code == 0) == (err.getvalue() == "")
