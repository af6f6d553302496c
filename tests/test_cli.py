"""Command-line interface: output schemas, determinism, caching and exit
codes."""

import csv
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from dynbif import arith
from dynbif.cli import EXIT_CODES, _cache_key, main
from dynbif.errors import DynbifError


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DYNBIF_CACHE_DIR", raising=False)
    return tmp_path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_lyap_power_map(capsys):
    # z^d has every period-n multiplier d^n: the general solver gives log d
    for family, c, d in [("quad", "0", 2), ("pca3", "0,0", 3),
                         ("quadrat", "0,0", 2)]:
        code, out, err = run(["lyap", "--family", family, "--c", c,
                              "--n", "2..4", "--out", "lyap.csv"], capsys)
        assert code == 0, err
        rows = read_csv("lyap.csv")
        assert rows[0] == ["n", "L_n_r", "reference", "error",
                           "normalized_error"]
        assert [row[0] for row in rows[1:]] == ["2", "3", "4"]
        for row in rows[1:]:
            assert abs(float(row[1]) - math.log(d)) < 1e-12, family


@pytest.mark.parametrize("argv, keys", [
    (["lyap", "--family", "quad", "--c", "1.0", "--n", "3"],
     {"c", "family", "n", "no_cache", "out", "r", "subcommand"}),
    (["mass-m2"], {"no_cache", "out", "subcommand", "terms"}),
])
def test_report_config_is_the_subcommand_options(argv, keys, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert set(json.loads(out)["config"]) == keys


def test_lyap_period_12_at_default_tolerance(capsys):
    # every period up to 12 certifies at the default tolerance, also where
    # forward images of repelling points carry the largest errors
    code, out, err = run(["lyap", "--family", "quad", "--c", "0.92",
                          "--n", "11..12", "--out", "lyap.csv"], capsys)
    assert code == 0, err
    rows = read_csv("lyap.csv")
    assert [r[0] for r in rows[1:]] == ["11", "12"]
    n12 = rows[2]
    assert abs(float(n12[1]) - float(n12[2])) < 1e-4


def test_lyap_report_has_one_record_per_period(capsys):
    code, out, err = run(["lyap", "--family", "quad", "--c", "1.0",
                          "--n", "6..8", "--out", "lyap.csv"],
                         capsys)
    assert code == 0, err
    periods = json.loads(out)["diagnostics"]["periods"]
    assert [p["n"] for p in periods] == [6, 7, 8]
    for p in periods:
        assert set(p) == {"n", "cycles", "floored_cycles", "wall_s"}
        assert p["n"] * p["cycles"] == sum(
            arith.moebius(p["n"] // m) * (2**m + 1)
            for m in range(1, p["n"] + 1) if p["n"] % m == 0)
        assert 0 <= p["floored_cycles"] <= p["cycles"]
        assert p["wall_s"] > 0


@pytest.mark.parametrize("family, c", [
    ("quad", "1e80"), ("pca3", "1e100,0"), ("quadrat", "1e200,0.5")])
def test_huge_coefficients_give_one_error_line(family, c, tmp_path):
    # in a fresh interpreter, so that no warning filter hides a line
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "dynbif", "lyap", "--family", family,
         "--c", c, "--n", "3", "--out", str(tmp_path / "lyap.csv")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 5
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    record = json.loads(lines[0])
    assert record["error"] == "DEGENERATE_MAP"
    # the resultant is small only against the coefficient scale, the cause
    scale = {"quad": "1.000e+80", "pca3": "5.000e+99",
             "quadrat": "1.000e+200"}[family]
    assert f"coefficient scale {scale}" in record["message"]


def test_centers_csv_schema(capsys):
    code, out, _ = run(["centers", "--family", "quad", "--periods", "3",
                        "--out", "centers.csv"], capsys)
    assert code == 0
    rows = read_csv("centers.csv")
    assert rows[0] == ["re", "im", "period", "residual"]
    assert len(rows) == 4
    vals = sorted(float(r[0]) for r in rows[1:])
    assert vals[0] == pytest.approx(-1.7548776662466927, abs=1e-9)
    assert all(r[2] == "3" for r in rows[1:])
    assert all(float(r[3]) < 1e-8 for r in rows[1:])


def test_centers_two_cycle_schema(capsys):
    code, out, _ = run(["centers", "--family", "pca3", "--periods", "1,1",
                        "--out", "c2.csv"], capsys)
    assert code == 0
    rows = read_csv("c2.csv")
    assert rows[0] == ["re", "im", "re2", "im2", "period", "period2",
                       "residual"]
    report = json.loads(out)
    assert report["diagnostics"]["multiplicity_total"] == 9


def test_count_json(capsys):
    code, out, _ = run(["count", "--family", "quad", "--periods", "6",
                        "--out", "count.json"], capsys)
    assert code == 0
    with open("count.json") as fh:
        rec = json.load(fh)
    assert rec["N"] == 27
    assert rec["deficiency"] == pytest.approx(0.0, abs=1e-12)
    # stable key order on disk
    assert list(rec) == sorted(rec)


def test_mass_m2(capsys):
    code, out, _ = run(["mass-m2", "--terms", "60", "--out", "m.json"],
                       capsys)
    assert code == 0
    rec = json.loads(out)["diagnostics"]
    assert rec["partial_sum"] == pytest.approx(0.18759011896690844,
                                               abs=1e-15)
    assert rec["tail_bound"] < 1e-30


def test_equidist_with_pgm(capsys):
    code, out, _ = run(["equidist", "--family", "quad", "--n", "3..5",
                        "--ref", "8", "--k", "2",
                        "--window=-2.1,0.6,-1.3,1.3",
                        "--resolution", "32,32",
                        "--out", "eq.csv"], capsys)
    assert code == 0
    rows = read_csv("eq.csv")
    assert rows[0] == ["n", "moment_error_1", "moment_error_2", "grid_tv"]
    with open("eq.pgm", "rb") as fh:
        data = fh.read()
    header, rest = data.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"32 32"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"65535"
    assert len(pixels) == 32 * 32 * 2
    assert max(pixels) > 0  # max-normalized: the densest bin is nonzero


def test_percurve_csv(capsys):
    code, out, _ = run(["percurve", "--family", "quad", "--n", "2",
                        "--rho", "0.5", "--thetas", "8",
                        "--out", "pc.csv"], capsys)
    assert code == 0
    rows = read_csv("pc.csv")
    assert rows[0] == ["re", "im", "weight"]
    assert len(rows) == 9
    diag = json.loads(out)["diagnostics"]
    assert diag["path_loss_deficit"] == 0
    assert diag["recheck_deficit"] == 0


def test_percurve_at_largest_rho(capsys):
    # 0.95 e^(i theta) rounds past 0.95 at some angles; the range is closed
    code, out, err = run(["percurve", "--family", "quad", "--n", "3",
                          "--rho", "0.95", "--thetas", "16",
                          "--out", "pc.csv"], capsys)
    assert code == 0, err
    diag = json.loads(out)["diagnostics"]
    assert diag["atoms"] == 48
    assert (diag["path_loss_deficit"], diag["recheck_deficit"]) == (0, 0)
    code, out, err = run(["percurve", "--family", "quad", "--n", "3",
                          "--rho", "0.97", "--thetas", "16",
                          "--out", "pc.csv"], capsys)
    assert code == 2
    assert "rho must lie in [0, 0.95]" in json.loads(err)["message"]


def test_degenerate_slopes(capsys):
    for fam, lo, hi in [("degen:inv_t", 0.48, 0.52),
                        ("degen:inv_t2", 0.96, 1.04),
                        ("degen:t", -0.02, 0.02)]:
        code, out, _ = run(["degenerate", "--family", fam,
                            "--out", "deg.json"], capsys)
        assert code == 0
        rec = json.loads(out)["diagnostics"]
        assert lo <= rec["alpha"] <= hi
        assert rec["method"] == "regression"
        assert rec["ci"][0] <= rec["alpha"] <= rec["ci"][1]


# ---------------------------------------------------------------------------
# determinism and caching
# ---------------------------------------------------------------------------


def test_byte_identical_reruns(capsys):
    run(["centers", "--family", "quad", "--periods", "5",
         "--out", "a.csv"], capsys)
    run(["centers", "--family", "quad", "--periods", "5",
         "--out", "b.csv"], capsys)
    with open("a.csv", "rb") as fa, open("b.csv", "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("family,periods", [("quad", "4"), ("pca3", "1,2")])
def test_cache_round_trip(family, periods, tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("DYNBIF_CACHE_DIR", str(cache))
    argv = ["centers", "--family", family, "--periods", periods]
    code, out1, _ = run(argv + ["--out", "a.csv"], capsys)
    assert code == 0
    entries = list(cache.glob("centers-*.json"))
    assert len(entries) == 1
    code, out2, _ = run(argv + ["--out", "b.csv"], capsys)
    assert code == 0
    with open("a.csv", "rb") as fa, open("b.csv", "rb") as fb:
        assert fa.read() == fb.read()
    diag1, diag2 = (json.loads(o)["diagnostics"] for o in (out1, out2))
    assert (diag1["cache"], diag2["cache"]) == ("miss", "hit")
    assert diag1["multiplicity_total"] == diag2["multiplicity_total"]
    if family == "pca3":
        # one set holds both markings, each row with its own periods
        rows = read_csv("b.csv")[1:]
        assert {(r[4], r[5]) for r in rows} == {("1", "2"), ("2", "1")}
    # --no-cache must not read or write entries
    entries[0].unlink()
    code, out3, _ = run(argv + ["--no-cache", "--out", "c.csv"], capsys)
    assert code == 0
    assert json.loads(out3)["diagnostics"]["cache"] == "off"
    assert not list(cache.glob("centers-*.json"))
    with open("a.csv", "rb") as fa, open("c.csv", "rb") as fc:
        assert fa.read() == fc.read()


@pytest.mark.parametrize("entry", ['[{"parameter": [[0.1', "{}"],
                         ids=["truncated", "empty"])
def test_corrupt_cache_entry_is_recomputed(entry, tmp_path, monkeypatch,
                                           capsys):
    # a truncated entry used to end in a traceback, an empty object in an
    # empty CSV with exit 0
    argv = ["centers", "--family", "quad", "--periods", "4"]
    code, _, _ = run(argv + ["--no-cache", "--out", "want.csv"], capsys)
    assert code == 0
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("DYNBIF_CACHE_DIR", str(cache))
    path = cache / f"centers-{_cache_key('quad', (4,))}.json"
    path.write_text(entry)
    for name, use in (("a.csv", "miss"), ("b.csv", "hit")):
        code, out, err = run(argv + ["--out", name], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["diagnostics"]["cache"] == use
        with open("want.csv", "rb") as fw, open(name, "rb") as fh:
            assert fh.read() == fw.read()
    assert path.read_text() != entry  # overwritten by the recomputed set


def test_cache_path_that_is_a_file_is_refused_before_the_solve(
        tmp_path, monkeypatch, capsys):
    # it used to run the whole solve, then exit 1 with "File exists"
    from dynbif import families

    solve = families.centers
    calls = []
    monkeypatch.setattr(families, "centers",
                        lambda *a: calls.append(a) or solve(*a))
    cache = tmp_path / "cache"
    cache.write_text("")
    monkeypatch.setenv("DYNBIF_CACHE_DIR", str(cache))
    argv = ["centers", "--family", "quad", "--periods", "3", "--out", "c.csv"]
    code, out, err = run(argv, capsys)
    assert_precondition_line(code, out, err, "DYNBIF_CACHE_DIR")
    assert not calls and not (tmp_path / "c.csv").exists()
    # --no-cache ignores the variable
    code, out, err = run(argv + ["--no-cache"], capsys)
    assert code == 0, err
    assert json.loads(out)["diagnostics"]["cache"] == "off"
    assert len(calls) == 1


def test_pgm_path_that_is_a_directory_is_refused(tmp_path, capsys):
    (tmp_path / "eq.pgm").mkdir()
    code, out, err = run(["equidist", "--family", "quad", "--n", "3",
                          "--ref", "5", "--window", "-2,1,-1,1",
                          "--out", "eq.csv"], capsys)
    assert_precondition_line(code, out, err, "is a directory")
    assert not (tmp_path / "eq.csv").exists()


def test_incomplete_enumeration_is_not_cached(tmp_path, monkeypatch, capsys):
    # a cached short count would come back with "warnings": []
    import warnings

    from dynbif import families
    from dynbif.errors import IncompleteEnumerationWarning

    def short(spec, periods):
        warnings.warn("found multiplicity total 6 of 9",
                      IncompleteEnumerationWarning)
        return families.centers_2d(spec, *periods)[:2]

    cache = tmp_path / "cache"
    monkeypatch.setenv("DYNBIF_CACHE_DIR", str(cache))
    monkeypatch.setattr(families, "centers", short)
    for _ in range(2):
        code, out, _ = run(["centers", "--family", "pca3", "--periods", "1,1",
                            "--out", "c.csv"], capsys)
        assert code == 0
        assert json.loads(out)["diagnostics"]["warnings"] == [
            "found multiplicity total 6 of 9"]
    assert not list(cache.glob("centers-*.json"))


def test_cache_key_names_the_solver():
    # the key of the earlier (c, a) solver hashed no solver tag: its entries
    # hold other rows in another order and must miss
    blob = json.dumps({"family": "pca3", "periods": [1, 3],
                       "tolerance": 1e-12}, sort_keys=True)
    old = hashlib.sha256(blob.encode()).hexdigest()
    key = _cache_key("pca3", (1, 3))
    assert key != old and len(key) == len(old)
    # nor the rows of the perturbation-count multiplicities
    blob = json.dumps({"family": "pca3", "periods": [1, 3],
                       "solver": "pca3-cb-chart", "tolerance": 1e-12},
                      sort_keys=True)
    assert key != hashlib.sha256(blob.encode()).hexdigest()
    # nor the rows of the solver that solved both markings, sorted on raw
    # floats
    blob = json.dumps({"family": "pca3", "periods": [1, 3],
                       "solver": "pca3-cb-jacobian"}, sort_keys=True)
    assert key != hashlib.sha256(blob.encode()).hexdigest()
    # nor the one-record-per-center entries of the same solver
    blob = json.dumps({"family": "pca3", "periods": [1, 3],
                       "solver": "pca3-cb-involution"}, sort_keys=True)
    assert key != hashlib.sha256(blob.encode()).hexdigest()
    # nor the rows of the solve that ran a second seed round where the
    # symmetry images of round 0 complete the set
    blob = json.dumps({"family": "pca3", "periods": [1, 3],
                       "solver": "pca3-cb-involution-set"}, sort_keys=True)
    assert key != hashlib.sha256(blob.encode()).hexdigest()
    # the key is family, periods and the solver tag
    blob = json.dumps({"family": "pca3", "periods": [1, 3],
                       "solver": "pca3-cb-symmetry-set"}, sort_keys=True)
    assert key == hashlib.sha256(blob.encode()).hexdigest()
    assert key == _cache_key("pca3", [1, 3])
    # quad centers solved at a looser tolerance and then polished by Newton
    # steps differ in their last bits and must miss
    blob = json.dumps({"family": "quad", "periods": [6],
                       "solver": "quad-newton-set"}, sort_keys=True)
    assert _cache_key("quad", (6,)) != hashlib.sha256(
        blob.encode()).hexdigest()


def test_quad_cache_key_names_the_residual():
    # quad rows cached under the pca3 solver tag carry the |f_c^n(0)|
    # residual column, not the Newton step: they must miss
    blob = json.dumps({"family": "quad", "periods": [6],
                       "solver": "pca3-cb-involution"}, sort_keys=True)
    assert _cache_key("quad", (6,)) != hashlib.sha256(
        blob.encode()).hexdigest()
    # nor the one-record-per-center entries of the Newton-step residual;
    # the key is family, periods and the solver tag
    def tagged(tag):
        blob = json.dumps({"family": "quad", "periods": [6], "solver": tag},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    assert _cache_key("quad", (6,)) != tagged("quad-newton-step")
    assert _cache_key("quad", (6,)) == tagged("quad-floor-set")


def _readme_commands():
    """The dynbif command lines of the README's usage block, with their
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command-line usage", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("dynbif ")]


def test_readme_commands_succeed(workdir, capsys):
    commands = _readme_commands()
    assert len(commands) == 8
    for argv in commands:
        code, out, err = run(argv, capsys)
        assert code == 0, (argv, err)
        files = json.loads(out)["files"]
        assert files and all((workdir / f).is_file() for f in files), argv


def test_experiment_scripts_run(workdir):
    # the README's experiment scripts, each in a fresh interpreter on small
    # inputs
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for name, args in [
            ("convergence_study.py", ["--c", "1.0", "--n", "6..8"]),
            ("counting_survey.py", ["--max-n", "2", "--quad-max-n", "4"]),
            ("center_density.py", ["--max-n", "6", "--resolution", "50,50",
                                   "--out", str(workdir / "d.pgm")])]:
        proc = subprocess.run([sys.executable, str(scripts / name), *args],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (name, proc.stderr)
    assert (workdir / "d.pgm").is_file()


def test_report_lists_output_hashes(capsys):
    code, out, _ = run(["mass-m2", "--out", "m.json"], capsys)
    report = json.loads(out)
    (path, digest), = report["files"].items()
    assert path == "m.json"
    assert len(digest) == 64
    import hashlib
    with open("m.json", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


# ---------------------------------------------------------------------------
# errors and exit codes
# ---------------------------------------------------------------------------


def test_bad_radius_exit_code(capsys):
    code, out, err = run(["lyap", "--family", "quad", "--c", "0",
                          "--n", "2", "--r", "0"], capsys)
    assert code == EXIT_CODES["PRECONDITION"] == 2
    rec = json.loads(err)
    assert rec["error"] == "PRECONDITION"
    assert out == ""


def test_unknown_family_exit_code(capsys):
    code, _, err = run(["centers", "--family", "wat", "--periods", "3"],
                       capsys)
    assert code == 2
    assert json.loads(err)["error"] == "PRECONDITION"


def test_degenerate_family_required(capsys):
    code, _, err = run(["degenerate", "--family", "quad"], capsys)
    assert code == 2


def test_parabolic_contamination_names_its_orbits(capsys):
    # c = 1/4: the parabolic fixed point 1/2 sits in the period-8 locus as
    # two period-1 orbits with multiplier near 1
    code, out, err = run(["lyap", "--family", "quad", "--c", "0.25",
                          "--n", "8", "--out", "lyap.csv"], capsys)
    assert code == 8
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "PARABOLIC_CONTAMINATION"
    message = record["message"]
    assert message.startswith("2 lower-period parabolic orbits (periods "
                              "[1, 1], largest |multiplier^(n/p) - 1| = ")
    gap = float(message.split("= ")[1].split(")")[0])
    assert 0.0 < gap <= 1e-6  # within the root-of-unity tolerance
    assert message.endswith("make the period-8 spectrum ill defined")


EXIT_CODE_NUMBERS = {
    "ERROR": 1, "PRECONDITION": 2, "NO_CONVERGENCE": 4, "DEGENERATE_MAP": 5,
    "ORBIT_MISMATCH": 7, "PARABOLIC_CONTAMINATION": 8,
    "EXCEPTIONAL_START": 9, "ILL_CONDITIONED": 10, "PATH_LOSS": 11,
    "NOT_IN_COMPONENT": 12, "COUNT_MISMATCH": 13, "COUNT_OVERFLOW": 14,
    "EMPTY_MEASURE": 15,
}


def test_exit_codes_match_error_classes():
    classes, todo = [], [DynbifError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    assert {cls.code for cls in classes} == set(EXIT_CODES)
    # exit codes are stable: removing a class retires its number
    assert EXIT_CODES == EXIT_CODE_NUMBERS


def test_package_import_loads_no_submodule():
    # names are imported from their submodules: the package itself holds
    # only its docstring and version, so importing it loads neither a
    # dynbif submodule nor numpy
    code = ("import sys, dynbif\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('dynbif.', 'numpy'))))\n"
            "print(dynbif.__version__)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "0.1.0"]


def assert_precondition_line(code, out, err, words):
    """A usage error: exit 2, nothing on stdout, one PRECONDITION line on
    stderr whose message carries ``words``."""
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "PRECONDITION"
    assert words in record["message"]


@pytest.mark.parametrize("argv", [
    pytest.param(["mass-m2", option, "1"], id=option)
    for option in ("--seed", "--threads", "--tolerance")
] + [
    # --tolerance only moved a dedupe radius that no artifact saw
    pytest.param([sub, "--family", "pca3", "--periods", "1,1",
                   "--tolerance", "1e-10"], id=f"{sub}:--tolerance")
    for sub in ("centers", "count")
] + [
    # --params spelled --c a second time
    pytest.param(["lyap", "--family", "quad", "--n", "6", "--params", "1.0"],
                 id="lyap:--params"),
])
def test_removed_options_rejected(argv, workdir, capsys):
    # nothing read these options, so they are no longer accepted
    code, out, err = run(argv + ["--out", "o"], capsys)
    assert_precondition_line(code, out, err, "unrecognized arguments")
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("argv, words", [
    (["mass-m2", "--terms", "abc"], "invalid int value"),
    (["count", "--family", "pca3"], "required: --periods"),
    (["centers", "--periods", "3"], "required: --family"),
    ([], "required: subcommand"),
    (["bogus"], "invalid choice"),
    # percurve measures one period; a range is not a period
    (["percurve", "--family", "quad", "--n", "3..5"], "invalid int value"),
    # an unbounded range or angle grid is refused before it is allocated
    (["lyap", "--family", "quad", "--c", "1", "--n",
      "1..1000000000000000"], "--n periods must lie in [1, 40]"),
    (["equidist", "--family", "quad", "--n", "1..1000000000000000",
      "--ref", "14"], "--n periods must lie in [1, 40]"),
    (["percurve", "--family", "quad", "--n", "3", "--thetas",
      "1000000000000000"], "exceed the path cap 1048576"),
    # t^2 underflows to 0, so c(t) = 1/t^2 has no finite value
    (["lyap", "--family", "degen:inv_t2", "--c", "1e-170", "--n", "3"],
     "c(t) does not evaluate to a finite double"),
    # c(1/inf) = 0 would be z^2, a parameter outside the punctured disk
    (["lyap", "--family", "degen:inv_t", "--c", "inf", "--n", "3"],
     "must be finite and nonzero"),
    # an output path that names a directory is refused before the job runs
    (["centers", "--family", "quad", "--periods", "3", "--out", ""],
     "names a directory"),
    (["centers", "--family", "quad", "--periods", "3", "--out", "."],
     "names a directory"),
])
def test_usage_errors_end_in_one_json_line(argv, words, capsys):
    code, out, err = run(argv, capsys)
    assert_precondition_line(code, out, err, words)


@pytest.mark.parametrize("argv", [
    ["lyap", "--family", "quad", "--c", "-0.12+0.75j", "--n", "4"],
    ["lyap", "--family", "quadrat", "--c", "-0.5,0.3", "--n", "3"],
    ["equidist", "--family", "quad", "--n", "3..4", "--ref", "6",
     "--window", "-2.1,0.6,-1.3,1.3", "--resolution", "16,16"],
])
def test_negative_values_parse_after_a_space(argv, capsys):
    # "--c -0.5,0.3" reads like "--c=-0.5,0.3" and writes the same bytes
    i = next(k for k, a in enumerate(argv) if a[:2] == "--" and
             argv[k + 1].startswith("-"))
    joined = argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
    reports = []
    for args in (argv, joined):
        code, out, err = run(args + ["--out", "a.csv"], capsys)
        assert code == 0, err
        reports.append(json.loads(out)["files"])
    assert reports[0] == reports[1]


def test_missing_value_before_an_option_is_a_usage_error(capsys):
    code, out, err = run(["lyap", "--family", "quad", "--c", "--n", "6"],
                         capsys)
    assert_precondition_line(code, out, err, "expected one argument")


@pytest.mark.parametrize("argv", [["--help"], ["mass-m2", "--help"]])
def test_help_prints_usage_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: dynbif")
    assert captured.err == ""


@pytest.mark.parametrize("sub", ["centers", "count"])
@pytest.mark.parametrize("periods", ["3,4,5", ""])
def test_bad_periods_exit_code(sub, periods, capsys):
    code, out, err = run([sub, "--family", "pca3", "--periods", periods],
                         capsys)
    assert code == 2
    assert json.loads(err)["error"] == "PRECONDITION"
    assert out == ""


# one member and one period per parameter of each family, and small
# inputs for every subcommand that takes --family
FAMILY_INPUTS = {"quad": ("0.3", "3"), "pca3": ("0.5,0.2", "1,1"),
                 "quadrat": ("0.5,0.3", "1,1"), "degen:inv_t": ("0.5", "3"),
                 "degen:inv_t2": ("0.5", "3"), "degen:t": ("0.5", "3")}
# the families each subcommand serves
FAMILY_RUNS = {"lyap": list(FAMILY_INPUTS), "centers": ["quad", "pca3"],
               "count": ["quad", "pca3"], "equidist": ["quad"],
               "percurve": ["quad"],
               "degenerate": ["degen:inv_t", "degen:inv_t2", "degen:t"]}


@pytest.mark.parametrize("family", sorted(FAMILY_INPUTS))
@pytest.mark.parametrize("sub", sorted(FAMILY_RUNS))
def test_every_family_runs_or_is_named_in_one_error_line(sub, family,
                                                         capsys):
    # the families a subcommand does not serve are refused by name; the
    # quad-only center and measure paths used to answer with a message
    # about the quadratic family
    c, periods = FAMILY_INPUTS[family]
    args = {"lyap": ["--c", c, "--n", "2"], "centers": ["--periods", periods],
            "count": ["--periods", periods],
            "equidist": ["--n", "2..3", "--ref", "4"],
            "percurve": ["--n", "2", "--thetas", "8"], "degenerate": []}[sub]
    code, out, err = run([sub, "--family", family, *args, "--out", "out.csv"],
                         capsys)
    if family in FAMILY_RUNS[sub]:
        assert code == 0, err
        files = json.loads(out)["files"]
        assert files
        for path, digest in files.items():
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest
    else:
        assert_precondition_line(code, out, err, family)


@pytest.mark.parametrize("sub", ["centers", "count"])
@pytest.mark.parametrize("family, periods", [("quad", "3,3"), ("pca3", "1")])
def test_one_period_per_parameter(sub, family, periods, capsys):
    code, out, err = run([sub, "--family", family, "--periods", periods],
                         capsys)
    assert_precondition_line(code, out, err, f"{family} takes")


def test_reversed_n_range_exit_code(workdir, capsys):
    code, out, err = run(["lyap", "--family", "quad", "--c", "1.0",
                          "--n", "12..6", "--out", "lyap.csv"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "PRECONDITION"
    assert not (workdir / "lyap.csv").exists()


def test_out_in_missing_directory(workdir, capsys):
    code, out, err = run(["mass-m2", "--out", "missing/m.json"], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "PRECONDITION"
    assert not (workdir / "missing").exists()


def test_successive_calls_get_their_own_defaults(workdir, capsys):
    # options a call omits come from its own subcommand, and the default
    # --out is checked again on every call in one process
    lyap = ["lyap", "--family", "quad", "--c", "0", "--n", "2"]
    code, out, err = run(lyap, capsys)
    assert code == 0, err
    config = json.loads(out)["config"]
    assert (config["out"], config["r"]) == ("lyap.csv", 1.0)
    code, out, err = run(["percurve", "--family", "quad", "--n", "2",
                          "--thetas", "8"], capsys)
    assert code == 0, err
    config = json.loads(out)["config"]
    assert (config["out"], config["rho"]) == ("percurve.csv", 0.5)
    assert "r" not in config and "c" not in config
    (workdir / "lyap.csv").unlink()
    (workdir / "lyap.csv").mkdir()
    assert_precondition_line(*run(lyap, capsys), "names a directory")
    assert_precondition_line(*run(lyap + ["--out", "missing/l.csv"], capsys),
                             "the directory does not exist")
    (workdir / "lyap.csv").rmdir()
    assert run(lyap, capsys)[0] == 0


def test_equidist_out_may_not_be_the_pgm_path(workdir, capsys):
    # the PGM is written next to --out with the suffix .pgm and would
    # overwrite the CSV
    code, out, err = run(["equidist", "--family", "quad", "--n", "3..4",
                          "--ref", "6", "--window=-2.1,0.6,-1.3,1.3",
                          "--out", "eq.pgm"], capsys)
    assert_precondition_line(code, out, err, "--window PGM")
    assert not list(workdir.iterdir())


def test_artifacts_follow_the_umask(workdir, capsys):
    old = os.umask(0o022)
    try:
        code, _, err = run(["mass-m2", "--out", "m.json"], capsys)
    finally:
        os.umask(old)
    assert code == 0, err
    assert (workdir / "m.json").stat().st_mode & 0o777 == 0o644


def assert_file_or_one_error_line(code, stdout, err, out, *more):
    """A CLI run ends in its output files (``out`` and ``more``) and a
    report (True), or in one JSON error line with the exit code of its error
    class and no output file (False)."""
    if code == 0:
        assert err == ""
        assert list(json.loads(stdout)["files"]) == [out, *more]
        return True
    assert code in EXIT_CODES.values()
    lines = err.splitlines()
    assert len(lines) == 1
    assert EXIT_CODES[json.loads(lines[0])["error"]] == code
    assert stdout == ""
    assert not any(os.path.exists(path) for path in (out, *more))
    return False


def assert_csv_or_one_error_line(code, stdout, err, out, *more):
    """As assert_file_or_one_error_line, returning the CSV rows or None."""
    if assert_file_or_one_error_line(code, stdout, err, out, *more):
        return read_csv(out)
    return None


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 5),
       rho=st.sampled_from(["-0.1", "0", "0.3", "0.95", "1.0"]),
       thetas=st.sampled_from([1, 4, 8, 16]))
def test_percurve_fuzz_ends_in_csv_or_one_error_line(n, rho, thetas, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "pc.csv")
        code, stdout, err = run(["percurve", "--family", "quad", "--n",
                                 str(n), f"--rho={rho}", "--thetas",
                                 str(thetas), "--out", out], capsys)
        rows = assert_csv_or_one_error_line(code, stdout, err, out)
        if rows is not None:
            assert rows[0] == ["re", "im", "weight"]


# n <= 6 and --ref <= 8 keep every run short; the rest are reversed or
# empty ranges, moment orders out of range, windows that are reversed, not
# finite or hold no center, resolutions out of range, and a resolution
# without a window (PRECONDITION; None leaves the option out)
EQUIDIST_RANGES = st.one_of(
    st.integers(0, 6).map(str),
    st.tuples(st.integers(1, 6), st.integers(0, 6)).map(
        lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(["x", "3..", "2.5"]))
EQUIDIST_WINDOWS = [None, "-2.1,0.6,-1.3,1.3", "-1,0,0,1", "0.6,-2.1,-1,1",
                    "5,6,5,6", "nan,1,0,1", "-inf,inf,-1,1", "-1,0,1"]
EQUIDIST_RESOLUTIONS = [None, "8,8", "1,1", "16,3", "0,4", "5000,2", "4,x"]


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st.sampled_from(["quad", "quad", "quad", "pca3", "quadrat"]),
       n=EQUIDIST_RANGES, ref=st.integers(1, 8),
       k=st.one_of(st.integers(0, 4), st.sampled_from([512, 513, 2000])),
       window=st.sampled_from(EQUIDIST_WINDOWS),
       resolution=st.sampled_from(EQUIDIST_RESOLUTIONS))
@example(family="pca3", n="1..2", ref=3, k=2, window=None,
         resolution=None)
@example(family="quad", n="2..3", ref=4, k=2, window="nan,1,0,1",
         resolution="8,8")
@example(family="quad", n="2..3", ref=4, k=2, window="-inf,inf,-1,1",
         resolution="8,8")
@example(family="quad", n="2..3", ref=4, k=2, window="5,6,5,6",
         resolution="8,8")
@example(family="quad", n="2..3", ref=4, k=2, window="-1,0,0,1",
         resolution="0,4")
@example(family="quad", n="1..6", ref=8, k=4, window="-2.1,0.6,-1.3,1.3",
         resolution="16,3")
@example(family="quad", n="2..3", ref=5, k=2000, window=None,
         resolution=None)
@example(family="quad", n="2..3", ref=5, k=512, window=None,
         resolution=None)
@example(family="quad", n="2..3", ref=4, k=2, window=None,
         resolution="4,4")
def test_equidist_fuzz_ends_in_csv_and_pgm_or_one_error_line(
        family, n, ref, k, window, resolution, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "eq.csv")
        pgm = os.path.join(tmp, "eq.pgm")
        argv = ["equidist", "--family", family, f"--n={n}", "--ref",
                str(ref), "--k", str(k), "--out", out]
        if resolution is not None:
            argv += ["--resolution", resolution]
        if window is not None:
            argv.append(f"--window={window}")
        code, stdout, err = run(argv, capsys)
        more = [] if window is None else [pgm]
        rows = assert_csv_or_one_error_line(code, stdout, err, out, *more)
        if window is None and resolution is not None:
            assert code == 2  # a resolution has no PGM to size
        if rows is None:
            return
        assert rows[0] == (["n"] + [f"moment_error_{j}"
                                    for j in range(1, k + 1)] + ["grid_tv"])
        if window is not None:
            with open(pgm, "rb") as fh:
                header, dims, maxval, pixels = fh.read().split(b"\n", 3)
            assert header == b"P5" and maxval == b"65535"
            assert dims == (resolution or "64,64").replace(",", " ").encode()
            assert max(pixels) > 0  # the window holds a center


# parabolic quad parameters (c = 1/4, -3/4), a family member with a
# parabolic fixed point (mu1 = 1), a collapsed normal form (mu1 mu2 = 1)
# and a parameter count that does not fit the family
LYAP_FUZZ_PARAMS = [
    ("quad", "0.25"), ("quad", "-0.75"), ("quad", "1.0"),
    ("quad", "0.3+0.5j"), ("quad", "0.5,0.5"), ("pca3", "0,0"),
    ("pca3", "0.5,0.2"), ("pca3", "1+1j,-0.5"), ("quadrat", "0.5,0.3"),
    ("quadrat", "2,0.5"), ("quadrat", "1,0.5"),
]


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(member=st.sampled_from(LYAP_FUZZ_PARAMS), n=st.integers(1, 5),
       r=st.sampled_from(["0", "0.5", "1", "1.5"]))
def test_lyap_fuzz_ends_in_csv_or_one_error_line(member, n, r, capsys):
    family, params = member
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "lyap.csv")
        code, stdout, err = run(["lyap", "--family", family, "--c",
                                 params, "--n", str(n), "--r", r,
                                 "--out", out], capsys)
        rows = assert_csv_or_one_error_line(code, stdout, err, out)
        if rows is not None:
            assert rows[0] == ["n", "L_n_r", "reference", "error",
                               "normalized_error"]
            assert [row[0] for row in rows[1:]] == [str(n)]


# small periods keep every run short: quad up to 6, pca3 pairs up to 2;
# the rest are malformed, reversed-family or out-of-range inputs
FUZZ_FAMILIES = ["quad", "pca3", "quadrat", "degen:t", "cubic"]
FUZZ_PERIODS = st.one_of(
    st.integers(-1, 6).map(str),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda t: f"{t[0]},{t[1]}"),
    st.sampled_from(["", "1,2,3", "x", "2.5"]))


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st.sampled_from(FUZZ_FAMILIES), periods=FUZZ_PERIODS)
@example(family="pca3", periods="2,2")
@example(family="pca3", periods="1,2")
@example(family="quad", periods="6")
def test_centers_fuzz_ends_in_csv_or_one_error_line(family, periods, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "centers.csv")
        code, stdout, err = run(["centers", "--family", family,
                                 f"--periods={periods}", "--out", out],
                                capsys)
        rows = assert_csv_or_one_error_line(code, stdout, err, out)
        if rows is not None:
            assert rows[0][:2] == ["re", "im"]
            assert len(rows) - 1 == json.loads(stdout)["diagnostics"]["count"]


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st.sampled_from(FUZZ_FAMILIES), periods=FUZZ_PERIODS)
@example(family="pca3", periods="2,2")
@example(family="quad", periods="6")
@example(family="quad", periods="1,1")
def test_count_fuzz_ends_in_json_or_one_error_line(family, periods, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "count.json")
        code, stdout, err = run(["count", "--family", family,
                                 f"--periods={periods}", "--out", out],
                                capsys)
        if assert_file_or_one_error_line(code, stdout, err, out):
            with open(out) as fh:
                record = json.load(fh)
            assert record["N"] >= 0 and record["stab"] >= 1


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(terms=st.integers(-2, 600))
@example(terms=511)
@example(terms=512)
def test_mass_m2_fuzz_ends_in_json_or_one_error_line(terms, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "mass.json")
        code, stdout, err = run(["mass-m2", f"--terms={terms}", "--out",
                                 out], capsys)
        if assert_file_or_one_error_line(code, stdout, err, out):
            with open(out) as fh:
                record = json.load(fh)
            assert record["terms"] == terms
            assert 0.0 < record["partial_sum"] < 1.0 / 3.0


@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family=st.sampled_from(["quad", "pca3", "quadrat", "degen:inv_t",
                               "degen:inv_t2", "degen:t", "degen:",
                               "degen:bogus"]))
def test_degenerate_fuzz_ends_in_json_or_one_error_line(family, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "degenerate.json")
        code, stdout, err = run(["degenerate", "--family", family, "--out",
                                 out], capsys)
        if assert_file_or_one_error_line(code, stdout, err, out):
            with open(out) as fh:
                record = json.load(fh)
            assert record["ci"][0] <= record["alpha"] <= record["ci"][1]
