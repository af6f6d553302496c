"""Command-line interface.

Subcommands: ``lyap`` (periodic-point Lyapunov estimates with convergence
diagnostics), ``centers`` (hyperbolic-component center enumeration),
``count`` (component counting with deficiency), ``mass-m2`` (quadratic
bifurcation-mass series), ``equidist`` (center-measure convergence report),
``percurve`` (multiplier-level-curve measures), ``degenerate`` (Lyapunov
degeneration slopes).

Output contract: a JSON run report on stdout (stable key order) echoing the
configuration, wall time, diagnostics, and a sha256 digest of every file
written.  CSV cells use shortest round-trip float formatting so files
re-ingest losslessly, and a fixed reduction order keeps outputs
byte-identical for identical configurations.  Failures exit nonzero with a
machine-readable error code on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys
import tempfile
import time
import warnings

import numpy as np

from . import arith, equidist, families, lyapunov
from .errors import DynbifError, EmptyMeasureError, \
    IncompleteEnumerationWarning, PreconditionError

# pixels per side of the equidist PGM: 4096^2 bins already take 128 MB
MAX_RESOLUTION = 4096

EXIT_CODES = {
    "ERROR": 1,
    "PRECONDITION": 2,
    "NO_CONVERGENCE": 4,
    "DEGENERATE_MAP": 5,
    "ORBIT_MISMATCH": 7,
    "PARABOLIC_CONTAMINATION": 8,
    "EXCEPTIONAL_START": 9,
    "ILL_CONDITIONED": 10,
    "PATH_LOSS": 11,
    "NOT_IN_COMPONENT": 12,
    "COUNT_MISMATCH": 13,
    "COUNT_OVERFLOW": 14,
    "EMPTY_MEASURE": 15,
}


def _fmt(x: float) -> str:
    """Shortest round-trip decimal for a float."""
    return repr(float(x))


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_atomic(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt(v))
        lines.append(",".join(cells))
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def write_pgm(path: str, grid: equidist.GridDensity) -> None:
    """16-bit binary PGM (P5), row-major from the top of the window,
    max-normalized."""
    bins = np.asarray(grid.bins, dtype=float)
    peak = bins.max()
    if peak <= 0:
        img = np.zeros(bins.shape, dtype=">u2")
    else:
        img = np.round(bins / peak * 65535.0).astype(">u2")
    ny, nx = bins.shape
    header = f"P5\n{nx} {ny}\n65535\n".encode()
    _write_atomic(path, header + img.tobytes())


def _incomplete_warnings(fn, *args):
    """fn(*args) and its IncompleteEnumerationWarning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IncompleteEnumerationWarning)
        out = fn(*args)
    return out, [str(w.message) for w in caught
                 if issubclass(w.category, IncompleteEnumerationWarning)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_lyap(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = families.family_from_id(args.family)
    if len(args.c) != spec.parameter_dim:
        raise PreconditionError(
            f"family {args.family} takes {spec.parameter_dim} parameters, "
            f"got {len(args.c)}")
    F = families.map_at(spec, args.c)
    coeffs = families.poly_coeffs(spec, args.c)
    reference = lyapunov.lyap_poly_closed_form(coeffs) \
        if coeffs is not None else None
    # a missing reference is NaN in the CSV: its error columns are NaN too
    ref = float("nan") if reference is None else reference
    rows, periods = [], []
    for n in args.n:
        t0 = time.perf_counter()
        est = lyapunov.lyap_periodic(F, n, r=args.r)
        periods.append({"n": n, "cycles": est.cycle_count,
                        "floored_cycles": est.floored_cycles,
                        "wall_s": time.perf_counter() - t0})
        err = abs(est.value - ref)
        rows.append([n, est.value, ref, err,
                     err * F.degree**n / arith.sigma(2, n)])
    write_csv(args.out, ["n", "L_n_r", "reference", "error",
                         "normalized_error"], rows)
    return ({"reference": reference, "periods": periods},
            {args.out: _sha256(args.out)})


def cmd_centers(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = families.family_from_id(args.family)
    centers, warn_msgs = _incomplete_warnings(families.centers, spec,
                                              args.periods)
    dim = len(args.periods)
    header = (["re", "im", "re2", "im2"][:2 * dim]
              + ["period", "period2"][:dim] + ["residual"])
    reim = np.ascontiguousarray(centers.params).view(float)
    write_csv(args.out, header,
              zip(*reim.T, *centers.periods.T, centers.residual))
    diag = {"count": len(centers),
            "multiplicity_total": int(centers.multiplicity.sum()),
            "warnings": warn_msgs}
    return diag, {args.out: _sha256(args.out)}


def _write_json(path: str, record: dict) -> dict:
    _write_atomic(path, (json.dumps(record, sort_keys=True, indent=2)
                         + "\n").encode())
    return {path: _sha256(path)}


def cmd_count(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = families.family_from_id(args.family)
    cc, warn_msgs = _incomplete_warnings(
        families.component_count, spec, arith.PeriodTuple(args.periods))
    record = {**dataclasses.asdict(cc), "warnings": warn_msgs}
    return record, _write_json(args.out, record)


def cmd_mass_m2(args: argparse.Namespace) -> tuple[dict, dict]:
    res = arith.m2_mass_series(args.terms)
    record = {"terms": res.terms, "partial_sum": res.value,
              "tail_bound": res.tail_bound}
    return record, _write_json(args.out, record)


def cmd_equidist(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = families.family_from_id(args.family)
    pgm = os.path.splitext(args.out)[0] + ".pgm"
    if args.window is None and args.resolution is not None:
        raise PreconditionError("--resolution sizes the --window PGM; "
                                "it needs --window")
    if args.window is not None and pgm == args.out:
        raise PreconditionError(f"--out {args.out} is the path of the "
                                "--window PGM; give the CSV another name")
    if args.window is not None and os.path.isdir(pgm):
        raise PreconditionError(f"the --window PGM {pgm} is a directory")
    report = equidist.equidist_report(spec, args.n, args.k, args.ref)
    grid = None
    if args.window is not None:
        x0, x1, y0, y1 = args.window
        mu_ref = equidist.center_measure(
            spec, arith.PeriodTuple((args.ref,)))
        grid = equidist.GridDensity.from_measure(
            mu_ref, ((x0, x1), (y0, y1)),
            args.resolution or equidist.DEFAULT_RESOLUTION)
        if grid.mass <= 0.0:
            raise EmptyMeasureError(
                f"no period-{args.ref} center lies inside --window")
    rows = []
    for row in report.rows:
        rows.append([row.n, *row.moment_errors, row.grid_distance])
    header = (["n"]
              + [f"moment_error_{k}" for k in range(1, args.k + 1)]
              + ["grid_tv"])
    write_csv(args.out, header, rows)
    files = {args.out: _sha256(args.out)}
    if grid is not None:
        write_pgm(pgm, grid)
        files[pgm] = _sha256(pgm)
    diag = {"reference_n": report.reference_n,
            "moment_trend_ok": list(report.moment_trend_ok),
            "grid_trend_ok": report.grid_trend_ok}
    return diag, files


def cmd_percurve(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = families.family_from_id(args.family)
    cm = equidist.pern_circle_measure(spec, args.n, args.rho, args.thetas)
    m = cm.measure
    c = m.params[:, 0]
    rows = np.column_stack([c.real, c.imag, m.weights])
    write_csv(args.out, ["re", "im", "weight"], rows)
    diag = {"atoms": len(m.weights),
            "total_mass": m.total_mass,
            "path_loss_deficit": cm.path_loss_deficit,
            "recheck_deficit": cm.recheck_deficit}
    return diag, {args.out: _sha256(args.out)}


def cmd_degenerate(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = families.family_from_id(args.family)
    if spec not in families.DEGEN_CATALOG.values():
        raise PreconditionError(
            f"degenerate needs a degen:<id> family, not {args.family}")
    moduli = np.logspace(-6, -3, 10)

    def lyap_of_t(t):
        return lyapunov.lyap_poly_closed_form(families.poly_coeffs(spec, t))

    fit = lyapunov.degeneration_slope(lyap_of_t, [complex(t) for t in moduli])
    span = float(np.log(1.0 / moduli.min()) - np.log(1.0 / moduli.max()))
    delta = 2.0 * fit.residual / span
    record = {"alpha": fit.slope, "ci": [fit.slope - delta,
                                         fit.slope + delta],
              "method": "regression", "residual": fit.residual,
              "samples": fit.samples}
    return record, _write_json(args.out, record)


COMMANDS = {
    "lyap": cmd_lyap,
    "centers": cmd_centers,
    "count": cmd_count,
    "mass-m2": cmd_mass_m2,
    "equidist": cmd_equidist,
    "percurve": cmd_percurve,
    "degenerate": cmd_degenerate,
}


# ---------------------------------------------------------------------------
# argument parsing: each type= converter raises PreconditionError for a value
# out of range, and argparse turns a malformed one into a usage error
# ---------------------------------------------------------------------------


def _range(s: str) -> list[int]:
    """``n`` or ``lo..hi`` as the list of periods lo..hi."""
    lo, sep, hi = s.partition("..")
    lo = int(lo)
    hi = int(hi) if sep else lo
    if lo > hi:
        raise PreconditionError("--n lo..hi needs lo <= hi")
    if lo < 1 or hi > arith.MAX_PERIOD:
        raise PreconditionError(
            f"--n periods must lie in [1, {arith.MAX_PERIOD}]")
    return list(range(lo, hi + 1))


def _complex_list(s: str) -> tuple[complex, ...]:
    return tuple(complex(tok.replace(" ", "")) for tok in s.split(","))


def _periods(s: str) -> tuple[int, ...]:
    periods = tuple(int(x) for x in s.split(","))
    if len(periods) > 2:
        raise PreconditionError("--periods takes one period or a pair")
    return periods


def _window(s: str) -> tuple[float, float, float, float]:
    vals = tuple(float(x) for x in s.split(","))
    if (len(vals) != 4 or not np.all(np.isfinite(vals))
            or vals[0] >= vals[1] or vals[2] >= vals[3]):
        raise PreconditionError("--window must be finite x0,x1,y0,y1 "
                                "with x0 < x1 and y0 < y1")
    return vals


def _resolution(s: str) -> tuple[int, int]:
    nx, ny = (int(x) for x in s.split(","))
    if not (1 <= nx <= MAX_RESOLUTION and 1 <= ny <= MAX_RESOLUTION):
        raise PreconditionError(
            f"--resolution sides must lie in [1, {MAX_RESOLUTION}]")
    return nx, ny


def _out(s: str) -> str:
    if os.path.basename(s) in ("", ".", "..") or os.path.isdir(s):
        raise PreconditionError(f"--out {s!r} names a directory, not a file")
    if not os.path.isdir(os.path.dirname(os.path.abspath(s))):
        raise PreconditionError(f"--out {s}: the directory does not exist")
    return s


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise PreconditionError, so a
    malformed command line ends in the one-JSON-line error contract; its
    subcommand parsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-0.12+0.75j" and "-2.1,0.6,-1.3,1.3" are values, not unknown options
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise PreconditionError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="dynbif",
        description="quantitative bifurcation diagnostics for rational maps")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def command(name, help, out):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", type=_out, default=out)
        p.add_argument("--no-cache", action="store_true",
                       help="accepted and ignored")
        return p

    p = command("lyap", "periodic-point Lyapunov estimates", "lyap.csv")
    p.add_argument("--family", required=True)
    p.add_argument("--c", type=_complex_list, default=(),
                   help="parameter(s), comma-separated complex")
    p.add_argument("--n", type=_range, required=True, help="period or lo..hi")
    p.add_argument("--r", type=float, default=1.0)

    p = command("centers", "enumerate component centers", "centers.csv")
    p.add_argument("--family", required=True)
    p.add_argument("--periods", type=_periods, required=True)

    p = command("count", "count hyperbolic components", "count.json")
    p.add_argument("--family", required=True)
    p.add_argument("--periods", type=_periods, required=True)

    p = command("mass-m2", "quadratic bifurcation mass series", "mass-m2.json")
    p.add_argument("--terms", type=int, default=60)

    p = command("equidist", "center-measure convergence report",
                "equidist.csv")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=_range, required=True, help="period or lo..hi")
    p.add_argument("--ref", type=int, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--window", type=_window,
                   help="x0,x1,y0,y1 for the PGM density, written next to "
                        "--out with the suffix .pgm")
    p.add_argument("--resolution", type=_resolution,
                   help="nx,ny of the PGM density (default 64,64); "
                        "needs --window")

    p = command("percurve", "multiplier level-curve measure", "percurve.csv")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True, help="period")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--thetas", type=int, default=64)

    p = command("degenerate", "Lyapunov degeneration slope",
                "degenerate.json")
    p.add_argument("--family", required=True)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        diag, files = COMMANDS[args.subcommand](args)
        wall = time.perf_counter() - t0
        report = {"config": vars(args), "wall_time_s": wall,
                  "diagnostics": diag, "files": files}
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
        return 0
    except DynbifError as exc:
        code, message = exc.code, str(exc)
    except OSError as exc:  # e.g. an output file that cannot be written
        code, message = "ERROR", str(exc)
    print(json.dumps({"error": code, "message": message}, sort_keys=True),
          file=sys.stderr)
    return EXIT_CODES.get(code, 1)
