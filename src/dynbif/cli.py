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
import hashlib
import json
import os
import re
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import arith, equidist, families, lyapunov
from .errors import DynbifError, EmptyMeasureError, \
    IncompleteEnumerationWarning, PreconditionError

CACHE_ENV = "DYNBIF_CACHE_DIR"
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


@dataclass
class RunConfig:
    subcommand: str
    family: str | None = None
    params: tuple[float, ...] = ()  # interleaved re, im pairs
    periods: tuple[int, ...] = ()
    n_lo: int | None = None
    n_hi: int | None = None
    r: float = 1.0
    rho: float = 0.5
    thetas: int = 64
    terms: int = 60
    k_moments: int = 4
    ref: int | None = None
    out: str | None = None
    no_cache: bool = False
    window: tuple[float, float, float, float] | None = None
    resolution: tuple[int, int] = equidist.DEFAULT_RESOLUTION


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


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV) or None


def _cache_key(family: str, periods) -> str:
    # the solver tag keeps an earlier solver's rows from being served
    blob = json.dumps({"family": family, "periods": list(periods),
                       "solver": "pca3-cb-jacobian"}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _incomplete_warnings(fn, *args):
    """fn(*args) and its IncompleteEnumerationWarning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IncompleteEnumerationWarning)
        out = fn(*args)
    return out, [str(w.message) for w in caught
                 if issubclass(w.category, IncompleteEnumerationWarning)]


def _cached_centers(cfg: RunConfig, spec, periods: tuple[int, ...]
                    ) -> tuple[list[families.CenterPoint], list[str]]:
    """Center enumeration and its warnings, through the on-disk cache when
    enabled; an incomplete enumeration is not cached."""
    cdir = None if cfg.no_cache else _cache_dir()
    key = _cache_key(cfg.family, periods)
    if cdir:
        path = os.path.join(cdir, f"centers-{key}.json")
        if os.path.exists(path):
            with open(path) as fh:
                data = json.load(fh)
            return [families.CenterPoint(
                tuple(complex(re, im) for re, im in rec["parameter"]),
                arith.PeriodTuple(tuple(rec["periods"])),
                tuple(rec["residuals"]), rec["multiplicity"])
                for rec in data], []
    centers, warn_msgs = _incomplete_warnings(
        _enumerate_centers, spec, periods)
    if cdir and not warn_msgs:
        os.makedirs(cdir, exist_ok=True)
        data = [{"parameter": [[p.real, p.imag] for p in c.parameter],
                 "periods": list(c.periods.periods),
                 "residuals": list(c.residuals),
                 "multiplicity": c.multiplicity} for c in centers]
        _write_atomic(os.path.join(cdir, f"centers-{key}.json"),
                      json.dumps(data, sort_keys=True).encode())
    return centers, warn_msgs


def _enumerate_centers(spec, periods: tuple[int, ...]
                       ) -> list[families.CenterPoint]:
    if len(periods) == 1:
        return families.centers_1d(spec, periods[0])
    return families.marked_centers(spec, *periods)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _family_map(cfg: RunConfig):
    spec = families.family_from_id(cfg.family)
    p = [complex(cfg.params[i], cfg.params[i + 1])
         for i in range(0, len(cfg.params), 2)]
    if len(p) != spec.parameter_dim:
        raise PreconditionError(
            f"family {cfg.family} takes {spec.parameter_dim} parameters, "
            f"got {len(p)}")
    return spec, p, families.map_at(spec, p)


def cmd_lyap(cfg: RunConfig) -> tuple[dict, dict]:
    spec, p, F = _family_map(cfg)
    if cfg.n_lo is None:
        raise PreconditionError("lyap needs --n")
    ns = list(range(cfg.n_lo, (cfg.n_hi or cfg.n_lo) + 1))
    d = F.degree
    coeffs = families.poly_coeffs(spec, p)
    reference = lyapunov.lyap_poly_closed_form(coeffs) \
        if coeffs is not None else None
    pm = families.power_map_degree(F)
    rows = []
    for n in ns:
        if pm is not None:
            est = lyapunov.lyap_from_spectrum(
                families.power_map_spectrum(pm, n), pm, n, r=cfg.r)
        else:
            est = lyapunov.lyap_periodic(F, n, r=cfg.r)
        if reference is not None:
            err = abs(est.value - reference)
            norm = err * d**n / arith.sigma(2, n)
        else:
            err = float("nan")
            norm = float("nan")
        rows.append([n, est.value,
                     reference if reference is not None else float("nan"),
                     err, norm])
    out = cfg.out or "lyap.csv"
    write_csv(out, ["n", "L_n_r", "reference", "error", "normalized_error"],
              rows)
    diag = {"periods": ns, "r": cfg.r,
            "power_map": pm is not None,
            "reference": reference}
    return diag, {out: _sha256(out)}


def cmd_centers(cfg: RunConfig) -> tuple[dict, dict]:
    spec = families.family_from_id(cfg.family)
    if not cfg.periods:
        raise PreconditionError("centers needs --periods")
    centers, warn_msgs = _cached_centers(cfg, spec, cfg.periods)
    rows = []
    if len(cfg.periods) == 1:
        header = ["re", "im", "period", "residual"]
        for c in centers:
            rows.append([c.parameter[0].real, c.parameter[0].imag,
                         c.periods.periods[0], max(c.residuals)])
    else:
        header = ["re", "im", "re2", "im2", "period", "period2", "residual"]
        for c in centers:
            rows.append([c.parameter[0].real, c.parameter[0].imag,
                         c.parameter[1].real, c.parameter[1].imag,
                         c.periods.periods[0], c.periods.periods[1],
                         max(c.residuals)])
    out = cfg.out or "centers.csv"
    write_csv(out, header, rows)
    diag = {"count": len(centers),
            "multiplicity_total": sum(c.multiplicity for c in centers),
            "warnings": warn_msgs}
    return diag, {out: _sha256(out)}


def cmd_count(cfg: RunConfig) -> tuple[dict, dict]:
    spec = families.family_from_id(cfg.family)
    if not cfg.periods:
        raise PreconditionError("count needs --periods")
    cc, warn_msgs = _incomplete_warnings(
        families.component_count, spec, arith.PeriodTuple(cfg.periods))
    record = {"N": cc.N, "marked_solutions": cc.marked_solutions,
              "stab": cc.stab, "deficiency": cc.deficiency,
              "merged_solutions": cc.merged_solutions,
              "merged_fraction": cc.merged_fraction,
              "bezout": cc.bezout, "warnings": warn_msgs}
    out = cfg.out or "count.json"
    _write_atomic(out, (json.dumps(record, sort_keys=True, indent=2)
                        + "\n").encode())
    return record, {out: _sha256(out)}


def cmd_mass_m2(cfg: RunConfig) -> tuple[dict, dict]:
    res = arith.m2_mass_series(cfg.terms)
    record = {"terms": res.terms, "partial_sum": res.value,
              "tail_bound": res.tail_bound}
    out = cfg.out or "mass-m2.json"
    _write_atomic(out, (json.dumps(record, sort_keys=True, indent=2)
                        + "\n").encode())
    return record, {out: _sha256(out)}


def cmd_equidist(cfg: RunConfig) -> tuple[dict, dict]:
    spec = families.family_from_id(cfg.family)
    if cfg.n_lo is None or cfg.ref is None:
        raise PreconditionError("equidist needs --n and --ref")
    ns = range(cfg.n_lo, (cfg.n_hi or cfg.n_lo) + 1)
    report = equidist.equidist_report(spec, ns, cfg.k_moments, cfg.ref)
    grid = None
    if cfg.window is not None:
        x0, x1, y0, y1 = cfg.window
        mu_ref = equidist.center_measure(
            spec, arith.PeriodTuple((cfg.ref,)))
        grid = equidist.GridDensity.from_measure(
            mu_ref, ((x0, x1), (y0, y1)), cfg.resolution)
        if grid.mass <= 0.0:
            raise EmptyMeasureError(
                f"no period-{cfg.ref} center lies inside --window")
    rows = []
    for row in report.rows:
        rows.append([row.n, *row.moment_errors, row.grid_distance])
    header = (["n"]
              + [f"moment_error_{k}" for k in range(1, cfg.k_moments + 1)]
              + ["grid_tv"])
    out = cfg.out or "equidist.csv"
    write_csv(out, header, rows)
    files = {out: _sha256(out)}
    if grid is not None:
        pgm = os.path.splitext(out)[0] + ".pgm"
        write_pgm(pgm, grid)
        files[pgm] = _sha256(pgm)
    diag = {"reference_n": report.reference_n,
            "moment_trend_ok": list(report.moment_trend_ok),
            "grid_trend_ok": report.grid_trend_ok}
    return diag, files


def cmd_percurve(cfg: RunConfig) -> tuple[dict, dict]:
    spec = families.family_from_id(cfg.family)
    if cfg.n_lo is None:
        raise PreconditionError("percurve needs --n")
    cm = equidist.pern_circle_measure(spec, cfg.n_lo, cfg.rho, cfg.thetas)
    rows = [[p[0].real, p[0].imag, w] for p, w in cm.measure.atoms]
    out = cfg.out or "percurve.csv"
    write_csv(out, ["re", "im", "weight"], rows)
    diag = {"atoms": len(cm.measure.atoms),
            "total_mass": cm.measure.total_mass,
            "path_loss_deficit": cm.path_loss_deficit,
            "recheck_deficit": cm.recheck_deficit}
    return diag, {out: _sha256(out)}


def cmd_degenerate(cfg: RunConfig) -> tuple[dict, dict]:
    spec = families.family_from_id(cfg.family)
    if spec.kind != "MeromorphicDisk":
        raise PreconditionError("degenerate needs a degen:<id> family")
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
    out = cfg.out or "degenerate.json"
    _write_atomic(out, (json.dumps(record, sort_keys=True, indent=2)
                        + "\n").encode())
    return record, {out: _sha256(out)}


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
# argument parsing
# ---------------------------------------------------------------------------


def _parse_range(s: str) -> tuple[int, int]:
    if ".." in s:
        lo, hi = s.split("..", 1)
        return int(lo), int(hi)
    return int(s), int(s)


def _parse_complex_list(s: str) -> tuple[float, ...]:
    out = []
    for tok in s.split(","):
        z = complex(tok.replace(" ", ""))
        out.extend([z.real, z.imag])
    return tuple(out)


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

    def common(p):
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("lyap", help="periodic-point Lyapunov estimates")
    p.add_argument("--family", required=True)
    p.add_argument("--c", type=str, default=None,
                   help="parameter(s), comma-separated complex")
    p.add_argument("--n", type=str, required=True, help="period or lo..hi")
    p.add_argument("--r", type=float)
    common(p)

    p = sub.add_parser("centers", help="enumerate component centers")
    p.add_argument("--family", required=True)
    p.add_argument("--periods", type=str, required=True)
    common(p)

    p = sub.add_parser("count", help="count hyperbolic components")
    p.add_argument("--family", required=True)
    p.add_argument("--periods", type=str, required=True)
    common(p)

    p = sub.add_parser("mass-m2", help="quadratic bifurcation mass series")
    p.add_argument("--terms", type=int)
    common(p)

    p = sub.add_parser("equidist", help="center-measure convergence report")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=str, required=True)
    p.add_argument("--ref", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--window", type=str, default=None,
                   help="x0,x1,y0,y1 for the PGM density")
    p.add_argument("--resolution", type=str, default=None,
                   help="nx,ny of the PGM density (default 64,64); "
                        "needs --window")
    common(p)

    p = sub.add_parser("percurve", help="multiplier level-curve measure")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=str, required=True)
    p.add_argument("--rho", type=float)
    p.add_argument("--thetas", type=int)
    common(p)

    p = sub.add_parser("degenerate", help="Lyapunov degeneration slope")
    p.add_argument("--family", required=True)
    common(p)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run configuration; a malformed option raises PreconditionError
    before any work is done."""
    try:
        return _config_from_args(args)
    except ValueError as exc:
        raise PreconditionError(f"malformed option value: {exc}") from None


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kw = dict(subcommand=args.subcommand,
              out=getattr(args, "out", None),
              no_cache=getattr(args, "no_cache", False))
    if kw["out"] is not None and not os.path.isdir(
            os.path.dirname(os.path.abspath(kw["out"]))):
        raise PreconditionError(
            f"--out {kw['out']}: the directory does not exist")
    if hasattr(args, "family"):
        kw["family"] = args.family
    if getattr(args, "c", None):
        kw["params"] = _parse_complex_list(args.c)
    if getattr(args, "periods", None) is not None:
        periods = tuple(int(x) for x in args.periods.split(","))
        if len(periods) > 2:
            raise PreconditionError("--periods takes one period or a pair")
        kw["periods"] = periods
    if getattr(args, "n", None):
        kw["n_lo"], kw["n_hi"] = _parse_range(args.n)
        if kw["n_lo"] > kw["n_hi"]:
            raise PreconditionError("--n lo..hi needs lo <= hi")
    for name in ("r", "rho", "thetas", "terms", "ref"):
        if getattr(args, name, None) is not None:
            kw[name] = getattr(args, name)
    if getattr(args, "k", None) is not None:
        kw["k_moments"] = args.k
    if getattr(args, "window", None):
        vals = tuple(float(x) for x in args.window.split(","))
        if (len(vals) != 4 or not np.all(np.isfinite(vals))
                or vals[0] >= vals[1] or vals[2] >= vals[3]):
            raise PreconditionError("--window must be finite x0,x1,y0,y1 "
                                    "with x0 < x1 and y0 < y1")
        kw["window"] = vals
    if getattr(args, "resolution", None) is not None:
        if not getattr(args, "window", None):
            raise PreconditionError("--resolution sizes the --window PGM; "
                                    "it needs --window")
        nx, ny = (int(x) for x in args.resolution.split(","))
        if not (1 <= nx <= MAX_RESOLUTION and 1 <= ny <= MAX_RESOLUTION):
            raise PreconditionError(
                f"--resolution sides must lie in [1, {MAX_RESOLUTION}]")
        kw["resolution"] = (nx, ny)
    return RunConfig(**kw)


def main(argv=None) -> int:
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
        t0 = time.perf_counter()
        diag, files = COMMANDS[cfg.subcommand](cfg)
        wall = time.perf_counter() - t0
        report = {"config": asdict(cfg), "wall_time_s": wall,
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
