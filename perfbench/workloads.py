"""Workload definitions and the per-op output checks.

A workload is a list of ops; an op is the argv a user types for the
``dynbif`` console script, plus the artifact name passed as ``--out`` and a
check.  Seed 0 gives exactly the ops of the benchmark definition; other seeds
draw the free input of a workload from a fixed list, so that every input has
outputs recorded in ``reference/``.

Each check raises :class:`CheckFailed` or returns the number of objects the
op certified.  The checks are independent of the program's own certificates:
counts come from the benchmark's own Moebius sums, residuals from its own
Horner evaluation, multipliers from its own critical-orbit iteration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Free inputs.  Index 0 is the seed op; seed s uses index s % len(list).
# c values: outside the Mandelbrot set, where the closed-form reference
# holds.  At each listed c the ladder fails at k = 12 only (ORBIT_MISMATCH at
# the default tolerance), as at c = 1.0, so every seed counts that failure.
LYAP_C = ("1.0", "0.85", "0.88", "0.9", "0.93", "0.95", "0.97", "0.99")
# windows x0,x1,y0,y1: each contains the whole Mandelbrot set, so every
# reference-period center lands in the 512x512 image.
EQUIDIST_WINDOW = ("-2.1,0.6,-1.3,1.3", "-2.2,0.6,-1.3,1.3",
                   "-2.1,0.7,-1.2,1.2", "-2.3,0.5,-1.4,1.4",
                   "-2.05,0.55,-1.25,1.35", "-2.2,0.8,-1.5,1.5",
                   "-2.15,0.65,-1.35,1.25", "-2.25,0.75,-1.3,1.3")
# rho for percurve; None is the CLI default (0.5) of the seed op.
PERCURVE_RHO = (None, "0.3", "0.35", "0.4", "0.45", "0.55", "0.6", "0.65")

LYAP_TOL = 1e-9           # |L_n - L_n at seed|
LYAP_NORM_FACTOR = 50.0   # normalized error <= 50 x the first rung's, as in
                          # acceptance criterion 2
EQUIDIST_MOMENT_TOL = 1e-9
EQUIDIST_TV_TOL = 1e-6
PGM_BLOCKS = 8            # the image is compared as 8x8 block masses
PGM_BLOCK_TOL = 1e-3      # L1 distance of the normalized block masses
ROOT_TOL = 1e-9           # parameter positions against the seed outputs
RESIDUAL_TOL = 1e-8
MULTIPLIER_TOL = 1e-8


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    argv: list[str]
    out: str
    check: Callable[["CheckContext"], int]


@dataclass
class CheckContext:
    """What a check sees: the op's artifacts, its run report and the
    recorded seed outputs for the same input."""

    op: Op
    outdir: Path
    report: dict
    refdir: Path

    def path(self, name: str) -> Path:
        return self.outdir / name

    def ref(self, name: str) -> Path | None:
        """Recorded seed output, or None where the op failed at seed."""
        p = self.refdir / name
        return p if p.exists() else None

    def need(self, name: str) -> Path:
        p = self.refdir / name
        if not p.exists():
            raise RuntimeError(f"no recorded seed output {p}")
        return p


@dataclass
class Workload:
    name: str
    free_input: str
    ops: Callable[[int, bool], list[Op]]
    choices: int


# ---------------------------------------------------------------------------
# arithmetic of the benchmark's own
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0]


def _moebius(n: int) -> int:
    out, p, k = 1, 2, n
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


def sphere_points(d: int, n: int) -> int:
    """Exact-period-n points of a degree-d map on the sphere."""
    return sum(_moebius(n // m) * (d**m + 1) for m in _divisors(n))


def affine_points(d: int, n: int) -> int:
    """Exact-period-n points of a degree-d polynomial in the plane."""
    return sum(_moebius(n // m) * d**m for m in _divisors(n))


def _quad_lyapunov(c: complex) -> float:
    """log 2 + G_c(0) for z^2 + c, from the escape rate of the critical
    orbit."""
    z, scale = 0j, 1.0
    for _ in range(2000):
        z = z * z + c
        scale *= 0.5
        if abs(z) > 1e100:
            return math.log(2.0) + scale * math.log(abs(z))
    return math.log(2.0)


def _pca3_step(z, c, a):
    # Horner form of z^3/3 - (c/2) z^2 + a^3
    return ((z / 3.0 - c / 2.0) * z) * z + a**3


def _first_return(z0, c, a, n: int, tol: float = 1e-8) -> int:
    z = z0
    for m in range(1, n + 1):
        z = _pca3_step(z, c, a)
        if abs(z - z0) <= tol:
            return m
    return 0


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    try:
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    except (OSError, ValueError, IndexError) as exc:
        raise CheckFailed(f"{path.name}: unreadable CSV ({exc})") from exc
    arr = np.array(rows, dtype=float).reshape(len(rows), len(header))
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{path.name}: non-finite cell")
    return header, arr


def read_pgm(path: Path) -> np.ndarray:
    try:
        parts = path.read_bytes().split(b"\n", 3)
    except OSError as exc:
        raise CheckFailed(f"{path.name}: unreadable ({exc})") from exc
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"65535":
        raise CheckFailed(f"{path.name}: not a 16-bit P5 image")
    nx, ny = (int(x) for x in parts[1].split())
    pix = np.frombuffer(parts[3], dtype=">u2")
    if pix.size != nx * ny:
        raise CheckFailed(f"{path.name}: {pix.size} pixels, header says "
                          f"{nx}x{ny}")
    return pix.reshape(ny, nx).astype(float)


def pgm_summary(pix: np.ndarray) -> list[list[float]]:
    """Block masses of the image, normalized to sum 1."""
    ny, nx = pix.shape
    b = PGM_BLOCKS
    blocks = pix.reshape(b, ny // b, b, nx // b).sum(axis=(1, 3))
    return (blocks / blocks.sum()).tolist()


def pgm_atoms(pix: np.ndarray) -> int:
    """Number of equal-weight atoms binned into a max-normalized image.

    Pixel values are round(65535 * count / peak); the peak count is the one
    P for which every pixel maps back to an integer count."""
    vals = pix[pix > 0]
    for peak in range(1, 5000):
        counts = vals * peak / 65535.0
        if np.max(np.abs(counts - np.round(counts))) < 0.02:
            return int(np.round(counts).sum())
    raise CheckFailed("image pixels are not integer atom counts")


def _match(found: np.ndarray, expected: np.ndarray, tol: float, what: str
           ) -> None:
    """Every expected point has a found point within tol."""
    if len(expected) == 0:
        return
    if len(found) == 0:
        raise CheckFailed(f"{what}: no points, expected {len(expected)}")
    for chunk in np.array_split(expected, max(1, len(expected) // 256)):
        dist = np.abs(chunk[:, None, :] - found[None, :, :]).max(axis=2)
        worst = float(dist.min(axis=1).max())
        if worst > tol:
            raise CheckFailed(f"{what}: a seed point moved by {worst:.2e} "
                              f"(> {tol:g})")


def _distinct(points: np.ndarray, what: str) -> None:
    """No two points within ROOT_TOL of each other."""
    for start in range(0, len(points), 256):
        chunk = points[start:start + 256]
        dist = np.abs(chunk[:, None, :] - points[None, :, :]).max(axis=2)
        dist[np.arange(len(chunk)), start + np.arange(len(chunk))] = np.inf
        if float(dist.min()) <= ROOT_TOL:
            raise CheckFailed(f"{what}: duplicate points")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_lyap(k: int, c: complex, first: int):
    def check(ctx: CheckContext) -> int:
        header, rows = _read_csv(ctx.path(ctx.op.out))
        if header != ["n", "L_n_r", "reference", "error",
                      "normalized_error"] or rows.shape[0] != 1:
            raise CheckFailed(f"lyap n={k}: unexpected layout")
        n = int(rows[0, 0])
        value, reference = float(rows[0, 1]), float(rows[0, 2])
        if n != k:
            raise CheckFailed(f"lyap n={k}: row for n={n}")
        own = _quad_lyapunov(c)
        if abs(reference - own) > 1e-10:
            raise CheckFailed(f"lyap n={k}: reference {reference!r} differs "
                              f"from the closed form {own!r}")
        normalized = abs(value - own) * 2.0**k / sum(
            m * m for m in _divisors(k))
        first_ref = ctx.ref(f"lyap-n{first}.csv")
        if first_ref is not None:
            bound = LYAP_NORM_FACTOR * _read_csv(first_ref)[1][0, 4]
            if normalized > bound:
                raise CheckFailed(f"lyap n={k}: normalized error "
                                  f"{normalized:.3e} > {bound:.3e}")
        seed_row = ctx.ref(ctx.op.out)
        if seed_row is not None:
            seed_value = float(_read_csv(seed_row)[1][0, 1])
            if abs(value - seed_value) > LYAP_TOL:
                raise CheckFailed(f"lyap n={k}: L_n = {value!r}, seed "
                                  f"{seed_value!r}")
        return sphere_points(2, k)
    return check


def check_equidist(ns: range, ref_n: int, k_moments: int):
    def check(ctx: CheckContext) -> int:
        header, rows = _read_csv(ctx.path(ctx.op.out))
        want = (["n"] + [f"moment_error_{j}" for j in range(1, k_moments + 1)]
                + ["grid_tv"])
        if header != want or [int(x) for x in rows[:, 0]] != list(ns):
            raise CheckFailed("equidist: unexpected layout")
        if np.any(rows[:, 1:] < 0) or np.any(rows[:, -1] > 1):
            raise CheckFailed("equidist: errors out of range")
        seed = _read_csv(ctx.need(ctx.op.out))[1]
        dm = float(np.abs(rows[:, 1:-1] - seed[:, 1:-1]).max())
        dtv = float(np.abs(rows[:, -1] - seed[:, -1]).max())
        if dm > EQUIDIST_MOMENT_TOL or dtv > EQUIDIST_TV_TOL:
            raise CheckFailed(f"equidist: moment errors moved {dm:.2e}, "
                              f"grid TV moved {dtv:.2e}")
        pgm = ctx.op.out.rsplit(".", 1)[0] + ".pgm"
        pix = read_pgm(ctx.path(pgm))
        atoms = pgm_atoms(pix)
        centers = affine_points(2, ref_n) // 2
        if atoms != centers:
            raise CheckFailed(f"equidist: image holds {atoms} centers, the "
                              f"Moebius count is {centers}")
        seed_blocks = np.array(json.loads(
            ctx.need(pgm + ".summary.json").read_text()))
        dist = float(np.abs(np.array(pgm_summary(pix)) - seed_blocks).sum())
        if dist > PGM_BLOCK_TOL:
            raise CheckFailed(f"equidist: image block masses moved {dist:.2e}")
        return centers
    return check


def check_count(n0: int, n1: int):
    def check(ctx: CheckContext) -> int:
        try:
            rec = json.loads(ctx.path(ctx.op.out).read_text())
            seed = json.loads(ctx.need(ctx.op.out).read_text())
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"count: unreadable JSON ({exc})") from exc
        exact = affine_points(3, n0) * affine_points(3, n1)
        problems = []
        if rec.get("warnings") != []:
            problems.append(f"warnings {rec.get('warnings')!r}")
        if rec.get("bezout") != exact * (1 if n0 == n1 else 2):
            problems.append(f"bezout {rec.get('bezout')}")
        if rec.get("marked_solutions") != 2 * exact:
            problems.append(f"marked_solutions {rec.get('marked_solutions')}"
                            f" != {2 * exact}")
        for key in ("N", "marked_solutions", "merged_solutions"):
            if rec.get(key) != seed[key]:
                problems.append(f"{key} {rec.get(key)} != seed {seed[key]}")
        if problems:
            raise CheckFailed("count: " + "; ".join(problems))
        return rec["marked_solutions"]
    return check


def check_centers(n0: int, n1: int):
    def check(ctx: CheckContext) -> int:
        header, rows = _read_csv(ctx.path(ctx.op.out))
        if header != ["re", "im", "re2", "im2", "period", "period2",
                      "residual"]:
            raise CheckFailed("centers: unexpected layout")
        diag = ctx.report.get("diagnostics", {})
        markings = 1 if n0 == n1 else 2
        exact = markings * affine_points(3, n0) * affine_points(3, n1)
        if diag.get("warnings") != []:
            raise CheckFailed(f"centers: warnings {diag.get('warnings')!r}")
        if diag.get("multiplicity_total") != exact:
            raise CheckFailed(f"centers: multiplicity total "
                              f"{diag.get('multiplicity_total')} != Bezout "
                              f"{exact}")
        seed = _read_csv(ctx.need(ctx.op.out))[1]
        if rows.shape[0] != seed.shape[0]:
            raise CheckFailed(f"centers: {rows.shape[0]} rows, seed "
                              f"{seed.shape[0]}")
        c = rows[:, 0] + 1j * rows[:, 1]
        a = rows[:, 2] + 1j * rows[:, 3]
        for ci, ai, p0, p1 in zip(c, a, rows[:, 4], rows[:, 5]):
            z0, z1 = 0j, ci
            for _ in range(int(p0)):
                z0 = _pca3_step(z0, ci, ai)
            for _ in range(int(p1)):
                z1 = _pca3_step(z1, ci, ai)
            if max(abs(z0), abs(z1 - ci)) > RESIDUAL_TOL:
                raise CheckFailed(f"centers: residual {abs(z0):.2e}, "
                                  f"{abs(z1 - ci):.2e} at c={ci}, a={ai}")
            if (_first_return(0j, ci, ai, int(p0)) != p0
                    or _first_return(ci, ci, ai, int(p1)) != p1):
                raise CheckFailed(f"centers: wrong exact period at c={ci}")
        if sorted(set(zip(rows[:, 4], rows[:, 5]))) != sorted(
                {(n0, n1), (n1, n0)}):
            raise CheckFailed("centers: unexpected period markings")
        _distinct(rows[:, :6], "centers")
        _match(rows[:, :4], seed[:, :4], ROOT_TOL, "centers")
        return exact
    return check


def check_percurve(n: int, rho: float, thetas: int):
    def check(ctx: CheckContext) -> int:
        header, rows = _read_csv(ctx.path(ctx.op.out))
        if header != ["re", "im", "weight"]:
            raise CheckFailed("percurve: unexpected layout")
        weight = 1.0 / (sphere_points(2, n) * thetas)
        if np.any(np.abs(rows[:, 2] - weight) > 1e-15):
            raise CheckFailed(f"percurve: weights differ from {weight!r}")
        if rows.shape[0] > affine_points(2, n) // 2 * thetas:
            raise CheckFailed("percurve: more atoms than centers x angles")
        # the critical orbit converges to the attracting cycle, whose
        # multiplier must sit on the level curve at a grid angle
        c = rows[:, 0] + 1j * rows[:, 1]
        z = np.zeros_like(c)
        for _ in range(400 * n):
            z = z * z + c
        lam = np.ones_like(c)
        for _ in range(n):
            lam = lam * 2.0 * z
            z = z * z + c
        k = np.angle(lam) * thetas / (2.0 * np.pi)
        if (np.any(np.abs(np.abs(lam) - rho) > MULTIPLIER_TOL)
                or np.any(np.abs(k - np.round(k)) > MULTIPLIER_TOL * thetas)):
            raise CheckFailed("percurve: an atom's multiplier is off the "
                              "level curve")
        _distinct(rows[:, :2], "percurve")
        seed = _read_csv(ctx.need(ctx.op.out))[1]
        _match(rows[:, :2], seed[:, :2], ROOT_TOL, "percurve")
        return int(rows.shape[0])
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _pick(choices, seed: int):
    return choices[seed % len(choices)]


def lyap_ops(seed: int, smoke: bool) -> list[Op]:
    c = _pick(LYAP_C, seed)
    ks = range(3, 6) if smoke else range(6, 13)
    return [Op(["lyap", "--family", "quad", "--c", c, "--n", str(k)],
               f"lyap-n{k}.csv", check_lyap(k, complex(c), ks[0]))
            for k in ks]


def equidist_ops(seed: int, smoke: bool) -> list[Op]:
    window = _pick(EQUIDIST_WINDOW, seed)
    if smoke:
        ns, ref, res = range(3, 6), 7, "32,32"
    else:
        ns, ref, res = range(6, 13), 14, "512,512"
    return [Op(["equidist", "--family", "quad", "--n", f"{ns[0]}..{ns[-1]}",
                "--ref", str(ref), "--k", "4", f"--window={window}",
                "--resolution", res],
               "equidist.csv", check_equidist(ns, ref, 4))]


def centers_ops(seed: int, smoke: bool) -> list[Op]:
    count, centers = ((1, 1), (1, 2)) if smoke else ((2, 2), (1, 3))
    return [
        Op(["count", "--family", "pca3", "--periods",
            f"{count[0]},{count[1]}", "--no-cache"],
           "count.json", check_count(*count)),
        Op(["centers", "--family", "pca3", "--periods",
            f"{centers[0]},{centers[1]}", "--no-cache"],
           "centers.csv", check_centers(*centers)),
    ]


def percurve_ops(seed: int, smoke: bool) -> list[Op]:
    rho = _pick(PERCURVE_RHO, seed)
    n, thetas = (3, 8) if smoke else (6, 32)
    argv = ["percurve", "--family", "quad", "--n", str(n)]
    if rho is not None:
        argv += ["--rho", rho]
    argv += ["--thetas", str(thetas)]
    return [Op(argv, "percurve.csv",
               check_percurve(n, float(rho or 0.5), thetas))]


WORKLOADS = {
    w.name: w for w in [
        Workload("lyap-ladder", "c", lyap_ops, len(LYAP_C)),
        Workload("equidist-quad", "window", equidist_ops,
                 len(EQUIDIST_WINDOW)),
        Workload("centers-pca3", "none", centers_ops, 1),
        Workload("percurve-quad", "rho", percurve_ops, len(PERCURVE_RHO)),
    ]
}


def reference_key(workload: Workload, seed: int, smoke: bool) -> str:
    """Directory under reference/<workload>/ holding the seed outputs for
    the input this seed selects."""
    return "smoke" if smoke else str(seed % workload.choices)
