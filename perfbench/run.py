"""dynbif benchmark: CLI workloads, end-to-end metrics and a layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--corrupt]

Each iteration of a workload is one fresh interpreter on one core (the
worker), which imports ``dynbif.cli`` from ``src/`` and runs the workload's
ops one after another through ``dynbif.cli.main(argv)``, the console-script
entry point: a closed loop with one client.  ``DYNBIF_CACHE_DIR`` is removed
from the environment, ``--no-cache`` is passed, and outputs go to a
temporary directory under ``.perfbench/``.  Iterations repeat until
``--seconds`` have passed and three are done, but none starts that would
end after 2.5 x ``--seconds``; every op's output is checked
(``workloads.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the iterations of the run):

- ``wall_s``: first op start to last op end, the time to certified results;
- ``setup_s``: interpreter start to ``import dynbif.cli`` done, over a few
  bare start-ups and every iteration's;
- ``certified_per_s``: objects certified by successful, checked ops (cycle
  points, reference-period centers, multiplicity-weighted solutions, atoms)
  per second of ``wall_s``;
- ``ops_ok_frac``: ops that exit 0 and pass their check, over ops attempted
  (``ops_failed_frac`` = 1 - this is printed in the table);
- ``peak_rss_mb``: peak resident memory of the worker.

With ``--trace 1`` each untraced iteration is followed by a traced one whose
spans (``tracer.py``) give the per-layer metrics; the traced artifacts must
match the untraced ones byte for byte, and the module self times plus
``trace.uncovered_s`` must add up to the traced wall time.

``--smoke`` runs tiny inputs in seconds, for ``test_perfbench.py``;
``--corrupt`` damages the first op's artifact before its check, to show a
wrong output is counted as a failed op.  ``--workload all`` (the default)
runs every workload and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
MIN_ITERATIONS = 3    # so the median drops one slow iteration
ITERATION_CAP = 2.5   # start no iteration expected to end past this many
                      # times --seconds, nor past TIME_LIMIT_S
TIME_LIMIT_S = 150.0
RUN_LIMIT_S = 175.0   # a worker still running then is killed
END_TO_END = {"wall_s": "s", "setup_s": "s", "certified_per_s": "1/s",
              "ops_ok_frac": "ratio", "peak_rss_mb": "MB"}
PARTITION_TOL = 1e-6  # relative, on self times + uncovered = wall
CACHE_ENV = "DYNBIF_CACHE_DIR"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")


class Harness:
    """Spawns workers for one workload run and keeps their temporary files."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        env = dict(os.environ)
        env.pop(CACHE_ENV, None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        for var in THREAD_VARS:
            env[var] = "1"
        self.env = env
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self._n = 0

    def spawn(self, ops=(), trace=False, probe=False) -> tuple[dict, float]:
        """Run one worker; returns its result and its set-up time."""
        self._n += 1
        spec_path = self.tmp / f"spec-{self._n}.json"
        result_path = self.tmp / f"result-{self._n}.json"
        spec_path.write_text(json.dumps(
            {"ops": list(ops), "result": str(result_path), "probe": probe,
             "trace": trace}))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(10.0, self.deadline - time.monotonic()))
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        return result, result["ready"] - t0


def op_argv(op: wl.Op, outdir: Path) -> list[str]:
    argv = list(op.argv)
    if "--no-cache" not in argv:
        argv.append("--no-cache")
    return argv + ["--out", str(outdir / op.out)]


def digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


def corrupt_first_artifact(path: Path) -> None:
    """Change one value of an artifact: the second cell of the last CSV
    row, or the first number of a JSON record."""
    text = path.read_text()
    if path.suffix == ".json":
        rec = json.loads(text)
        key = next(k for k, v in sorted(rec.items())
                   if isinstance(v, (int, float)))
        rec[key] += 1
        path.write_text(json.dumps(rec))
        return
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-3) + 1e-3)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def evaluate(ops, result: dict, outdir: Path, refdir: Path, corrupt: bool
             ) -> dict:
    """Check every op of one iteration."""
    failed = incorrect = certified = 0
    messages = []
    for i, (op, run) in enumerate(zip(ops, result["ops"])):
        if run["rc"] != 0:
            failed += 1
            last = (run["stderr"].strip().splitlines() or ["?"])[-1]
            messages.append(f"{' '.join(op.argv)}: exit {run['rc']}: {last}")
            continue
        if corrupt and i == 0:
            corrupt_first_artifact(outdir / op.out)
        try:
            report = json.loads(run["stdout"])
            certified += op.check(wl.CheckContext(op, outdir, report, refdir))
        except (wl.CheckFailed, ValueError) as exc:
            failed += 1
            incorrect += 1
            messages.append(f"{' '.join(op.argv)}: check failed: {exc}")
    runs = result["ops"]
    wall = runs[-1]["end"] - runs[0]["start"]
    return {"attempted": len(ops), "failed": failed, "incorrect": incorrect,
            "certified": certified, "wall": wall, "messages": messages,
            "digests": digests(outdir),
            "maxrss_mb": result["maxrss_kb"] / 1024.0}


def context_record() -> dict:
    """Machine and source description of the run; informational."""
    try:
        import numba
        numba_info = {"imports": True, "version": numba.__version__,
                      "threads": numba.config.NUMBA_NUM_THREADS}
    except ImportError:
        numba_info = {"imports": False}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_loc = sum(len(p.read_text().splitlines())
                  for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_info,
        # as inherited; workers run with each of these set to 1
        "blas_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_loc": src_loc,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, corrupt: bool) -> dict:
    workload = wl.WORKLOADS[name]
    ops = workload.ops(0 if smoke else seed, smoke)
    refdir = wl.REFERENCE_DIR / name / wl.reference_key(workload, seed, smoke)
    RUN_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR))
    try:
        return _run(workload, ops, refdir, tmp, seed, seconds, trace,
                    corrupt)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(workload, ops, refdir, tmp, seed, seconds, trace, corrupt) -> dict:
    h = Harness(tmp)
    h.spawn(probe=True)  # unmeasured: byte-compiles src/ once
    setups = [h.spawn(probe=True)[1] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    started = time.monotonic()
    cap = min(ITERATION_CAP * seconds, TIME_LIMIT_S)
    last = 0.0
    while True:
        elapsed = time.monotonic() - started
        if plain and (elapsed + last > cap or (
                len(plain) >= MIN_ITERATIONS and elapsed >= seconds)):
            break
        t0 = time.monotonic()
        for kind in ("plain", "traced") if trace else ("plain",):
            outdir = tmp / f"{kind}-{len(plain)}"
            outdir.mkdir()
            result, setup = h.spawn([op_argv(op, outdir) for op in ops],
                                    trace=kind == "traced")
            setups.append(setup)
            ev = evaluate(ops, result, outdir, refdir, corrupt)
            if kind == "traced":
                ev["layers"] = tracer.layer_metrics(
                    result["spans"], result["counters"], ev["wall"])
                traced.append(ev)
            else:
                plain.append(ev)
        last = time.monotonic() - t0
    return summarize(workload, ops, refdir, seed, seconds, setups, plain,
                     traced, trace)


def summarize(workload, ops, refdir, seed, seconds, setups, plain, traced,
              trace) -> dict:
    everything = plain + traced
    attempted = sum(e["attempted"] for e in everything)
    failed = sum(e["failed"] for e in everything)
    correct = all(e["incorrect"] == 0 for e in everything)
    messages = sorted({m for e in everything for m in e["messages"]})
    walls = [e["wall"] for e in plain]
    wall = statistics.median(walls)
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "certified_per_s": statistics.median(
            e["certified"] / e["wall"] for e in plain),
        "ops_ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(e["maxrss_mb"] for e in plain),
    }
    seed_digests = {}
    if (refdir / "sha256.json").exists():
        seed_digests = json.loads((refdir / "sha256.json").read_text())
    same = sum(1 for k, v in plain[0]["digests"].items()
               if seed_digests.get(k) == v)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "ops": [op.argv for op in ops],
        "free_input": workload.free_input,
        "iterations": len(plain), "walls_s": walls,
        "setups_s": setups, "attempted": attempted, "failed": failed,
        "correct": correct, "messages": messages,
        "end_to_end": end_to_end,
        "ops_failed_frac": failed / attempted,
        "bytes_identical_to_seed": f"{same}/{len(plain[0]['digests'])}",
    }
    if trace:
        pick = sorted(traced, key=lambda e: e["wall"])[(len(traced) - 1) // 2]
        layers = dict(pick["layers"])
        layers["trace.overhead_s"] = (pick["wall"] - wall, "s")
        record["layers"] = layers
        partition = (sum(v for k, (v, _) in layers.items()
                         if k.endswith(".self_s"))
                     + layers["trace.uncovered_s"][0])
        record["partition_ok"] = (abs(partition - pick["wall"])
                                  <= PARTITION_TOL * pick["wall"])
        record["trace_matches_untraced"] = all(
            e["digests"] == plain[0]["digests"] for e in traced)
        record["correct"] = (correct and record["partition_ok"]
                             and record["trace_matches_untraced"])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u}
                   for k, u in END_TO_END.items()}
    record["metrics"] = metrics
    return record


def print_table(records) -> None:
    for rec in records:
        print(f"== {rec['workload']}  seed {rec['seed']}  "
              f"iterations {rec['iterations']}  ops attempted "
              f"{rec['attempted']} failed {rec['failed']}  "
              f"correct {rec['correct']}  bytes identical to seed "
              f"{rec['bytes_identical_to_seed']}")
        for msg in rec["messages"]:
            print(f"   op: {msg}")
        rows = [(k, m["value"], m["unit"]) for k, m in rec["metrics"].items()]
        if not rec["trace"]:
            rows.append(("ops_failed_frac", rec["ops_failed_frac"], "ratio"))
        for k, v, u in rows:
            print(f"   {k:<34} {v:>14.6g} {u}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *wl.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)
    # a terminated benchmark still kills and waits for its worker and
    # removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "dynbif" / "cli.py").is_file():
        print(f"perfbench: no dynbif sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    context = context_record()
    # one core for this process and, inherited, every worker
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print("context " + json.dumps(context, sort_keys=True))
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.smoke, args.corrupt)
        rec["context"] = context
        RUN_DIR.mkdir(exist_ok=True)
        (RUN_DIR / f"{name}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1, sort_keys=True))
        records.append(rec)
    print_table(records)
    results = {rec["workload"]: {"correct": rec["correct"],
                                 "attempted": rec["attempted"],
                                 "failed": rec["failed"],
                                 "metrics": rec["metrics"]}
               for rec in records}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
