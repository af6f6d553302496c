"""Record the seed outputs that the per-op checks compare against.

Usage (from the repository root, at the commit whose outputs are the
reference)::

    python3 perfbench/record_reference.py [--workload NAME] [--smoke-only]

For every workload and every choice of its free input (and the smoke
inputs) this runs the ops once and stores, under
``reference/<workload>/<choice>/``, each artifact (a PGM image as its block
masses), ``sha256.json`` with the digest of every artifact, and ``ops.json``
with each op's exit code.  An op that fails leaves no artifact, so its check
falls back to the benchmark's own references.
"""

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads as wl


def record(name: str, key: str, tmp: Path) -> None:
    workload = wl.WORKLOADS[name]
    smoke = key == "smoke"
    ops = workload.ops(0 if smoke else int(key), smoke)
    outdir = tmp / f"{name}-{key}"
    outdir.mkdir()
    result, _ = run.Harness(tmp).spawn(
        [run.op_argv(op, outdir) for op in ops])
    refdir = wl.REFERENCE_DIR / name / key
    shutil.rmtree(refdir, ignore_errors=True)
    refdir.mkdir(parents=True)
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".pgm":
            summary = wl.pgm_summary(wl.read_pgm(path))
            (refdir / (path.name + ".summary.json")).write_text(
                json.dumps(summary))
        else:
            shutil.copyfile(path, refdir / path.name)
    (refdir / "sha256.json").write_text(
        json.dumps(run.digests(outdir), indent=1, sort_keys=True) + "\n")
    exits = [{"argv": op.argv, "rc": r["rc"],
              "stderr": r["stderr"].strip()[-300:]}
             for op, r in zip(ops, result["ops"])]
    (refdir / "ops.json").write_text(json.dumps(exits, indent=1) + "\n")
    print(name, key, [e["rc"] for e in exits], flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(wl.WORKLOADS))
    ap.add_argument("--smoke-only", action="store_true")
    args = ap.parse_args()
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    run.RUN_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=run.RUN_DIR))
    try:
        for name in names:
            keys = ["smoke"]
            if not args.smoke_only:
                keys += [str(i) for i in range(wl.WORKLOADS[name].choices)]
            for key in keys:
                record(name, key, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
