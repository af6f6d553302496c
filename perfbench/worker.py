"""One workload iteration in a fresh interpreter.

Usage: python3 worker.py SPEC.json

SPEC holds ``ops`` (argv lists for ``dynbif.cli.main``), ``result`` (the
path this writes), ``probe`` (stop once ``dynbif.cli`` is imported) and
``trace`` (record spans).  The result holds the monotonic time at which the
import finished, each op's exit code, timing, report and stderr, the peak
resident memory, and the spans.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_ops(main, ops):
    out = []
    for argv in ops:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = "raised"
            stderr.write(traceback.format_exc())
        end = time.perf_counter()
        out.append({"argv": argv, "rc": rc, "start": start, "end": end,
                    "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    return out


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import dynbif.cli
    result = {"ready": time.monotonic(), "ops": [], "spans": None,
              "counters": None}
    if not spec.get("probe"):
        tr = None
        if spec.get("trace"):
            import tracer
            tr = tracer.Tracer()
            tracer.install(tr)
        result["ops"] = run_ops(dynbif.cli.main, spec["ops"])
        if tr is not None:
            result["spans"] = tr.spans
            result["counters"] = dict(tr.counters)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
