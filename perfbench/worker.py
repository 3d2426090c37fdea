"""One pass of a workload in a fresh, single-threaded interpreter.

Usage: python3 perfbench/worker.py JOB_JSON

run.py writes the job: where ``mmo_tune`` lives, the plan document to build
during set-up, and the commands to run through ``mmo_tune.cli.main``. The
worker times set-up from the parent's spawn time (``perf_counter`` is
system-wide), times each command, and writes its result as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import mmo_tune.cli
    from mmo_tune.harness import plan_from_doc

    with open(job["plan"], encoding="utf-8") as fh:
        plan_from_doc(json.load(fh))
    setup_s = time.perf_counter() - job["spawned"]

    cli_main = mmo_tune.cli.main
    tracer = None
    if job["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.span("cli", cli_main, "cli")

    ops = []
    for op in job["ops"]:
        if op["kind"] == "campaign":
            argv = [*op["args"], "--out", op["dir"]]
        else:
            argv = ["stats", "--dir", op["dir"]]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
        seconds = time.perf_counter() - start
        sha = None
        if rc == 0:
            with open(os.path.join(op["dir"], "report.json"), "rb") as fh:
                sha = hashlib.sha256(fh.read()).hexdigest()
        ops.append({"seconds": seconds, "rc": rc, "error": err.getvalue(), "report_sha256": sha})

    if tracer is not None:
        tracer.dump(job["spans"])
    result = {
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
