"""One benchmark job in a fresh process.

Usage: worker.py SRC_DIR RESULT_PATH TRACE JOB_ID -- CLI_ARGS...

Imports braidties from SRC_DIR, records the monotonic time at which the
import finished, optionally installs the tracer, runs
braidties.cli.main(CLI_ARGS) in the current directory, and writes a JSON
result (exit code, error, import-ready time, peak RSS, trace summary and
layer-boundary spans) to RESULT_PATH.
"""

import json
import os
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    src, result_path, trace, job_id = argv[:4]
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, os.path.abspath(src))
    import braidties.cli
    ready = time.monotonic()
    out = {"ready": ready, "module": braidties.cli.__file__}
    tracer = None
    if trace == "1":
        from tracer import Tracer
        from braidties import btalg
        kl_cache = btalg.kl_lift
        tracer = Tracer(int(job_id))
        tracer.install("braidties")
    try:
        out["code"] = braidties.cli.main(cli_args)
    except SystemExit as exc:
        out["code"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        out["code"] = 1
        out["error"] = traceback.format_exc(limit=5)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.summary(kl_cache)
        out["spans"] = tracer.span_records()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
