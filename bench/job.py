"""One benchmark job: a fresh interpreter calling ``altfrob.cli.main(argv)``.

    python3 bench/job.py TRACE_FILE -- ARGV...

TRACE_FILE is ``-`` for an untraced job.  Otherwise the job installs the
wrappers of ``tracer.py`` after importing ``altfrob.cli`` and writes its
per-layer metrics, the import time and the time spent in ``main`` to
TRACE_FILE as JSON.  The exit code is the CLI's.
"""

import json
import sys
import time


def main() -> int:
    trace_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: job.py TRACE_FILE -- ARGV...")
    t0 = time.perf_counter()
    import altfrob.cli
    import_s = time.perf_counter() - t0
    tr = None
    if trace_file != "-":
        import tracer
        tr = tracer.Tracer()
        tr.install()
    t1 = time.perf_counter()
    rc = altfrob.cli.main(argv)
    main_s = time.perf_counter() - t1
    if tr is not None:
        doc = {"metrics": tr.metrics(), "import_s": import_s,
               "main_s": main_s, "spans_s": tr.top}
        with open(trace_file, "w") as fh:
            json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
