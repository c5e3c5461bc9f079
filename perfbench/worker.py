"""Run one `workbench` command in this fresh interpreter and report on it.

    python3 perfbench/worker.py '<job json>'

The job names the argv for ``hodgebench.cli.main``, whether to trace, and
where to write the spans.  The last line on stdout is a JSON record: when
``hodgebench.cli`` was imported and ready (``time.monotonic``, comparable
with the parent's clock), the timed ``main`` call, its exit code, any
traceback, the peak RSS and, when traced, the tracer's summary.
"""

import sys
import time

if __name__ == "__main__":
    import json
    import os
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import hodgebench.cli as cli

    t_ready = time.monotonic()

    import ctypes
    import glob
    import resource
    import traceback

    import numpy

    def blas_threads():
        """Threads the loaded OpenBLAS will use, or None if it is not OpenBLAS."""
        libdir = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    return fn()
        return None

    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(job["argv"])
    except SystemExit as exc:  # argparse rejected the argv
        code, error = exc.code, f"SystemExit({exc.code!r})"
    except Exception:
        code, error = None, traceback.format_exc()
    main_s = time.perf_counter() - t0
    record = {
        "t_ready": t_ready,
        "main_s": main_s,
        "code": code,
        "error": error,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    sys.stdout.write(json.dumps(record) + "\n")
