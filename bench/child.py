"""One apsim CLI invocation in a fresh process, timed from the inside.

Usage: python3 child.py <spec.json>

The spec names the source directory, the CLI argv (empty for an
import-only set-up sample), whether to trace, and where to write the
result.  The import of ``apsim.cli`` is timed first, before anything
else is imported, so it measures what a user's ``apsim`` start costs.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import apsim.cli

    import_s = time.perf_counter() - t0

    import json
    import resource
    import traceback
    from pathlib import Path

    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    result = {"import_s": import_s, "exit_code": None, "error": None}
    if src not in Path(apsim.cli.__file__).resolve().parents:
        result["error"] = f"imported apsim from {apsim.cli.__file__}, not {src}"
    elif spec["argv"]:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer, install

            tracer = Tracer()
            result["absent"], _ = install(tracer)
        c0, w0 = time.process_time(), time.perf_counter()
        span = tracer.open("cli.main") if tracer else None
        try:
            result["exit_code"] = apsim.cli.main(spec["argv"])
        except Exception:  # a traceback is a failed invocation, not a crash
            result["error"] = traceback.format_exc()
        finally:
            if span is not None:
                tracer.close(span)
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
        if tracer is not None:
            result["tracer"] = tracer.to_json()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))
