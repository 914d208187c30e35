"""Child processes of the benchmark.

    python3 perfbench/child.py probe DIAGRAM FLAG...
        Times `import sasakit` (with its CLI module) and one warm-up
        `analyze` op in a fresh interpreter; prints one JSON line.
    python3 perfbench/child.py trace SPANS ARG...
        Runs `sasakit.cli.main(ARG...)` under the tracer, writes the spans
        to SPANS and exits with the CLI's code.  Used by the traced rounds
        of cli-cold, whose ops are processes of their own.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv):
    sys.path.insert(0, str(HERE.parent / "src"))
    mode, path, rest = argv[0], argv[1], argv[2:]
    if mode == "probe":
        t0 = time.perf_counter()
        import sasakit  # noqa: F401
        from sasakit import cli

        t1 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", path, *rest])
        t2 = time.perf_counter()
        print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1, "code": code}))
        return 0
    if mode == "trace":
        sys.path.insert(0, str(HERE))
        from tracing import Tracer

        from sasakit import cli

        tracer = Tracer()
        with tracer.installed(), tracer.op_span(0):
            code = cli.main(rest)
        Path(path).write_text(json.dumps(tracer.spans))
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
