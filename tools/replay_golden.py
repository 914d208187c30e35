"""Replay the golden outputs of tests/golden under a given Python interpreter.

Each case file in tests/golden/ holds a diagram's normals and the exact exit
code and stdout of `sasakit check` and of `sasakit analyze --cy --topo
--reeb` on it.  This runs both commands as `PYTHON -m sasakit.cli` with
PYTHONPATH=src on each case and compares.  Neither command imports numpy,
so PYTHON needs none: any interpreter the package allows will do.

Usage: python tools/replay_golden.py [PYTHON]   (default: this interpreter)
Prints each mismatching file, then "<k> of <n> golden files match on Python
<version>"; exits 1 if any file mismatches, 2 if PYTHON does not run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# subcommand -> flags after the input path, as tests/test_golden.py runs them
COMMANDS = {
    "check": [],
    "analyze": ["--cy", "--topo", "--reeb"],
}


def _run(python: str, args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([python, *args], env=env, capture_output=True)


def main(argv=None, golden: Path = GOLDEN) -> int:
    args = sys.argv[1:] if argv is None else argv
    python = args[0] if args else sys.executable
    try:
        probe = _run(python, ["-c", "import sys; print(sys.version.split()[0])"])
    except OSError as exc:
        sys.stderr.write(f"{python} does not run: {exc}\n")
        return 2
    if probe.returncode != 0:
        sys.stderr.write(f"{python} does not run: {probe.stderr.decode(errors='replace')}")
        return 2
    files = sorted(golden.glob("*.json"))
    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "diagram.json"
        for file in files:
            case = json.loads(file.read_text(encoding="utf-8"))
            path.write_text(json.dumps({"rank": 3, "normals": case["normals"]}))
            for command, flags in COMMANDS.items():
                done = _run(python, ["-m", "sasakit.cli", command, str(path), *flags])
                expected = case[command]["exit"], case[command]["stdout"].encode("utf-8")
                if (done.returncode, done.stdout) != expected:  # bytes: no newline folding
                    mismatched.append(file.name)
                    print(file.name)
                    break
    print(f"{len(files) - len(mismatched)} of {len(files)} golden files match"
          f" on Python {probe.stdout.decode().strip()}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
