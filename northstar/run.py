"""Run ``qinet verify`` on every north-star box and print a ledger.

    python3 northstar/run.py

Each ``*.json`` config next to this file is verified in its own process,
from this checkout's ``src``, at ``verify``'s default settings.  The
ledger gives each box's exit code and wall time, then every failing check
with its value and tolerance, every failed route's notice, or the error
line of a box that could not be verified, each with the ROADMAP item that
addresses it.  The suite is not part of the tests; a pass takes about 15 s
on 2 vCPUs.  It exits 0 only when every box does.
"""
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def item(failure: str) -> str:
    """The ROADMAP item that addresses a failing check, notice or error line."""
    if "recursive" in failure:
        return "2"  # a recursion that keeps its digits
    if "decoupling" in failure:
        return "15"  # a decoupling check calibrated to its sample
    if failure.startswith("simulation_"):
        return "15, 19"  # bounds calibrated to the events, or more events on a faster loop
    if "log10(max/min)" in failure or "double range" in failure:
        return "16"  # measures wider than the double range
    return "none"


def main() -> int:
    paths = [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    boxes, passed = sorted(HERE.glob("*.json")), 0
    with tempfile.TemporaryDirectory() as tmp:
        for path in boxes:
            out = Path(tmp) / path.name
            start = time.perf_counter()
            argv = [sys.executable, "-m", "qinet.cli", "verify", str(path), "--json", str(out)]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            print(f"{path.stem:<20} exit {proc.returncode}  {time.perf_counter() - start:5.1f} s")
            passed += proc.returncode == 0
            failures = []
            if out.exists():
                doc = json.loads(out.read_text())
                failures += [notice for notice in doc["notices"] if "route failed" in notice]
                failures += [f"{c['name']} {'n/a' if c['value'] is None else format(c['value'], '.3g')} "
                             f"against {c['tolerance']:g}" for c in doc["checks"] if not c["passed"]]
            elif proc.returncode:
                failures.append((proc.stderr.strip().splitlines() or ["no error line"])[-1])
            for failure in failures:
                print(f"    {failure}  [item {item(failure)}]")
    print(f"{passed} of {len(boxes)} boxes exit 0")
    return 0 if passed == len(boxes) else 1


if __name__ == "__main__":
    sys.exit(main())
