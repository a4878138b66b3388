"""Print every metric of every workload in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once plain and once traced per workload, then prints the
end-to-end metrics (with ``failed_frac``, failed over attempted
operations), the per-layer metrics that are non-zero on some workload,
and each workload's output digest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    digest = next(line.split("=", 1)[1] for line in lines
                  if line.startswith("digest="))
    return json.loads(lines[-1]), digest


def main(argv=None) -> int:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        default_seconds = json.load(fh)["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=default_seconds)
    args = p.parse_args(argv)

    plain, traced, digests = {}, {}, {}
    for w in WORKLOAD_NAMES:
        plain[w], digests[w] = _run(w, args.seed, args.seconds, 0)
        traced[w], _ = _run(w, args.seed, args.seconds, 1)

    width = max(len(n) for n in PER_LAYER) + 2
    header = "".join(f"{w:>14}" for w in WORKLOAD_NAMES)
    print(f"{'end-to-end':{width}}{'unit':8}{header}")
    for name, unit in END_TO_END.items():
        cells = "".join(f"{plain[w]['metrics'][name]['value']:>14.5g}"
                        for w in WORKLOAD_NAMES)
        print(f"{name:{width}}{unit:8}{cells}")
    for label, runs in (("failed_frac", plain), ("failed_frac.traced", traced)):
        cells = "".join(f"{runs[w]['failed'] / runs[w]['attempted']:>14.5g}"
                        for w in WORKLOAD_NAMES)
        print(f"{label:{width}}{'ratio':8}{cells}")
    print()
    print(f"{'per-layer (traced)':{width}}{'unit':8}{header}")
    for name, unit in PER_LAYER.items():
        values = [traced[w]["metrics"][name]["value"] for w in WORKLOAD_NAMES]
        if any(values):
            cells = "".join(f"{v:>14.5g}" for v in values)
            print(f"{name:{width}}{unit:8}{cells}")
    print()
    for w in WORKLOAD_NAMES:
        print(f"digest {w}: {digests[w]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
