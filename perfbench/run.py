"""stclear benchmark: one workload, one process, one JSON result.

    python3 perfbench/run.py --workload clear-3day --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(see README.md).  Every metric is printed as `name value unit`, then
provenance, then, as the last line, the JSON result.  Scratch files go to
`.perfbench_work/<workload>/` in the checkout, spans to `spans.jsonl` there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_harness():
    """Import the harness against the checkout's own `src/stclear`."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        harness = importlib.import_module("harness")
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import stclear from {src}: {e}")
    program = Path(harness.cli_io.__file__).resolve()
    if src.resolve() not in program.parents:
        raise SystemExit(f"perfbench: stclear was imported from {program}, not from {src}")
    return harness


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, size=None) -> dict:
    """Set up and run one workload; return metrics, counts and failures."""
    harness = load_harness()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = harness.spans.Tracer() if trace else None
    runner = harness.Runner(harness.WORKLOADS[workload](seed, workdir, size), tracer)
    metrics, samples = runner.per_layer(seconds) if trace else runner.end_to_end(seconds)
    if tracer:
        tracer.write(workdir / "spans.jsonl")
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "failures": runner.failures,
        "absent_spans": tracer.absent if tracer else [],
        "count_errors": tracer.count_errors if tracer else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["clear-3day", "audit-desk", "compare-fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    prov = provenance(args)
    workdir = ROOT / ".perfbench_work" / args.workload
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    prov["loadavg_end"] = os.getloadavg()

    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name in result["absent_spans"]:
        print(f"absent span: {name}", file=sys.stderr)
    for error in result["count_errors"]:
        print(f"span count not taken: {error}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(f"samples {json.dumps(result['samples'])}")
    print(f"provenance {json.dumps(prov)}")
    (workdir / "result.json").write_text(json.dumps({**result, "provenance": prov}, indent=2) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
