"""Digest of `simplex_solver.solve` on the badly scaled random LPs.

For each seed from 0 to 799 it solves `scaled_lp(seed)` from
`tests/_lps.py` (a random LP whose column scales span twelve orders of
magnitude) and writes one line: the seed, the status, the `verify_kkt`
verdict of an optimal result (`-` otherwise), the objective in hex and the
status of `linprog(method="highs")` on the same LP (0 optimal, 2 infeasible,
3 unbounded, 4 numerical trouble).  A last `summary` line counts the
statuses, the optima that fail `verify_kkt` and the statuses that agree
with HiGHS's.  Two source trees take the same pivot paths on these LPs when
their seed lines are equal, so a change to the solver's robustness is
measured with

    PYTHONPATH=src python3 tools/robustness_digest.py --out new.txt
    PYTHONPATH=/path/to/other/tree/src python3 tools/robustness_digest.py --out old.txt
    diff old.txt new.txt

It takes about 15 s.
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path

import stclear
from stclear.simplex_solver import SolverStatus, solve, verify_kkt

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _lps import highs, scaled_lp  # the LPs that the solver tests sweep too

SEEDS = range(800)
# HiGHS's status for each of ours that it agrees with
AGREES = {SolverStatus.OPTIMAL: 0, SolverStatus.INFEASIBLE: 2, SolverStatus.UNBOUNDED: 3}


def seed_line(seed: int, counts: collections.Counter) -> str:
    lp = scaled_lp(seed)
    res = solve(lp)
    ref = highs(lp).status
    kkt = "-"
    if res.status is SolverStatus.OPTIMAL:
        kkt = "pass" if verify_kkt(lp, res).passed else "fail"
    counts[res.status.value] += 1
    counts["kkt_fail"] += kkt == "fail"
    counts["agree"] += AGREES.get(res.status) == ref
    return (
        f"seed={seed} status={res.status.value} kkt={kkt} "
        f"objective={float(res.objective).hex()} highs={ref}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write the digest lines to")
    args = parser.parse_args(argv)
    print(f"stclear from {stclear.__file__}", file=sys.stderr)
    counts = collections.Counter()
    lines = [seed_line(seed, counts) for seed in SEEDS]
    keys = [s.value for s in SolverStatus] + ["kkt_fail", "agree"]
    lines.append("summary " + " ".join(f"{key}={counts[key]}" for key in keys))
    Path(args.out).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
