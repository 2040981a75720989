"""Digest of `simplex_solver.solve` on a fixed set of clearing LPs.

For each case it solves the space-time market cold, then its
quasi-steady-state (QSS) restriction warm from the space-time basis, as
`compare` does, and writes one line per solve: the case, the status, the
iteration count, the `flips`, `pricings`, `refactors`, `lu_nnz`, `warm`,
`crash` and `face_pivots` fields of the `solve:` log line (`-` where a
tree's log line has no such field), `face=skipped` where the solve kept
prices that are not the least, the objective in hex, and the SHA-256 of the
bytes of x, y and the reduced costs.  Before them come two lines per case
with the SHA-256 of each array of the assembled primal and of its explicit
dual (`assemble_dual` on the primal's index): `A` (data, indices and
indptr, with their dtypes), `c`, `b`, `lower`, `upper`, and as `labels` the
LP's sense, on the primal line with the index's column ids and row keys (the
dual has no index of its own; its arrays pin its layout).  Two source trees
assemble array-equal LPs and solve them bit-identically, cold and warm, when
their digests are equal, so a change that must keep the LPs or the pivot
path is checked with

    PYTHONPATH=src python3 tools/solve_digest.py --out new.txt
    PYTHONPATH=/path/to/other/tree/src python3 tools/solve_digest.py --out old.txt
    diff old.txt new.txt

A tree whose log line has no `warm` field took a start exactly when
`_Simplex.restart` accepted it, so the tool asks that instead (such a tree
still builds `_Simplex` from a `SolverConfig`).

The cases are the generated waste cases of the 4 variants at 3x2x6, 4x2x12
and 8x4x24 (farms x processors x hours) with seeds 1 and 7, plus the
8x4x72 `base` case at seeds 7, 1007, 2007, 42, 1042 and 2042: 30 cases,
60 assembled LPs and 60 solves, about 20 s.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys

import stclear
from stclear.clearing_lp import assemble_dual, assemble_primal
from stclear.scenario_gen import CaseParams, Variant, generate_waste_case, restrict_to_qss
from stclear import simplex_solver
from stclear.simplex_solver import _Simplex, solve

LOG_FIELDS = ("flips", "pricings", "refactors", "lu_nnz", "warm", "crash", "face_pivots")


def cases():
    for farms, processors, horizon in ((3, 2, 6), (4, 2, 12), (8, 4, 24)):
        for variant in Variant:
            for seed in (1, 7):
                yield CaseParams(farms, processors, horizon, seed, variant)
    for seed in (7, 1007, 2007, 42, 1042, 2042):
        yield CaseParams(8, 4, 72, seed, Variant.BASE)


class _SolveLines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines: list[str] = []

    def emit(self, record):
        message = record.getMessage()
        if message.startswith("solve:"):
            self.lines.append(message)


def _solve(lp, lines: _SolveLines, start=None):
    """The result of solving `lp` and the fields of its `solve:` log line."""
    lines.lines.clear()
    res = solve(lp, start=start)
    [line] = lines.lines
    fields = dict(item.split("=", 1) for item in line.split()[1:])
    if "warm" not in fields:
        taken = start is not None and _Simplex(lp, simplex_solver.SolverConfig()).restart(start)
        fields["warm"] = str(int(taken))
    return res, fields


def _line(case: str, res, fields: dict) -> str:
    sha = {
        name: hashlib.sha256(getattr(res, name).tobytes()).hexdigest()
        for name in ("x", "y", "reduced_costs")
    }
    return " ".join(
        [case, f"status={res.status.value}", f"iters={res.iterations}"]
        + [f"{name}={fields.get(name, '-')}" for name in LOG_FIELDS]
        + ([f"face={fields['face']}"] if "face" in fields else [])
        + [f"objective={float(res.objective).hex()}"]
        + [f"{name}={value}" for name, value in sha.items()]
    )


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _lp_line(case: str, lp, *names) -> str:
    labels = repr((lp.sense, *names)).encode()
    sha = {
        "A": _sha(lp.A.data, lp.A.indices, lp.A.indptr),
        **{name: _sha(getattr(lp, name)) for name in ("c", "b", "lower", "upper")},
        "labels": hashlib.sha256(labels).hexdigest(),
    }
    return " ".join([case, f"shape={lp.n_rows}x{lp.n_cols}"] + [f"{k}={v}" for k, v in sha.items()])


def digest(params: CaseParams, lines: _SolveLines) -> list[str]:
    instance = generate_waste_case(params)
    size = f"{params.farms}x{params.processors}x{params.horizon}"
    case = f"{params.variant.value} {size} seed={params.seed}"
    lp, index = assemble_primal(instance)
    dual = assemble_dual(instance, index)
    st, fields = _solve(lp, lines)
    qss_lp, _ = assemble_primal(restrict_to_qss(instance))
    qss, qss_fields = _solve(qss_lp, lines, st.basis)
    return [
        _lp_line(f"{case} primal", lp, index.cols, index.rows),
        _lp_line(f"{case} dual", dual),
        _line(case, st, fields),
        _line(f"{case} qss-warm", qss, qss_fields),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write the digest lines to")
    args = parser.parse_args(argv)
    lines = _SolveLines()
    logger = logging.getLogger("stclear.simplex")
    logger.addHandler(lines)
    logger.setLevel(logging.DEBUG)
    print(f"stclear from {stclear.__file__}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as out:
        for params in cases():
            out.writelines(line + "\n" for line in digest(params, lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
