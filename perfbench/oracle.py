"""Reference clearing surpluses from HiGHS, independent of stclear.

The clearing LP is rebuilt straight from the instance document (one balance
row per populated (node, time, product), one bounded column per stakeholder)
and solved with `scipy.optimize.linprog(method="highs")`.  No stclear code is
involved, so a regression in its assembly or in its simplex shows up as a
surplus that no longer matches.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog


def clearing_lp(doc: dict, qss: bool = False):
    """Return (c, A, upper) of the surplus-maximising clearing LP of `doc`.

    With `qss`, every transporter whose arc crosses time gets capacity 0:
    the quasi-steady-state restriction.
    """
    rows: dict[tuple, int] = {}
    cost: list[float] = []
    upper: list[float] = []
    ri: list[int] = []
    ci: list[int] = []
    data: list[float] = []

    def column(bid_sign: float, s: dict, capacity: float, entries):
        j = len(cost)
        cost.append(bid_sign * s["bid"])
        upper.append(capacity)
        for key, coef in entries:
            ri.append(rows.setdefault(key, len(rows)))
            ci.append(j)
            data.append(coef)

    for s in doc["suppliers"]:
        column(-1.0, s, s["capacity"], [((s["node"], s["time"], s["product"]), 1.0)])
    for s in doc["consumers"]:
        column(1.0, s, s["capacity"], [((s["node"], s["time"], s["product"]), -1.0)])
    for s in doc["transporters"]:
        crosses_time = s["base_time"] != s["recv_time"]
        column(
            -1.0,
            s,
            0.0 if qss and crosses_time else s["capacity"],
            [
                ((s["base_node"], s["base_time"], s["product"]), -1.0),
                ((s["recv_node"], s["recv_time"], s["product"]), 1.0),
            ],
        )
    for s in doc["technologies"]:
        entries = [((s["node"], s["time"], p), -g) for p, g in s["inputs"].items()]
        entries += [((s["node"], s["time"], p), g) for p, g in s["outputs"].items()]
        column(-1.0, s, s["capacity"], entries)

    A = sp.csr_matrix((data, (ri, ci)), shape=(len(rows), len(cost)))
    return np.asarray(cost), A, np.asarray(upper, dtype=float)


def reference_surplus(doc: dict, qss: bool = False) -> float:
    """Optimal total surplus of `doc` (or of its QSS restriction)."""
    c, A, upper = clearing_lp(doc, qss)
    res = linprog(
        -c,
        A_eq=A,
        b_eq=np.zeros(A.shape[0]),
        bounds=np.column_stack([np.zeros_like(upper), upper]),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference solve failed: {res.message}")
    return -float(res.fun)


def allocation_surplus(doc: dict, allocation: dict[str, float]) -> float:
    """Surplus of a written allocation, priced at the bids in `doc`."""
    total = sum(s["bid"] * allocation[s["id"]] for s in doc["consumers"])
    for kind in ("suppliers", "transporters", "technologies"):
        total -= sum(s["bid"] * allocation[s["id"]] for s in doc[kind])
    return total
