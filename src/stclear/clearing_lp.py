"""Assembly of the clearing LP and its explicit dual from a market instance.

The primal maximizes total surplus subject to one product-balance equality per
(space-time node, product) pair that has at least one participant, with box
bounds [0, capacity] on every allocation.  Its row duals are the nodal
clearing prices.  The explicit dual is assembled in equality form (slack
variables added) purely for cross-validation: production settlement always
reads duals off the solved primal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .market_model import InvalidInstance, MarketInstance, validate
from .stgraph import SpaceTimeNode, classify_arc

RowKey = tuple[SpaceTimeNode, str]


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class LinearProgram:
    """Equality-constrained LP with per-variable box bounds.

    A lower bound of -inf flags a free column (used by the dual's price
    variables); clearing primals always use lower == 0 and finite uppers.
    """

    sense: str  # "max" or "min"
    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    col_labels: tuple[str, ...]
    row_labels: tuple

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class VariableIndex:
    """Deterministic bijections stakeholder-id <-> column and (s, p) <-> row.

    Column order is class-then-id lexicographic (suppliers, consumers,
    transporters, technologies); row order is (time, node, product).
    `kinds` and `streams` give each column's stakeholder class and revenue
    stream, in column order.
    """

    cols: tuple[str, ...]
    rows: tuple[RowKey, ...]
    col_of: dict
    row_of: dict
    kinds: tuple[str, ...]
    streams: tuple[str, ...]


class Column(NamedTuple):
    """How one stakeholder enters the clearing LP."""

    id: str
    kind: str  # supplier | consumer | transporter | technology
    stream: str  # kind, with transporters split by arc class
    cost: float
    capacity: float
    entries: list  # (row key, coefficient) pairs


def stakeholder_columns(instance: MarketInstance) -> list[Column]:
    """One column per stakeholder, in class-then-id order.  Product leaves a
    row at -1 (or minus its input yield) and enters it at +1 (or its output
    yield); costs are negated bids except for consumers, whose bid is value."""
    by_id = lambda x: x.id
    out = [
        Column(x.id, "supplier", "supplier", -x.bid, x.capacity, [((x.node, x.product), 1.0)])
        for x in sorted(instance.suppliers, key=by_id)
    ]
    out += [
        Column(x.id, "consumer", "consumer", x.bid, x.capacity, [((x.node, x.product), -1.0)])
        for x in sorted(instance.consumers, key=by_id)
    ]
    for x in sorted(instance.transporters, key=by_id):
        entries = [((x.arc.base, x.product), -1.0), ((x.arc.receiving, x.product), 1.0)]
        stream = "transport_" + classify_arc(x.arc).value
        out.append(Column(x.id, "transporter", stream, -x.bid, x.capacity, entries))
    for x in sorted(instance.technologies, key=by_id):
        entries = [((x.node, p), -g) for p, g in sorted(x.inputs.items())]
        entries += [((x.node, p), g) for p, g in sorted(x.outputs.items())]
        out.append(Column(x.id, "technology", "technology", -x.bid, x.capacity, entries))
    return out


def _row_sort_key(key: RowKey):
    s, p = key
    return (s.time, s.node, p)


def assemble_primal(instance: MarketInstance) -> tuple[LinearProgram, VariableIndex]:
    """Build the surplus-maximization LP.

    Rows exist only for (s, p) pairs with at least one participating term;
    empty pairs would create singular 0 = 0 rows and their prices are
    reported as undefined instead.
    """
    report = validate(instance)
    if not report.ok:
        raise InvalidInstance(report)

    columns = stakeholder_columns(instance)
    rows = tuple(sorted({key for col in columns for key, _ in col.entries}, key=_row_sort_key))
    row_of = {k: i for i, k in enumerate(rows)}

    data: list[float] = []
    ri: list[int] = []
    ci: list[int] = []
    for j, col in enumerate(columns):
        for row_key, coef in col.entries:
            ri.append(row_of[row_key])
            ci.append(j)
            data.append(coef)

    cols = tuple(col.id for col in columns)
    n = len(cols)
    m = len(rows)
    A = sp.csr_matrix(
        (np.asarray(data), (np.asarray(ri, dtype=int), np.asarray(ci, dtype=int))),
        shape=(m, n),
    )
    lp = LinearProgram(
        sense="max",
        c=np.asarray([col.cost for col in columns], dtype=float),
        A=A,
        b=np.zeros(m),
        lower=np.zeros(n),
        upper=np.asarray([col.capacity for col in columns], dtype=float),
        col_labels=cols,
        row_labels=rows,
    )
    index = VariableIndex(
        cols=cols,
        rows=rows,
        col_of={label: j for j, label in enumerate(cols)},
        row_of=row_of,
        kinds=tuple(col.kind for col in columns),
        streams=tuple(col.stream for col in columns),
    )
    return lp, index


def assemble_dual(instance: MarketInstance, rows: tuple[RowKey, ...]) -> LinearProgram:
    """Explicit dual in equality form: minimize capacity-weighted marginal
    profits subject to one constraint per stakeholder.

    Variables: one free price per key of `rows` (the primal's `row_labels`,
    so the prices line up with its row duals), one marginal-profit variable
    per stakeholder, and one slack per stakeholder converting the inequality
    to an equality.  The constraints are built class by class from
    `instance`, so the dual stays an independent reference for the audit.
    """
    suppliers = sorted(instance.suppliers, key=lambda x: x.id)
    consumers = sorted(instance.consumers, key=lambda x: x.id)
    transporters = sorted(instance.transporters, key=lambda x: x.id)
    technologies = sorted(instance.technologies, key=lambda x: x.id)

    cols: list[str] = []
    c: list[float] = []
    lower: list[float] = []
    upper: list[float] = []
    col_of: dict[str, int] = {}

    def add_col(label: str, cost: float, lo: float, hi: float) -> int:
        j = len(cols)
        cols.append(label)
        c.append(cost)
        lower.append(lo)
        upper.append(hi)
        col_of[label] = j
        return j

    pi_col: dict[RowKey, int] = {}
    for key in rows:
        s, p = key
        pi_col[key] = add_col(f"pi[{s.node},{s.time},{p}]", 0.0, -np.inf, np.inf)

    stakeholders = (
        [("g", x) for x in suppliers]
        + [("d", x) for x in consumers]
        + [("f", x) for x in transporters]
        + [("xi", x) for x in technologies]
    )
    lam_col = {x.id: add_col(f"lam[{x.id}]", x.capacity, 0.0, np.inf) for _, x in stakeholders}
    slk_col = {x.id: add_col(f"slk[{x.id}]", 0.0, 0.0, np.inf) for _, x in stakeholders}

    data: list[float] = []
    ri: list[int] = []
    ci: list[int] = []
    b: list[float] = []
    row_labels: list[str] = []

    def add_row(label: str, rhs: float, entries):
        i = len(row_labels)
        row_labels.append(label)
        b.append(rhs)
        for j, coef in entries:
            ri.append(i)
            ci.append(j)
            data.append(coef)

    for kind, x in stakeholders:
        if kind == "g":
            # pi - lam + slack = bid  (pi - lam <= bid)
            add_row(
                x.id,
                x.bid,
                [(pi_col[(x.node, x.product)], 1.0), (lam_col[x.id], -1.0), (slk_col[x.id], 1.0)],
            )
        elif kind == "d":
            # pi + lam - slack = bid  (pi + lam >= bid)
            add_row(
                x.id,
                x.bid,
                [(pi_col[(x.node, x.product)], 1.0), (lam_col[x.id], 1.0), (slk_col[x.id], -1.0)],
            )
        elif kind == "f":
            add_row(
                x.id,
                x.bid,
                [
                    (pi_col[(x.arc.receiving, x.product)], 1.0),
                    (pi_col[(x.arc.base, x.product)], -1.0),
                    (lam_col[x.id], -1.0),
                    (slk_col[x.id], 1.0),
                ],
            )
        else:
            entries = [(pi_col[(x.node, p)], g) for p, g in sorted(x.outputs.items())]
            entries += [(pi_col[(x.node, p)], -g) for p, g in sorted(x.inputs.items())]
            entries += [(lam_col[x.id], -1.0), (slk_col[x.id], 1.0)]
            add_row(x.id, x.bid, entries)

    m = len(row_labels)
    n = len(cols)
    A = sp.csr_matrix(
        (np.asarray(data), (np.asarray(ri, dtype=int), np.asarray(ci, dtype=int))),
        shape=(m, n),
    )
    return LinearProgram(
        sense="min",
        c=np.asarray(c, dtype=float),
        A=A,
        b=np.asarray(b, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        col_labels=tuple(cols),
        row_labels=tuple(row_labels),
    )


def row_residuals(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """Per-row |A x - b|, the audit-facing feasibility measure."""
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.n_cols,):
        raise DimensionMismatch(f"x has shape {x.shape}, LP has {lp.n_cols} columns")
    if lp.n_rows == 0:
        return np.zeros(0)
    return np.abs(lp.A @ x - lp.b)
