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


def assemble_primal(instance: MarketInstance) -> tuple[LinearProgram, VariableIndex]:
    """Build the surplus-maximization LP.

    One column per stakeholder, in class-then-id order.  Product leaves a row
    at -1 (or minus its input yield) and enters it at +1 (or its output
    yield); costs are negated bids except for consumers, whose bid is value.
    Rows exist only for (s, p) pairs with at least one participating term;
    empty pairs would create singular 0 = 0 rows and their prices are
    reported as undefined instead.
    """
    report = validate(instance)
    if not report.ok:
        raise InvalidInstance(report)

    by_id = lambda x: x.id
    suppliers = sorted(instance.suppliers, key=by_id)
    consumers = sorted(instance.consumers, key=by_id)
    transporters = sorted(instance.transporters, key=by_id)
    technologies = sorted(instance.technologies, key=by_id)

    # a row's code orders it by (time, node, product); node and product
    # ranks follow the string order of the names
    nodes = sorted(instance.graph.nodes)
    products = sorted(instance.products)
    node_rank = {v: k for k, v in enumerate(nodes)}
    product_rank = {p: k for k, p in enumerate(products)}
    n_nodes, n_products = len(nodes), len(products)

    def code(s: SpaceTimeNode, p: str) -> int:
        return (s.time * n_nodes + node_rank[s.node]) * n_products + product_rank[p]

    # the entries of every column, class by class: row codes, coefficients
    # and the number of entries per column
    placed = suppliers + consumers
    codes = [code(x.node, x.product) for x in placed]
    coefs = [1.0] * len(suppliers) + [-1.0] * len(consumers)
    for x in transporters:
        codes += (code(x.arc.base, x.product), code(x.arc.receiving, x.product))
    coefs += [-1.0, 1.0] * len(transporters)
    counts = [1] * len(placed) + [2] * len(transporters)
    for x in technologies:
        yields = [(p, -g) for p, g in sorted(x.inputs.items())]
        yields += sorted(x.outputs.items())
        codes += [code(x.node, p) for p, _ in yields]
        coefs += [g for _, g in yields]
        counts.append(len(yields))

    row_codes, ri = np.unique(np.asarray(codes, dtype=np.int64), return_inverse=True)
    time, rest = np.divmod(row_codes, n_nodes * n_products)
    node, product = np.divmod(rest, n_products)
    rows = tuple(
        (SpaceTimeNode(nodes[v], t), products[p])
        for t, v, p in zip(time.tolist(), node.tolist(), product.tolist())
    )
    stakeholders = placed + transporters + technologies
    n, m = len(stakeholders), len(rows)
    A = sp.csr_matrix(
        (np.asarray(coefs, dtype=float), (ri, np.repeat(np.arange(n), counts))), shape=(m, n)
    )
    bid = np.asarray([x.bid for x in stakeholders], dtype=float)
    c = -bid
    consumer = slice(len(suppliers), len(placed))
    c[consumer] = bid[consumer]
    cols = tuple(x.id for x in stakeholders)
    # a column's revenue stream is its kind, with transporters split by arc class
    placed_kinds = ("supplier",) * len(suppliers) + ("consumer",) * len(consumers)
    tec_kinds = ("technology",) * len(technologies)
    arc_streams = tuple("transport_" + classify_arc(x.arc).value for x in transporters)
    lp = LinearProgram(
        sense="max",
        c=c,
        A=A,
        b=np.zeros(m),
        lower=np.zeros(n),
        upper=np.asarray([x.capacity for x in stakeholders], dtype=float),
        col_labels=cols,
        row_labels=rows,
    )
    index = VariableIndex(
        cols=cols,
        rows=rows,
        col_of=dict(zip(cols, range(n))),
        row_of=dict(zip(rows, range(m))),
        kinds=placed_kinds + ("transporter",) * len(transporters) + tec_kinds,
        streams=placed_kinds + arc_streams + tec_kinds,
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
    stakeholders = suppliers + consumers + transporters + technologies
    m, k = len(rows), len(stakeholders)

    # the price column of each row, by (node, time, product)
    pi = {(s.node, s.time, p): j for j, (s, p) in enumerate(rows)}
    # the price entries of each stakeholder's constraint, class by class:
    # (price column, coefficient) pairs
    prices = [[(pi[x.node.node, x.node.time, x.product], 1.0)] for x in suppliers + consumers]
    prices += [
        [
            (pi[x.arc.receiving.node, x.arc.receiving.time, x.product], 1.0),
            (pi[x.arc.base.node, x.arc.base.time, x.product], -1.0),
        ]
        for x in transporters
    ]
    prices += [
        [(pi[x.node.node, x.node.time, p], g) for p, g in sorted(x.outputs.items())]
        + [(pi[x.node.node, x.node.time, p], -g) for p, g in sorted(x.inputs.items())]
        for x in technologies
    ]
    # each row's marginal-profit sign; its slack has the opposite one:
    #   supplier    pi - lam + slack = bid  (pi - lam <= bid)
    #   consumer    pi + lam - slack = bid  (pi + lam >= bid)
    #   transporter pi_recv - pi_base - lam + slack = bid
    #   technology  sum_out g pi - sum_in g pi - lam + slack = bid
    lam_sign = np.full(k, -1.0)
    lam_sign[len(suppliers) : len(suppliers) + len(consumers)] = 1.0
    entries = [e for row in prices for e in row]
    stakeholder = np.arange(k)
    ri = np.concatenate(
        [np.repeat(stakeholder, [len(row) for row in prices]), stakeholder, stakeholder]
    )
    ci = np.concatenate(
        [np.asarray([j for j, _ in entries], dtype=int), m + stakeholder, m + k + stakeholder]
    )
    data = np.concatenate([[g for _, g in entries], lam_sign, -lam_sign])
    A = sp.csr_matrix((data, (ri, ci)), shape=(k, m + 2 * k))

    labels = [f"pi[{s.node},{s.time},{p}]" for s, p in rows]
    labels += [f"lam[{x.id}]" for x in stakeholders]
    labels += [f"slk[{x.id}]" for x in stakeholders]
    return LinearProgram(
        sense="min",
        c=np.concatenate([np.zeros(m), [x.capacity for x in stakeholders], np.zeros(k)]),
        A=A,
        b=np.asarray([x.bid for x in stakeholders], dtype=float),
        lower=np.concatenate([np.full(m, -np.inf), np.zeros(2 * k)]),
        upper=np.full(m + 2 * k, np.inf),
        col_labels=tuple(labels),
        row_labels=tuple(x.id for x in stakeholders),
    )


def row_residuals(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """Per-row |A x - b|, the audit-facing feasibility measure."""
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.n_cols,):
        raise DimensionMismatch(f"x has shape {x.shape}, LP has {lp.n_cols} columns")
    if lp.n_rows == 0:
        return np.zeros(0)
    return np.abs(lp.A @ x - lp.b)
