"""Assembly of the clearing LP and its explicit dual from a market instance.

The primal maximizes total surplus subject to one product-balance equality per
(space-time node, product) pair that has at least one participant, with box
bounds [0, capacity] on every allocation.  Its row duals are the nodal
clearing prices.  A `VariableIndex` names its columns by stakeholder id and
its rows by plain `(node, time index, product)` keys; the LP itself carries
no names.  The explicit dual is assembled in equality form (slack variables
added) purely for cross-validation: production settlement always reads duals
off the solved primal.
"""

from __future__ import annotations

import fractions
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .market_model import InvalidInstance, MarketInstance, validate

RowKey = tuple[str, int, str]  # (node, time index, product)


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

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class VariableIndex:
    """Deterministic bijections stakeholder-id <-> column and
    (node, time, product) <-> row, the one naming of the clearing LP.

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
    sup, con, tra, tec = tables = [t.by_id for t in instance.tables]

    # a row's code orders it by (time, node, product); node and product
    # ranks follow the string order of the names
    nodes = sorted(instance.graph.nodes)
    products = sorted(instance.products)
    node_rank = {v: k for k, v in enumerate(nodes)}
    product_rank = {p: k for k, p in enumerate(products)}
    n_nodes, n_products = len(nodes), len(products)

    def code(names, times: np.ndarray, goods) -> np.ndarray:
        node = np.fromiter(map(node_rank.__getitem__, names), np.int64, len(times))
        product = np.fromiter(map(product_rank.__getitem__, goods), np.int64, len(times))
        return (times * n_nodes + node) * n_products + product

    # the entries of every column, class by class: row codes, coefficients
    # and columns.  A technology's entries are its inputs, then its outputs,
    # each by product, which its row codes order.
    n_placed, n_tra = len(sup) + len(con), len(tra)
    owner, out, goods, value = tec.yields
    yields = code(map(tec.node.__getitem__, owner.tolist()), tec.time[owner], goods)
    ordered = np.lexsort((yields, out, owner))
    codes = np.concatenate([
        code(sup.node, sup.time, sup.product),
        code(con.node, con.time, con.product),
        np.column_stack([
            code(tra.base_node, tra.base_time, tra.product),
            code(tra.recv_node, tra.recv_time, tra.product),
        ]).ravel(),
        yields[ordered],
    ])
    coefs = np.concatenate([
        np.ones(len(sup)), -np.ones(len(con)), np.tile([-1.0, 1.0], n_tra),
        np.where(out, value, -value)[ordered],
    ])
    columns = np.concatenate([
        np.arange(n_placed), n_placed + np.repeat(np.arange(n_tra), 2),
        n_placed + n_tra + owner[ordered],
    ])

    row_codes, ri = np.unique(codes, return_inverse=True)
    time, rest = np.divmod(row_codes, n_nodes * n_products)
    node, product = np.divmod(rest, n_products)
    rows = tuple(zip(
        map(nodes.__getitem__, node.tolist()), time.tolist(),
        map(products.__getitem__, product.tolist()),
    ))
    n, m = sum(map(len, tables)), len(rows)
    A = sp.csr_matrix((coefs, (ri, columns)), shape=(m, n))
    bid = np.concatenate([t.bid for t in tables])
    c = -bid
    consumer = slice(len(sup), n_placed)
    c[consumer] = bid[consumer]
    cols = tuple(itertools.chain.from_iterable(t.id for t in tables))
    # a column's revenue stream is its kind, with transporters split by arc class
    placed_kinds = ("supplier",) * len(sup) + ("consumer",) * len(con)
    tec_kinds = ("technology",) * len(tec)
    # an arc's class: spatial if its ends share a time, else temporal (storage)
    # if they share a node, else spatiotemporal (transport with a delay)
    same_node = np.fromiter(map(operator.eq, tra.base_node, tra.recv_node), bool, n_tra)
    arcs = np.where(tra.base_time == tra.recv_time, "spatial", np.where(
        same_node, "temporal", "spatiotemporal"
    ))
    lp = LinearProgram(
        sense="max",
        c=c,
        A=A,
        b=np.zeros(m),
        lower=np.zeros(n),
        upper=np.concatenate([t.capacity for t in tables]),
    )
    index = VariableIndex(
        cols=cols,
        rows=rows,
        col_of=dict(zip(cols, range(n))),
        row_of=dict(zip(rows, range(m))),
        kinds=placed_kinds + ("transporter",) * n_tra + tec_kinds,
        streams=placed_kinds + tuple("transport_" + a for a in arcs.tolist()) + tec_kinds,
    )
    return lp, index


def assemble_dual(instance: MarketInstance, index: VariableIndex) -> LinearProgram:
    """Explicit dual in equality form: minimize capacity-weighted marginal
    profits subject to one constraint per stakeholder.

    Variables: one free price per row of the primal's `index` (price j is
    row j's, so the prices line up with its row duals), then one
    marginal-profit variable and one slack per stakeholder (converting the
    inequality to an equality), each in the index's column order.  The
    constraints are built class by class from `instance`'s tables, so the
    dual stays an independent reference for the audit.
    """
    sup, con, tra, tec = tables = [t.by_id for t in instance.tables]
    m, k = len(index.rows), sum(map(len, tables))
    n_placed, n_tra = len(sup) + len(con), len(tra)

    def price(names, times: np.ndarray, goods) -> np.ndarray:
        keys = zip(names, times.tolist(), goods)
        return np.fromiter(map(index.row_of.__getitem__, keys), int, len(times))

    # the price entries of each stakeholder's constraint, class by class:
    # price columns, coefficients and constraint rows.  A technology's are
    # its outputs, then its inputs, each by product.
    owner, out, product, value = tec.yields
    product_rank = {p: r for r, p in enumerate(sorted(set(product)))}
    ranks = np.fromiter(map(product_rank.__getitem__, product), int, len(owner))
    ordered = np.lexsort((ranks, ~out, owner))
    yields = price(map(tec.node.__getitem__, owner.tolist()), tec.time[owner], product)
    prices = np.concatenate([
        price(sup.node, sup.time, sup.product),
        price(con.node, con.time, con.product),
        np.column_stack([
            price(tra.recv_node, tra.recv_time, tra.product),
            price(tra.base_node, tra.base_time, tra.product),
        ]).ravel(),
        yields[ordered],
    ])
    coefs = np.concatenate([
        np.ones(n_placed), np.tile([1.0, -1.0], n_tra),
        np.where(out, value, -value)[ordered],
    ])
    constraint = np.concatenate([
        np.arange(n_placed), n_placed + np.repeat(np.arange(n_tra), 2),
        n_placed + n_tra + owner[ordered],
    ])
    # each row's marginal-profit sign; its slack has the opposite one:
    #   supplier    pi - lam + slack = bid  (pi - lam <= bid)
    #   consumer    pi + lam - slack = bid  (pi + lam >= bid)
    #   transporter pi_recv - pi_base - lam + slack = bid
    #   technology  sum_out g pi - sum_in g pi - lam + slack = bid
    lam_sign = np.full(k, -1.0)
    lam_sign[len(sup) : n_placed] = 1.0
    stakeholder = np.arange(k)
    ri = np.concatenate([constraint, stakeholder, stakeholder])
    ci = np.concatenate([prices, m + stakeholder, m + k + stakeholder])
    data = np.concatenate([coefs, lam_sign, -lam_sign])
    A = sp.csr_matrix((data, (ri, ci)), shape=(k, m + 2 * k))
    return LinearProgram(
        sense="min",
        c=np.concatenate([np.zeros(m), *(t.capacity for t in tables), np.zeros(k)]),
        A=A,
        b=np.concatenate([t.bid for t in tables]),
        lower=np.concatenate([np.full(m, -np.inf), np.zeros(2 * k)]),
        upper=np.full(m + 2 * k, np.inf),
    )


def total(terms) -> float:
    """The exactly rounded sum of `terms` (Shewchuk's, as `math.fsum`
    computes it), the one float reduction of the package: no summation
    order, kernel or thread count moves its bits.  A dot is `total(a * b)`.
    The memoryview hands `fsum` the floats without a list copy.  Where
    `fsum` raises, the sum is still a float: ±inf when the exact sum lies
    beyond the float range, and NaN for +inf plus -inf."""
    values = np.asarray(terms, dtype=float).ravel()
    try:
        return math.fsum(memoryview(values))
    except ValueError:  # +inf plus -inf
        return math.nan
    except OverflowError:  # a partial sum left the float range
        special = values[~np.isfinite(values)].tolist()
        if special:  # an infinite or NaN term decides the sum
            return sum(special)
        exact = sum(map(fractions.Fraction, values.tolist()))
        try:
            return float(exact)  # rounded once, as fsum rounds
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def row_residuals(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """Per-row |A x - b|, the audit-facing feasibility measure."""
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.n_cols,):
        raise DimensionMismatch(f"x has shape {x.shape}, LP has {lp.n_cols} columns")
    if lp.n_rows == 0:
        return np.zeros(0)
    return np.abs(lp.A @ x - lp.b)
