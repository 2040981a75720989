"""Settlement: from solver duals to market economics.

Turns a solved clearing LP into stakeholder-facing quantities: identity
prices, profits, saturation classes, and the revenue-stream table whose grand
total is zero on every optimal solution.  Every stakeholder is one LP column,
so each quantity is a vector operation on the column duals Aᵀy: the identity
price is Aᵀy with the consumer sign flipped (nodal price at the stakeholder's
location, receiving-minus-base difference for transporters, yield-weighted
output-minus-input value for technologies), the profit is (Aᵀy + c) ∘ x, and
each revenue stream sums Aᵀy ∘ x over its columns, with y and x read off the
solver result.  A `SettlementReport` holds one read-only array per
quantity, in LP column order (class, then id); its `index` names the
stakeholder of each entry.  Only `aggregation_identity_check`, the
independent reference, looks stakeholders and rows up by name.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, replace
from enum import Enum

import numpy as np

from .clearing_lp import LinearProgram, VariableIndex, assemble_primal
from .market_model import MarketInstance
from .simplex_solver import (
    NotOptimal,
    SolverConfig,
    SolverResult,
    SolverStatus,
    capacity_duals,
    solve,
)

CLASS_TOL = 1e-7  # relative threshold for at-bound / dry classification


class Saturation(Enum):
    AT_CAPACITY = "at_capacity"
    PARTIAL = "partial"
    DRY = "dry"


@dataclass(frozen=True, eq=False)
class ClearingSolution:
    """Solved market: the clearing LP, the index naming its columns and rows,
    and the solver result (or one read back from files).  Allocations are
    `result.x` and nodal prices `result.y`, in the column and row order of
    `index`: the price of `product` at node `v` and time index `t` is
    `result.y[index.row_of[(v, t, product)]]`; a (space-time node, product)
    pair with no participants has no row and therefore no price.

    `surplus` is `result.objective` (NaN unless optimal) wherever a solution
    is built here; it is a field so that `dataclasses.replace` can state a
    wrong one, as perfbench's smoke test does against its surplus gate.
    """

    lp: LinearProgram = field(repr=False)
    index: VariableIndex = field(repr=False)
    result: SolverResult
    surplus: float

    @property
    def status(self) -> SolverStatus:
        return self.result.status


def clear(
    instance: MarketInstance, cfg: SolverConfig | None = None, start: np.ndarray | None = None
) -> ClearingSolution:
    """Assemble the primal and solve it, warm from `start`, a solver basis of
    a market with the same columns and rows."""
    lp, index = assemble_primal(instance)
    result = solve(lp, cfg, start)
    return ClearingSolution(lp, index, result, result.objective)


# the revenue streams of cross-time transporters, whose columns QSS closes
_CROSS_TIME = ("transport_temporal", "transport_spatiotemporal")


def clear_qss(solution: ClearingSolution, cfg: SolverConfig | None = None) -> ClearingSolution:
    """The quasi-steady-state restriction of a cleared market, solved warm
    from the solution's basis.  Its LP is the cleared LP with a zero upper
    bound on every temporal and spatio-temporal transporter column, the LP
    that assembling `restrict_to_qss(instance)` gives, derived here without
    validating or assembling the market again."""
    lp, index = solution.lp, solution.index
    qss = replace(lp, upper=np.where(np.isin(index.streams, _CROSS_TIME), 0.0, lp.upper))
    result = solve(qss, cfg, solution.result.basis)
    return ClearingSolution(qss, index, result, result.objective)


def _price_signs(index: VariableIndex) -> np.ndarray:
    return np.where(np.array(index.kinds) == "consumer", -1.0, 1.0)


def _column_values(solution: ClearingSolution) -> tuple[np.ndarray, np.ndarray]:
    """Column duals Aᵀy and allocations x, both in LP column order."""
    if solution.status is not SolverStatus.OPTIMAL:
        raise NotOptimal("settlement requires an optimal clearing solution")
    return solution.lp.A.T @ solution.result.y, solution.result.x


def stakeholder_prices(solution: ClearingSolution) -> np.ndarray:
    """Identity price per column: s ∘ (Aᵀy), with s = -1 for consumers and
    +1 otherwise."""
    aty, _ = _column_values(solution)
    return _price_signs(solution.index) * aty


def stakeholder_profits(solution: ClearingSolution) -> np.ndarray:
    """Profit per column, (Aᵀy + c) ∘ x: consumers earn bid-minus-price
    (money saved), providers earn price-minus-bid.

    The same formulas apply unchanged to negative bids: a tipping-fee
    supplier profits when the clearing price sits above its (negative) bid,
    and a paid-to-consume player's "savings" are measured against what it
    asked to be paid.
    """
    aty, x = _column_values(solution)
    return (aty + solution.lp.c) * x


def classify(solution: ClearingSolution) -> tuple[Saturation, ...]:
    """Saturation class per column, from its allocation against its upper
    bound.  Zero-capacity stakeholders count as dry even though their bound
    is technically active."""
    _, x = _column_values(solution)
    cap = solution.lp.upper
    tol = CLASS_TOL * (1.0 + np.abs(cap))
    dry = (cap <= tol) | (x <= tol)
    full = x >= cap - tol
    return tuple(
        Saturation.DRY if d else Saturation.AT_CAPACITY if f else Saturation.PARTIAL
        for d, f in zip(dry.tolist(), full.tolist())
    )


@dataclass(frozen=True)
class RevenueStreams:
    """Revenue totals by stakeholder class: consumers negative (payments in),
    providers positive (payments out); the grand total nets to zero."""

    consumer_total: float
    supplier_total: float
    transport_temporal_total: float
    transport_spatial_total: float
    transport_spatiotemporal_total: float
    technology_total: float

    @property
    def grand_total(self) -> float:
        return sum(astuple(self))

    @property
    def magnitude(self) -> float:
        return sum(abs(v) for v in astuple(self))


# the revenue-stream labels of `VariableIndex.streams`, in field order
_STREAMS = tuple(f.name.removesuffix("_total") for f in fields(RevenueStreams))


def revenue_streams(solution: ClearingSolution) -> RevenueStreams:
    """Aᵀy ∘ x summed over each stream's columns.  The sums run sequentially
    in column order, so a total does not depend on how numpy would pair up
    the terms."""
    aty, x = _column_values(solution)
    group = np.array([_STREAMS.index(s) for s in solution.index.streams], dtype=int)
    totals = np.zeros(len(_STREAMS))
    np.add.at(totals, group, aty * x)
    return RevenueStreams(*totals.tolist())


def aggregation_identity_check(
    solution: ClearingSolution, prices: np.ndarray, instance: MarketInstance
) -> np.ndarray:
    """Four residuals: nodal-price-weighted class flows versus the identity-
    price totals, one per stakeholder class, with `prices` the identity
    prices in column order.  Algebraic identities, so the residuals are
    float-sum noise on any solution.  The nodal side reads the instance's
    tables class by class, independently of the LP's assembly; each total
    is a Python sum over the stakeholders in input order."""
    index = solution.index
    y, x = solution.result.y, solution.result.x

    def pi(names, times: np.ndarray, goods) -> np.ndarray:
        """The nodal price at each (node, time, product)."""
        rows = map(index.row_of.__getitem__, zip(names, times.tolist(), goods))
        return y[np.fromiter(rows, int, len(times))]

    sup, con, tra, tec = tables = instance.tables
    owner, out, product, value = tec.yields
    # a technology's output value minus its input value, each summed in map order
    nodes = map(tec.node.__getitem__, owner.tolist())
    value = value * pi(nodes, tec.time[owner], product)
    sums = ([0] * len(tec), [0] * len(tec))
    for k, o, v in zip(owner.tolist(), out.tolist(), value.tolist()):
        sums[o][k] += v
    flows = (
        pi(sup.node, sup.time, sup.product),
        pi(con.node, con.time, con.product),
        pi(tra.recv_node, tra.recv_time, tra.product)
        - pi(tra.base_node, tra.base_time, tra.product),
        np.subtract(sums[1], sums[0]),
    )
    residuals = []
    for t, flow in zip(tables, flows):
        j = np.fromiter(map(index.col_of.__getitem__, t.id), int, len(t))
        nodal = sum((flow * x[j]).tolist())
        ident = sum((prices[j] * x[j]).tolist())
        residuals.append(abs(nodal - ident))
    return np.array(residuals)


# the per-column arrays of a settlement report
_COLUMNS = ("bid", "capacity", "allocation", "price", "lambda_bar", "profit")


@dataclass(frozen=True, eq=False)
class SettlementReport:
    """Settlement in LP column order: entry j of every array, and of
    `saturation`, belongs to stakeholder `index.cols[j]` of class
    `index.kinds[j]`.  The arrays are read-only views, so a caller cannot
    write through `capacity` into the LP's bounds or through `allocation`
    into the solver result."""

    index: VariableIndex = field(repr=False)
    bid: np.ndarray
    capacity: np.ndarray
    allocation: np.ndarray
    price: np.ndarray
    lambda_bar: np.ndarray
    profit: np.ndarray
    saturation: tuple[Saturation, ...]
    streams: RevenueStreams
    surplus: float

    def __post_init__(self):
        for name in _COLUMNS:
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


def settle(solution: ClearingSolution) -> SettlementReport:
    """Full settlement, one entry per LP column: the bid read back from the
    column cost, the capacity from its upper bound, the allocation, identity
    price, capacity dual, profit and saturation class, plus the stream
    totals."""
    lp, index, result = solution.lp, solution.index, solution.result
    return SettlementReport(
        index=index,
        bid=-_price_signs(index) * lp.c,
        capacity=lp.upper,
        allocation=result.x,
        price=stakeholder_prices(solution),
        lambda_bar=capacity_duals(lp, result),
        profit=stakeholder_profits(solution),
        saturation=classify(solution),
        streams=revenue_streams(solution),
        surplus=solution.surplus,
    )
