"""Settlement: from solver duals to market economics.

Turns a solved clearing LP into stakeholder-facing quantities: identity
prices, profits, at-bound masks, and the revenue-stream table whose grand
total is zero on every optimal solution.  Every stakeholder is one LP column,
so each quantity is a vector operation on the column duals Aᵀy: the identity
price is Aᵀy with the consumer sign flipped (nodal price at the stakeholder's
location, receiving-minus-base difference for transporters, yield-weighted
output-minus-input value for technologies), the profit is (Aᵀy + c) ∘ x, and
each revenue stream sums Aᵀy ∘ x over its columns, with y and x read off the
solver result.  Every total is `clearing_lp.total`, exactly rounded, so no
summation order reaches a figure.  One rule, `at_bounds`, says whether a
column sits at zero or at capacity; it is evaluated here only, for the
capacity duals and for the report's `dry` and `at_capacity` masks, which
the audit reads.  A `SettlementReport` holds one read-only array per
quantity, in LP column order (class, then id); its `index` names the
stakeholder of each entry.  Only `aggregation_identity_check`, the
independent reference, looks stakeholders and rows up by name.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .clearing_lp import LinearProgram, VariableIndex, assemble_primal, total
from .market_model import MarketInstance
from .simplex_solver import NotOptimal, SolverResult, SolverStatus, solve

AT_BOUND_TOL = 1e-7  # the width of the at-bound bands of `at_bounds`


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


def clear(instance: MarketInstance, *, max_iterations: int | None = None) -> ClearingSolution:
    """Assemble the primal and solve it cold."""
    lp, index = assemble_primal(instance)
    result = solve(lp, max_iterations=max_iterations)
    return ClearingSolution(lp, index, result, result.objective)


# the revenue streams of cross-time transporters, whose columns QSS closes
_CROSS_TIME = ("transport_temporal", "transport_spatiotemporal")


def clear_qss(solution: ClearingSolution, *, max_iterations: int | None = None) -> ClearingSolution:
    """The quasi-steady-state restriction of a cleared market, solved warm
    from the solution's basis.  Its LP is the cleared LP with a zero upper
    bound on every temporal and spatio-temporal transporter column, the LP
    that assembling `restrict_to_qss(instance)` gives, derived here without
    validating or assembling the market again."""
    lp, index = solution.lp, solution.index
    qss = replace(lp, upper=np.where(np.isin(index.streams, _CROSS_TIME), 0.0, lp.upper))
    result = solve(qss, solution.result.basis, max_iterations=max_iterations)
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


def at_bounds(allocation: np.ndarray, capacity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, whether the allocation sits at zero and whether it sits
    at capacity: the one at-bound rule, of the report's masks and the
    capacity duals.  At zero is at most AT_BOUND_TOL * min(1,
    |cap|): a full capacity of 3e-9 is not at zero, nor are 17 t of one of
    1e9, while a zero capacity is, even with solver noise in its allocation.
    At capacity is within AT_BOUND_TOL * (1 + |cap|) of it, an absolute band
    still, because an allocation written with 9 decimals misses its capacity
    by up to 5e-10."""
    zero = (capacity == 0.0) | (allocation <= AT_BOUND_TOL * np.minimum(1.0, np.abs(capacity)))
    return zero, allocation >= capacity - AT_BOUND_TOL * (1.0 + np.abs(capacity))


def capacity_duals(lp: LinearProgram, result: SolverResult) -> np.ndarray:
    """Capacity shadow price per column, in column order.

    Nonzero only at capacity (strong duality: an interior allocation has a
    zero capacity dual); read off the profit-oriented reduced cost.
    """
    if result.status is not SolverStatus.OPTIMAL:
        raise NotOptimal(f"capacity_duals requires an optimal result, got {result.status}")
    if lp.sense != "max":
        raise ValueError("capacity duals are defined for the max-sense clearing LP")
    rc = result.reduced_costs
    _, full = at_bounds(result.x, lp.upper)
    return np.where(full & (rc > 0.0), rc, 0.0)


def classify(solution: ClearingSolution) -> tuple[np.ndarray, np.ndarray]:
    """The masks `(dry, at_capacity)` per column, from `at_bounds`: dry at
    zero, at capacity when full and not dry, so a zero-capacity stakeholder
    is dry; a column in neither is partial."""
    _, x = _column_values(solution)
    dry, full = at_bounds(x, solution.lp.upper)
    return dry, full & ~dry


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
        return total(astuple(self))


# the revenue-stream labels of `VariableIndex.streams`, in field order
_STREAMS = tuple(f.name.removesuffix("_total") for f in fields(RevenueStreams))


def revenue_streams(solution: ClearingSolution) -> RevenueStreams:
    """Aᵀy ∘ x totalled over each stream's columns."""
    aty, x = _column_values(solution)
    revenue, streams = aty * x, np.array(solution.index.streams)
    return RevenueStreams(*(total(revenue[streams == s]) for s in _STREAMS))


def aggregation_identity_check(
    solution: ClearingSolution, prices: np.ndarray, instance: MarketInstance
) -> np.ndarray:
    """Four residuals: nodal-price-weighted class flows versus the identity-
    price totals, one per stakeholder class, with `prices` the identity
    prices in column order.  Algebraic identities, so the residuals are
    rounding noise on any solution.  The nodal side reads the instance's
    tables class by class, independently of the LP's assembly."""
    index = solution.index
    y, x = solution.result.y, solution.result.x

    def pi(names, times: np.ndarray, goods) -> np.ndarray:
        """The nodal price at each (node, time, product)."""
        rows = map(index.row_of.__getitem__, zip(names, times.tolist(), goods))
        return y[np.fromiter(rows, int, len(times))]

    sup, con, tra, tec = tables = instance.tables
    owner, out, product, value = tec.yields
    # a technology's output value minus its input value
    nodes = map(tec.node.__getitem__, owner.tolist())
    value = np.where(out, value, -value) * pi(nodes, tec.time[owner], product)
    terms = [[] for _ in range(len(tec))]
    for k, v in zip(owner.tolist(), value.tolist()):
        terms[k].append(v)
    flows = (
        pi(sup.node, sup.time, sup.product),
        pi(con.node, con.time, con.product),
        pi(tra.recv_node, tra.recv_time, tra.product)
        - pi(tra.base_node, tra.base_time, tra.product),
        np.array([total(t) for t in terms]),
    )
    residuals = []
    for t, flow in zip(tables, flows):
        j = np.fromiter(map(index.col_of.__getitem__, t.id), int, len(t))
        nodal = total(flow * x[j])
        ident = total(prices[j] * x[j])
        residuals.append(abs(nodal - ident))
    return np.array(residuals)


# the per-column arrays of a settlement report
_COLUMNS = (
    "bid", "capacity", "allocation", "price", "lambda_bar", "profit", "dry", "at_capacity"
)


@dataclass(frozen=True, eq=False)
class SettlementReport:
    """Settlement in LP column order: entry j of every array belongs to
    stakeholder `index.cols[j]` of class `index.kinds[j]`.  `dry` and
    `at_capacity` are the boolean masks of `classify`; a column in neither
    is partial.  The arrays are read-only views, so a caller cannot write
    through `capacity` into the LP's bounds or through `allocation` into
    the solver result."""

    index: VariableIndex = field(repr=False)
    bid: np.ndarray
    capacity: np.ndarray
    allocation: np.ndarray
    price: np.ndarray
    lambda_bar: np.ndarray
    profit: np.ndarray
    dry: np.ndarray
    at_capacity: np.ndarray
    streams: RevenueStreams
    surplus: float

    def __post_init__(self):
        for name in _COLUMNS:
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


def settle(solution: ClearingSolution) -> SettlementReport:
    """Full settlement, one entry per LP column: the bid read back from the
    column cost, the capacity from its upper bound, the allocation, identity
    price, capacity dual, profit and the dry and at-capacity masks, plus the
    stream totals."""
    lp, index, result = solution.lp, solution.index, solution.result
    dry, at_capacity = classify(solution)
    return SettlementReport(
        index=index,
        bid=-_price_signs(index) * lp.c,
        capacity=lp.upper,
        allocation=result.x,
        price=stakeholder_prices(solution),
        lambda_bar=capacity_duals(lp, result),
        profit=stakeholder_profits(solution),
        dry=dry,
        at_capacity=at_capacity,
        streams=revenue_streams(solution),
        surplus=solution.surplus,
    )
