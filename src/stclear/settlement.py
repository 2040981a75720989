"""Settlement: from solver duals to market economics.

Turns a solved clearing LP into stakeholder-facing quantities: identity
prices, profits, saturation classes, and the revenue-stream table whose grand
total is zero on every optimal solution.  Every stakeholder is one LP column,
so each quantity is a vector operation on the column duals Aᵀy: the identity
price is Aᵀy with the consumer sign flipped (nodal price at the stakeholder's
location, receiving-minus-base difference for transporters, yield-weighted
output-minus-input value for technologies), the profit is (Aᵀy + c) ∘ x, and
each revenue stream sums Aᵀy ∘ x over its columns, with y and x read off the
solver result.  Settlement rows follow LP column order: class, then id.
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


@dataclass(frozen=True)
class ClearingSolution:
    """Solved market: allocations, nodal prices, capacity duals, surplus.

    Prices are a mapping keyed by (space-time node, product); pairs with no
    participants have no row and therefore no entry (undefined price).
    The LP, its index and the solver result ride along for settlement.
    """

    status: SolverStatus
    allocations: dict
    nodal_prices: dict
    capacity_duals: dict
    surplus: float
    lp: LinearProgram = field(repr=False, compare=False)
    result: SolverResult = field(repr=False, compare=False)
    index: VariableIndex = field(repr=False, compare=False)


def clear(
    instance: MarketInstance, cfg: SolverConfig | None = None, start: np.ndarray | None = None
) -> ClearingSolution:
    """Assemble the primal, solve it (warm from `start`, a solver basis of a
    market with the same columns and rows), and read duals off the solver."""
    lp, index = assemble_primal(instance)
    return clearing_solution(lp, index, solve(lp, cfg, start))


def clearing_solution(
    lp: LinearProgram, index: VariableIndex, result: SolverResult
) -> ClearingSolution:
    """Pack a solver result (or a loaded one) as a clearing solution; a
    non-optimal result carries no allocations, prices or duals."""
    if result.status is not SolverStatus.OPTIMAL:
        return ClearingSolution(result.status, {}, {}, {}, np.nan, lp, result, index)
    return ClearingSolution(
        status=result.status,
        allocations={label: float(result.x[j]) for label, j in index.col_of.items()},
        nodal_prices={key: float(result.y[i]) for key, i in index.row_of.items()},
        capacity_duals=capacity_duals(lp, result, index),
        surplus=float(result.objective),
        lp=lp,
        result=result,
        index=index,
    )


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
    return clearing_solution(qss, index, solve(qss, cfg, solution.result.basis))


def _price_signs(index: VariableIndex) -> np.ndarray:
    return np.array([-1.0 if kind == "consumer" else 1.0 for kind in index.kinds])


def _column_values(solution: ClearingSolution) -> tuple[np.ndarray, np.ndarray]:
    """Column duals Aᵀy and allocations x, both in LP column order."""
    if solution.status is not SolverStatus.OPTIMAL:
        raise NotOptimal("settlement requires an optimal clearing solution")
    return solution.lp.A.T @ solution.result.y, solution.result.x


def stakeholder_prices(solution: ClearingSolution) -> dict:
    """Identity price per stakeholder: s ∘ (Aᵀy), with s = -1 for consumers
    and +1 otherwise."""
    aty, _ = _column_values(solution)
    return dict(zip(solution.index.cols, (_price_signs(solution.index) * aty).tolist()))


def stakeholder_profits(solution: ClearingSolution) -> dict:
    """Profit per stakeholder, (Aᵀy + c) ∘ x: consumers earn bid-minus-price
    (money saved), providers earn price-minus-bid.

    The same formulas apply unchanged to negative bids: a tipping-fee
    supplier profits when the clearing price sits above its (negative) bid,
    and a paid-to-consume player's "savings" are measured against what it
    asked to be paid.
    """
    aty, x = _column_values(solution)
    return dict(zip(solution.index.cols, ((aty + solution.lp.c) * x).tolist()))


def classify(solution: ClearingSolution) -> dict:
    """Saturation class per stakeholder, from its allocation against its
    column's upper bound.  Zero-capacity stakeholders count as dry even
    though their bound is technically active."""
    _, x = _column_values(solution)
    cap = solution.lp.upper
    tol = CLASS_TOL * (1.0 + np.abs(cap))
    dry = (cap <= tol) | (x <= tol)
    full = x >= cap - tol
    classes = [
        Saturation.DRY if d else Saturation.AT_CAPACITY if f else Saturation.PARTIAL
        for d, f in zip(dry, full)
    ]
    return dict(zip(solution.index.cols, classes))


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


# the column stream labels of `clearing_lp.stakeholder_columns`, in field order
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
    solution: ClearingSolution, prices: dict, instance: MarketInstance
) -> np.ndarray:
    """Four residuals: nodal-price-weighted class flows versus the identity-
    price totals, one per stakeholder class.  Algebraic identities, so the
    residuals are float-sum noise on any solution."""
    pi = solution.nodal_prices
    alloc = solution.allocations

    nodal_g = sum(
        pi[(x.node, x.product)] * alloc[x.id] for x in instance.suppliers
    )
    nodal_d = sum(
        pi[(x.node, x.product)] * alloc[x.id] for x in instance.consumers
    )
    nodal_f = sum(
        (pi[(x.arc.receiving, x.product)] - pi[(x.arc.base, x.product)]) * alloc[x.id]
        for x in instance.transporters
    )
    nodal_m = sum(
        (
            sum(g * pi[(x.node, p)] for p, g in x.outputs.items())
            - sum(g * pi[(x.node, p)] for p, g in x.inputs.items())
        )
        * alloc[x.id]
        for x in instance.technologies
    )
    ident_g = sum(prices[x.id] * alloc[x.id] for x in instance.suppliers)
    ident_d = sum(prices[x.id] * alloc[x.id] for x in instance.consumers)
    ident_f = sum(prices[x.id] * alloc[x.id] for x in instance.transporters)
    ident_m = sum(prices[x.id] * alloc[x.id] for x in instance.technologies)
    return np.array(
        [
            abs(nodal_g - ident_g),
            abs(nodal_d - ident_d),
            abs(nodal_f - ident_f),
            abs(nodal_m - ident_m),
        ]
    )


@dataclass(frozen=True)
class StakeholderSettlement:
    id: str
    kind: str  # supplier | consumer | transporter | technology
    bid: float
    capacity: float
    allocation: float
    price: float
    lambda_bar: float
    profit: float
    saturation: Saturation


@dataclass(frozen=True)
class SettlementReport:
    stakeholders: tuple[StakeholderSettlement, ...]
    streams: RevenueStreams
    surplus: float

    def row(self, stakeholder_id: str) -> StakeholderSettlement:
        for s in self.stakeholders:
            if s.id == stakeholder_id:
                return s
        raise KeyError(stakeholder_id)


def settle(solution: ClearingSolution) -> SettlementReport:
    """Full settlement: prices, profits, classes, and stream aggregates, one
    row per LP column.  Bids are read back from the column costs."""
    prices = stakeholder_prices(solution)
    profits = stakeholder_profits(solution)
    classes = classify(solution)
    lp, index = solution.lp, solution.index
    bids = (-_price_signs(index) * lp.c).tolist()
    rows = tuple(
        StakeholderSettlement(
            id=label,
            kind=kind,
            bid=bid,
            capacity=capacity,
            allocation=solution.allocations[label],
            price=prices[label],
            lambda_bar=solution.capacity_duals.get(label, 0.0),
            profit=profits[label],
            saturation=classes[label],
        )
        for label, kind, bid, capacity in zip(index.cols, index.kinds, bids, lp.upper.tolist())
    )
    streams = revenue_streams(solution)
    return SettlementReport(stakeholders=rows, streams=streams, surplus=solution.surplus)
