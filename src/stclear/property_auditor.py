"""Executable audits of the market's economic guarantees.

Each guarantee of the clearing mechanism becomes a pass/fail check with a
worst-case residual: profit nonnegativity, surplus dominance of the
space-time model over its quasi-steady-state restriction, competitive
equilibrium (a zero-gap primal-dual certificate checked, without a solve,
against the independently assembled explicit dual), revenue adequacy,
cleared-price and capacity-price bounds, the profit-requires-saturation rule,
existence of a saturated player in any non-dry market, and the price-volatility
corridor pinned by interior transporters.  Checks are stated as inequalities
over the audited solution, never as uniqueness claims about prices, because
clearing problems can be degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clearing_lp import LinearProgram, assemble_dual, row_residuals
from .market_model import MarketInstance, validate
from .scenario_gen import restrict_to_qss  # not called here; perfbench/spans.py traces this binding
from .settlement import (
    ClearingSolution,
    Saturation,
    SettlementReport,
    aggregation_identity_check,
    clear,
    clear_qss,
    settle,
    stakeholder_prices,  # not called here; perfbench/spans.py traces this binding
)
from .simplex_solver import SolverConfig, SolverResult, SolverStatus, verify_kkt
from .simplex_solver import solve  # not called here; perfbench/spans.py traces this binding

REL_TOL = 1e-6  # audits compare residuals against REL_TOL * (1 + magnitude)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    offender: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[CheckResult, ...]
    status: str  # "pass" | "fail" | "inconclusive"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _worst(rows, violation):
    """Max violation and the stakeholder attaining it."""
    worst = 0.0
    who = None
    for row in rows:
        v = violation(row)
        if v > worst:
            worst, who = v, row.id
    return worst, who


def audit_profit_nonnegativity(settlement: SettlementReport, tol: float = REL_TOL) -> CheckResult:
    scale = tol * (1.0 + abs(settlement.surplus))
    worst, who = _worst(settlement.stakeholders, lambda r: max(0.0, -r.profit))
    return CheckResult("profit_nonnegativity", worst <= scale, worst, who)


def audit_surplus_dominance(
    solution: ClearingSolution, cfg: SolverConfig | None = None, tol: float = REL_TOL
) -> CheckResult:
    """`solution` earns at least the quasi-steady-state surplus, cleared here
    on the solution's own LP (`clear_qss`) warm from its basis: the final
    basis of a solve, or the one `load_solution` rebuilds from supplied
    files.  The start is only a hint; the solve proves the QSS optimum as a
    cold one does."""
    qss = clear_qss(solution, cfg)
    if solution.status is not SolverStatus.OPTIMAL or qss.status is not SolverStatus.OPTIMAL:
        return CheckResult(
            "surplus_dominance", False, np.inf, None,
            f"solver status: st={solution.status.value}, qss={qss.status.value}",
        )
    gap = qss.surplus - solution.surplus
    scale = tol * (1.0 + abs(qss.surplus))
    return CheckResult(
        "surplus_dominance", gap <= scale, max(0.0, gap), None,
        f"st={solution.surplus:.9g} qss={qss.surplus:.9g}",
    )


def explicit_dual_point(lp: LinearProgram, y: np.ndarray) -> np.ndarray:
    """The point [π, λ, slack] of `assemble_dual`'s LP that the clearing LP's
    row duals y imply: π = y, λ = max(r, 0), slack = λ - r, with r = c + Aᵀy."""
    r = lp.c + lp.A.T @ y
    lam = np.maximum(r, 0.0)
    return np.concatenate([y, lam, lam - r])


def audit_competitive_equilibrium(
    instance: MarketInstance, lp: LinearProgram, result: SolverResult, tol: float = REL_TOL
) -> CheckResult:
    """Certify (x, y) as a competitive equilibrium without a solve: x primal
    feasible, `explicit_dual_point` feasible for the independently assembled
    explicit dual and a zero gap prove both optimal by weak duality.  For a
    balanced x the gap is exactly the sum of the complementary-slackness
    violations.  Residuals are gated at 0.01 * tol, scaled as in `verify_kkt`."""
    x, z = result.x, explicit_dual_point(lp, result.y)
    dual = assemble_dual(instance, lp.row_labels)
    peak = lambda v: float(np.max(np.abs(v), initial=0.0))
    # name -> (residual, scale)
    residuals = {
        "primal": (peak(row_residuals(lp, x)), 1.0 + peak(lp.b) + peak(x)),
        "bounds": (peak(np.maximum(np.maximum(-x, x - lp.upper), 0.0)), 1.0 + peak(x)),
        "dual": (peak(row_residuals(dual, z)), 1.0 + peak(dual.b) + peak(z)),
        "dual_bounds": (peak(np.maximum(dual.lower - z, 0.0)), 1.0 + peak(z)),
        "gap": (abs(float(dual.c @ z) - result.objective), 1.0 + abs(result.objective)),
    }
    passed = all(v <= 0.01 * tol * scale for v, scale in residuals.values())
    return CheckResult(
        "competitive_equilibrium", passed, max(v for v, _ in residuals.values()), None,
        " ".join(f"{name}={v:.3e}" for name, (v, _) in residuals.items()),
    )


def audit_revenue_adequacy(settlement: SettlementReport, tol: float = REL_TOL) -> CheckResult:
    """Payments from revenue sources balance payments to revenue sinks.

    Grand-total identity regrouped by bid sign: positive-bid consumer
    payments plus negative-bid suppliers' payments in (their revenue is
    negative, hence the flipped sign when moved across) equal what
    positive-bid suppliers, negative-bid consumers, transporters, and
    technologies collect.
    """
    lhs = rhs = mag = 0.0
    for r in settlement.stakeholders:
        v = r.price * r.allocation
        mag += abs(v)
        if r.kind == "consumer":
            if r.bid >= 0:
                lhs += v
            else:
                rhs += -v
        elif r.kind == "supplier":
            if r.bid < 0:
                lhs += -v
            else:
                rhs += v
        else:  # transporters and technologies collect
            rhs += v
    residual = abs(lhs - rhs)
    return CheckResult("revenue_adequacy", residual <= tol * (1.0 + mag), residual)


def audit_cleared_price_bounds(settlement: SettlementReport, tol: float = REL_TOL) -> CheckResult:
    """Every cleared stakeholder trades at a price no worse than its bid."""

    def violation(r):
        scale = 1.0 + abs(r.bid)
        if r.allocation <= 1e-7 * (1.0 + abs(r.capacity)):
            return 0.0
        if r.kind == "consumer":
            return max(0.0, (r.price - r.bid) / scale)
        return max(0.0, (r.bid - r.price) / scale)

    worst, who = _worst(settlement.stakeholders, violation)
    return CheckResult("cleared_price_bounds", worst <= tol, worst, who)


def audit_capacity_price_bounds(settlement: SettlementReport, tol: float = REL_TOL) -> CheckResult:
    """Price exceeds bid by at most the capacity dual; strictly-below-capacity
    stakeholders have a zero dual, pinching their price to the bid.

    The sharpened (dual-free) form applies to allocations strictly below
    capacity: a zero-capacity stakeholder is reported dry but its bound is
    active, so it is exempt.
    """

    def violation(r):
        scale = 1.0 + abs(r.bid) + abs(r.lambda_bar)
        if r.kind == "consumer":
            v = (r.bid - r.lambda_bar) - r.price
        else:
            v = r.price - (r.bid + r.lambda_bar)
        if r.allocation < r.capacity - 1e-7 * (1.0 + abs(r.capacity)):
            # lambda_bar is zero here by complementary slackness
            if r.kind == "consumer":
                v = max(v, r.bid - r.price - r.lambda_bar)
            else:
                v = max(v, r.price - r.bid - r.lambda_bar)
        return max(0.0, v / scale)

    worst, who = _worst(settlement.stakeholders, violation)
    return CheckResult("capacity_price_bounds", worst <= tol, worst, who)


def audit_profit_capacity_rule(settlement: SettlementReport, tol: float = REL_TOL) -> CheckResult:
    """Positive profit only at full capacity, and then at most the capacity
    dual times the capacity."""
    scale = tol * (1.0 + abs(settlement.surplus))

    def violation(r):
        if r.saturation is Saturation.AT_CAPACITY:
            return max(0.0, r.profit - r.lambda_bar * r.capacity)
        return max(0.0, r.profit)

    worst, who = _worst(settlement.stakeholders, violation)
    return CheckResult("profit_capacity_rule", worst <= scale, worst, who)


def audit_at_least_one_saturated(settlement: SettlementReport) -> CheckResult:
    """A non-dry market clears at least one player at capacity; skipped
    (passes vacuously) when nothing is allocated."""
    dry = all(r.saturation is Saturation.DRY for r in settlement.stakeholders)
    if dry:
        return CheckResult("at_least_one_saturated", True, 0.0, None, "market dry; skipped")
    saturated = any(r.saturation is Saturation.AT_CAPACITY for r in settlement.stakeholders)
    return CheckResult("at_least_one_saturated", saturated, 0.0 if saturated else 1.0)


def audit_volatility_corridor(settlement: SettlementReport, tol: float = REL_TOL) -> CheckResult:
    """Strictly interior transporters price exactly at their bid; with a zero
    bid that forces both endpoint prices equal.  Saturated transporters are
    exempt: their capacity dual may open the corridor."""

    def violation(r):
        eps = 1e-7 * (1.0 + abs(r.capacity))
        if r.kind != "transporter" or not (eps < r.allocation < r.capacity - eps):
            return 0.0
        return abs(r.price - r.bid) / (1.0 + abs(r.bid))

    worst, who = _worst(settlement.stakeholders, violation)
    return CheckResult("volatility_corridor", worst <= tol, worst, who)


def run_full_audit(
    instance: MarketInstance,
    cfg: SolverConfig | None = None,
    solution: ClearingSolution | None = None,
    tol: float = REL_TOL,
) -> AuditReport:
    """Clear (unless `solution` is given), settle, and run every check plus
    the aggregation identities and an independent KKT pass.  A non-optimal
    solver status short-circuits: iteration limits are inconclusive, anything
    else is a failure.

    `tol` is the relative audit tolerance; the aggregation identities and the
    KKT pass run 10x and 100x tighter respectively.
    """
    checks: list[CheckResult] = []
    report = validate(instance)
    checks.append(
        CheckResult(
            "instance_valid", report.ok, float(len(report.violations)),
            None if report.ok else report.violations[0].subject,
        )
    )
    if not report.ok:
        return AuditReport(tuple(checks), "fail")

    sol = solution if solution is not None else clear(instance, cfg)
    if sol.status is not SolverStatus.OPTIMAL:
        name = "bounded_clearing" if sol.status is SolverStatus.UNBOUNDED else "solved_to_optimality"
        checks.append(CheckResult(name, False, np.inf, None, f"status={sol.status.value}"))
        stopped = (SolverStatus.ITERATION_LIMIT, SolverStatus.SINGULAR_BASIS)
        status = "inconclusive" if sol.status in stopped else "fail"
        return AuditReport(tuple(checks), status)
    checks.append(CheckResult("bounded_clearing", True, 0.0))

    settlement = settle(sol)

    checks.append(audit_profit_nonnegativity(settlement, tol))
    checks.append(audit_surplus_dominance(sol, cfg, tol))
    checks.append(audit_competitive_equilibrium(instance, sol.lp, sol.result, tol))
    checks.append(audit_revenue_adequacy(settlement, tol))
    checks.append(audit_cleared_price_bounds(settlement, tol))
    checks.append(audit_capacity_price_bounds(settlement, tol))
    checks.append(audit_profit_capacity_rule(settlement, tol))
    checks.append(audit_at_least_one_saturated(settlement))
    checks.append(audit_volatility_corridor(settlement, tol))

    prices = {r.id: r.price for r in settlement.stakeholders}
    agg = aggregation_identity_check(sol, prices, instance)
    agg_scale = 0.1 * tol * (1.0 + abs(sol.surplus))
    checks.append(
        CheckResult(
            "aggregation_identities", float(agg.max(initial=0.0)) <= agg_scale,
            float(agg.max(initial=0.0)),
        )
    )
    kkt = verify_kkt(sol.lp, sol.result, 0.01 * tol)
    checks.append(
        CheckResult(
            "kkt", kkt.passed,
            max(kkt.primal_residual, kkt.dual_violation, kkt.duality_gap),
        )
    )
    status = "pass" if all(c.passed for c in checks) else "fail"
    return AuditReport(tuple(checks), status)
