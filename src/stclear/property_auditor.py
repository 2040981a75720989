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
clearing problems can be degenerate.  The settlement checks are array
expressions over the report's columns; which columns are cleared, at
capacity or interior they read off the report's `dry` and `at_capacity`
masks, and every total is `clearing_lp.total`.  Every check that measures
a violation judges it by one rule, `_verdict`: a NaN or an inf violation
never passes, and a NaN or inf residual is reported as it is.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .clearing_lp import LinearProgram, assemble_dual, row_residuals, total
from .market_model import MarketInstance, validate
from .scenario_gen import restrict_to_qss  # not called here; perfbench/spans.py traces this binding
from .settlement import (
    ClearingSolution,
    SettlementReport,
    aggregation_identity_check,
    clear,
    clear_qss,
    settle,
    stakeholder_prices,  # not called here; perfbench/spans.py traces this binding
)
from .simplex_solver import SolverStatus, verify_kkt
from .simplex_solver import solve  # not called here; perfbench/spans.py traces this binding

log = logging.getLogger("stclear.audit")

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


def _verdict(
    name: str, violation, bound, settlement: SettlementReport | None = None, detail: str = ""
) -> CheckResult:
    """The check `name` on its violation per entry: it passes only when every
    entry is at most `bound` (a scalar or one per entry) and below inf, so
    neither a NaN nor an inf passes, even against an inf bound.  The
    residual is the largest entry, entries below 0 counting as 0, and NaN
    when any entry is NaN.  Given a settlement, the offender is the
    stakeholder of the first column at the residual; None when it is 0."""
    v = np.asarray(violation, dtype=float)
    residual = float(np.max(v, initial=0.0)) + 0.0  # + 0.0: a -0.0 reads as 0
    who = None
    if settlement is not None and residual != 0.0:  # NaN included
        who = settlement.index.cols[int(np.argmax(v))]
    return CheckResult(name, bool(np.all((v <= bound) & (v < np.inf))), residual, who, detail)


def _kinds(settlement: SettlementReport) -> np.ndarray:
    return np.array(settlement.index.kinds)


def audit_profit_nonnegativity(settlement: SettlementReport) -> CheckResult:
    scale = REL_TOL * (1.0 + abs(settlement.surplus))
    return _verdict("profit_nonnegativity", -settlement.profit, scale, settlement)


def audit_surplus_dominance(solution: ClearingSolution) -> CheckResult:
    """`solution` earns at least the quasi-steady-state surplus, cleared here
    on the solution's own LP (`clear_qss`) warm from its basis: the final
    basis of a solve, or the one `load_solution` rebuilds from supplied
    files.  The start is only a hint; the solve proves the QSS optimum as a
    cold one does."""
    qss = clear_qss(solution)
    if solution.status is not SolverStatus.OPTIMAL or qss.status is not SolverStatus.OPTIMAL:
        return CheckResult(
            "surplus_dominance", False, np.inf, None,
            f"solver status: st={solution.status.value}, qss={qss.status.value}",
        )
    gap, scale = qss.surplus - solution.surplus, REL_TOL * (1.0 + abs(qss.surplus))
    detail = f"st={solution.surplus:.9g} qss={qss.surplus:.9g}"
    return _verdict("surplus_dominance", gap, scale, detail=detail)


def explicit_dual_point(lp: LinearProgram, y: np.ndarray) -> np.ndarray:
    """The point [π, λ, slack] of `assemble_dual`'s LP that the clearing LP's
    row duals y imply: π = y, λ = max(r, 0), slack = λ - r, with r = c + Aᵀy."""
    r = lp.c + lp.A.T @ y
    lam = np.maximum(r, 0.0)
    return np.concatenate([y, lam, lam - r])


def audit_competitive_equilibrium(instance: MarketInstance, solution: ClearingSolution) -> CheckResult:
    """Certify the solution's (x, y) as a competitive equilibrium without a
    solve: x primal feasible, `explicit_dual_point` feasible for the
    independently assembled explicit dual and a zero gap prove both optimal
    by weak duality.  For a balanced x the gap is exactly the sum of the
    complementary-slackness violations.  Residuals are gated at
    0.01 * REL_TOL, scaled as in `verify_kkt`."""
    lp, result = solution.lp, solution.result
    x, z = result.x, explicit_dual_point(lp, result.y)
    dual = assemble_dual(instance, solution.index)
    peak = lambda v: float(np.max(np.abs(v), initial=0.0))
    # name -> (residual, scale)
    residuals = {
        "primal": (peak(row_residuals(lp, x)), 1.0 + peak(lp.b) + peak(x)),
        "bounds": (peak(np.maximum(np.maximum(-x, x - lp.upper), 0.0)), 1.0 + peak(x)),
        "dual": (peak(row_residuals(dual, z)), 1.0 + peak(dual.b) + peak(z)),
        "dual_bounds": (peak(np.maximum(dual.lower - z, 0.0)), 1.0 + peak(z)),
        "gap": (abs(total(dual.c * z) - result.objective), 1.0 + abs(result.objective)),
    }
    detail = " ".join(f"{name}={v:.3e}" for name, (v, _) in residuals.items())
    worst, scale = np.array(list(residuals.values())).T
    return _verdict("competitive_equilibrium", worst, 0.01 * REL_TOL * scale, detail=detail)


def audit_revenue_adequacy(settlement: SettlementReport) -> CheckResult:
    """Payments from revenue sources balance payments to revenue sinks.

    Grand-total identity regrouped by bid sign: positive-bid consumer
    payments plus negative-bid suppliers' payments in (their revenue is
    negative, hence the flipped sign when moved across) equal what
    positive-bid suppliers, negative-bid consumers, transporters, and
    technologies collect.
    """
    kinds, bid = _kinds(settlement), settlement.bid
    v = settlement.price * settlement.allocation
    consumer, supplier = kinds == "consumer", kinds == "supplier"
    flows = np.where((consumer | supplier) & (bid < 0), -v, v)
    source = (consumer & (bid >= 0)) | (supplier & (bid < 0))
    residual = abs(total(flows[source]) - total(flows[~source]))
    mag = total(np.abs(v))
    return _verdict("revenue_adequacy", residual, REL_TOL * (1.0 + mag))


def audit_cleared_price_bounds(settlement: SettlementReport) -> CheckResult:
    """Every cleared stakeholder trades at a price no worse than its bid."""
    r = settlement
    short = np.where(_kinds(r) == "consumer", r.price - r.bid, r.bid - r.price) / (1.0 + np.abs(r.bid))
    return _verdict("cleared_price_bounds", np.where(r.dry, 0.0, short), REL_TOL, r)


def audit_capacity_price_bounds(settlement: SettlementReport) -> CheckResult:
    """A provider's price exceeds its bid, and a consumer's bid exceeds its
    price, by at most the capacity dual.  Below capacity the dual is exactly
    0 (`capacity_duals`), so there the check pins a provider's price to at
    most its bid and a consumer's to at least its bid."""
    r = settlement
    consumer = _kinds(r) == "consumer"
    v = np.where(consumer, (r.bid - r.lambda_bar) - r.price, r.price - (r.bid + r.lambda_bar))
    return _verdict("capacity_price_bounds", v / (1.0 + np.abs(r.bid) + np.abs(r.lambda_bar)),
                    REL_TOL, r)


def audit_profit_capacity_rule(settlement: SettlementReport) -> CheckResult:
    """Positive profit only at full capacity, and then at most the capacity
    dual times the capacity."""
    r = settlement
    v = np.where(r.at_capacity, r.profit - r.lambda_bar * r.capacity, r.profit)
    return _verdict("profit_capacity_rule", v, REL_TOL * (1.0 + abs(r.surplus)), r)


def audit_at_least_one_saturated(settlement: SettlementReport) -> CheckResult:
    """A non-dry market clears at least one player at capacity; skipped
    (passes vacuously) when nothing is allocated."""
    if settlement.dry.all():
        return CheckResult("at_least_one_saturated", True, 0.0, None, "market dry; skipped")
    return _verdict("at_least_one_saturated", float(not settlement.at_capacity.any()), 0.0)


def audit_volatility_corridor(settlement: SettlementReport) -> CheckResult:
    """Strictly interior transporters price exactly at their bid; with a zero
    bid that forces both endpoint prices equal.  Saturated transporters are
    exempt: their capacity dual may open the corridor."""
    r = settlement
    interior = (_kinds(r) == "transporter") & ~r.dry & ~r.at_capacity
    gap = np.abs(r.price - r.bid) / (1.0 + np.abs(r.bid))
    return _verdict("volatility_corridor", np.where(interior, gap, 0.0), REL_TOL, r)


def _instance_valid(instance: MarketInstance) -> CheckResult:
    report = validate(instance)
    return CheckResult(
        "instance_valid", report.ok, float(len(report.violations)),
        None if report.ok else report.violations[0].subject,
    )


def _solved(solution: ClearingSolution) -> CheckResult:
    status = solution.status
    if status is SolverStatus.OPTIMAL:
        return CheckResult("bounded_clearing", True, 0.0)
    name = "bounded_clearing" if status is SolverStatus.UNBOUNDED else "solved_to_optimality"
    return CheckResult(name, False, np.inf, None, f"status={status.value}")


def _aggregation_identities(solution, settlement, instance) -> CheckResult:
    residuals = aggregation_identity_check(solution, settlement.price, instance)
    scale = 0.1 * REL_TOL * (1.0 + abs(solution.surplus))
    return _verdict("aggregation_identities", residuals, scale)


def _kkt(solution: ClearingSolution) -> CheckResult:
    # verify_kkt gates at FEASIBILITY_TOL, which equals 0.01 * REL_TOL
    kkt = verify_kkt(solution.lp, solution.result)
    # every term that `passed` gates, so a failing line shows a failing term
    terms = [kkt.primal_residual, kkt.bound_violation, kkt.dual_violation, kkt.cs_lower,
             kkt.cs_upper, kkt.duality_gap]
    return CheckResult("kkt", kkt.passed, float(np.max(terms)))  # NaN propagates


def run_full_audit(instance: MarketInstance, solution: ClearingSolution | None = None) -> AuditReport:
    """Clear (unless `solution` is given), settle, and run every check plus
    the aggregation identities and an independent KKT pass.  A non-optimal
    solver status short-circuits: iteration limits are inconclusive, anything
    else is a failure.  Each check logs one DEBUG line on `stclear.audit`
    with its name, verdict and the milliseconds it took.

    The checks gate at `REL_TOL`; the aggregation identities and the KKT
    pass run 10x and 100x tighter respectively.
    """
    checks: list[CheckResult] = []

    def run(check, *args) -> bool:
        start = perf_counter()
        c = check(*args)
        ms = 1e3 * (perf_counter() - start)
        log.debug("check: name=%s passed=%d ms=%.3f", c.name, c.passed, ms)
        checks.append(c)
        return c.passed

    if not run(_instance_valid, instance):
        return AuditReport(tuple(checks), "fail")

    sol = solution if solution is not None else clear(instance)
    if not run(_solved, sol):
        stopped = (SolverStatus.ITERATION_LIMIT, SolverStatus.SINGULAR_BASIS)
        status = "inconclusive" if sol.status in stopped else "fail"
        return AuditReport(tuple(checks), status)

    # the verdicts report overflow and NaN themselves, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        settlement = settle(sol)
        run(audit_profit_nonnegativity, settlement)
        run(audit_surplus_dominance, sol)
        run(audit_competitive_equilibrium, instance, sol)
        run(audit_revenue_adequacy, settlement)
        run(audit_cleared_price_bounds, settlement)
        run(audit_capacity_price_bounds, settlement)
        run(audit_profit_capacity_rule, settlement)
        run(audit_at_least_one_saturated, settlement)
        run(audit_volatility_corridor, settlement)
        run(_aggregation_identities, sol, settlement, instance)
        run(_kkt, sol)
    status = "pass" if all(c.passed for c in checks) else "fail"
    return AuditReport(tuple(checks), status)
