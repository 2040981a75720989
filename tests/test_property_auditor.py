import csv
import dataclasses
import logging
import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from stclear import cli_io, clearing_lp, property_auditor, settlement
from stclear.property_auditor import (
    audit_at_least_one_saturated,
    audit_capacity_price_bounds,
    audit_cleared_price_bounds,
    audit_competitive_equilibrium,
    audit_profit_capacity_rule,
    audit_profit_nonnegativity,
    audit_revenue_adequacy,
    audit_surplus_dominance,
    audit_volatility_corridor,
    run_full_audit,
)
from stclear.scenario_gen import CaseParams, Variant, generate_waste_case, restrict_to_qss
from stclear.settlement import Saturation, clear, settle
from stclear.simplex_solver import FEASIBILITY_TOL, SolverStatus, solve
from stclear.market_model import Supplier, Consumer, MarketInstance
from stclear.stgraph import Arc, SpaceTimeNode, TimeGrid, build_graph
from stclear.market_model import TransportProvider

from _markets import (
    col,
    dry_market,
    price_at,
    random_instance,
    storage_market,
    tech_market,
    transport_market,
    two_var_market,
)


def _edit_csv(path, column, change):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, column: repr(change(float(row[column])))} for row in rows)


def settled(instance):
    sol = clear(instance)
    return sol, settle(sol)


class TestIndividualChecks:
    def test_profit_nonnegativity_passes(self):
        _, rep = settled(two_var_market())
        assert audit_profit_nonnegativity(rep).passed

    def test_profit_nonnegativity_dry_market(self):
        _, rep = settled(dry_market())
        assert audit_profit_nonnegativity(rep).passed

    def test_profit_nonnegativity_catches_corruption(self):
        _, rep = settled(two_var_market())
        profit = rep.profit.copy()
        profit[0] = -1.0
        check = audit_profit_nonnegativity(dataclasses.replace(rep, profit=profit))
        assert not check.passed
        assert check.residual == pytest.approx(1.0)
        assert check.offender == rep.index.cols[0]

    def test_surplus_dominance_storage_market(self):
        inst = storage_market()
        check = audit_surplus_dominance(clear(inst))
        assert check.passed
        assert "st=42.5" in check.detail and "qss=0" in check.detail

    def test_surplus_dominance_no_temporal_arcs(self):
        inst = transport_market()
        check = audit_surplus_dominance(clear(inst))
        assert check.passed
        assert check.residual == 0.0

    def test_competitive_equilibrium(self):
        inst = storage_market()
        sol = clear(inst)
        check = audit_competitive_equilibrium(inst, sol)
        assert check.passed

    def test_competitive_equilibrium_corrupted_dual(self):
        inst = storage_market()
        sol = clear(inst)
        # shifting both prices down 5 leaves the cleared supplier priced
        # below its bid: genuinely dual-infeasible, unlike a small uniform
        # shift which lands on another optimal dual of this degenerate market
        bad = dataclasses.replace(sol.result, y=sol.result.y - 5.0)
        check = audit_competitive_equilibrium(inst, dataclasses.replace(sol, result=bad))
        assert not check.passed

    def test_revenue_adequacy_tipping_fee_market(self):
        _, rep = settled(tech_market())  # negative-bid waste supplier
        assert audit_revenue_adequacy(rep).passed

    def test_cleared_price_bounds(self):
        _, rep = settled(transport_market())
        assert audit_cleared_price_bounds(rep).passed

    def test_capacity_price_bounds(self):
        _, rep = settled(two_var_market())
        check = audit_capacity_price_bounds(rep)
        assert check.passed

    def test_partial_supplier_pinched_to_bid(self):
        _, rep = settled(transport_market())
        i1 = col(rep, "i1")
        assert rep.saturation[i1] is Saturation.PARTIAL
        assert rep.price[i1] == pytest.approx(rep.bid[i1], abs=1e-9)

    def test_profit_capacity_rule(self):
        _, rep = settled(two_var_market())
        check = audit_profit_capacity_rule(rep)
        assert check.passed
        # consumer at capacity: profit 30 <= lambda * cap = 6 * 5
        j1 = col(rep, "j1")
        assert rep.profit[j1] <= rep.lambda_bar[j1] * rep.capacity[j1] + 1e-9

    def test_profit_capacity_rule_catches_partial_profit(self):
        _, rep = settled(transport_market())
        profit = rep.profit.copy()
        profit[col(rep, "i1")] = 1.0
        assert not audit_profit_capacity_rule(dataclasses.replace(rep, profit=profit)).passed

    def test_at_least_one_saturated(self):
        _, rep = settled(two_var_market())
        assert audit_at_least_one_saturated(rep).passed

    def test_at_least_one_saturated_skips_dry(self):
        _, rep = settled(dry_market())
        check = audit_at_least_one_saturated(rep)
        assert check.passed and "skipped" in check.detail

    def test_volatility_corridor_priced_storage(self):
        inst = storage_market()
        # widen storage so it is strictly interior: price gap equals the bid
        wide = dataclasses.replace(
            inst, transporters=(dataclasses.replace(inst.transporters[0], capacity=50.0),)
        )
        sol = clear(wide)
        rep = settle(sol)
        check = audit_volatility_corridor(rep)
        assert check.passed
        assert rep.price[col(rep, "l1")] == pytest.approx(0.5, abs=1e-9)

    def test_volatility_corridor_free_transport_equalizes(self):
        grid = TimeGrid.hourly(2)
        s0, s1 = SpaceTimeNode("n1", 0), SpaceTimeNode("n1", 1)
        arc = Arc(s0, s1)
        inst = MarketInstance(
            products=("p1",),
            grid=grid,
            graph=build_graph(["n1"], grid, [arc]),
            suppliers=(Supplier("i1", s0, "p1", 5.0, 1.0),),
            consumers=(Consumer("j1", s1, "p1", 4.0, 10.0),),
            transporters=(TransportProvider("l1", arc, "p1", 100.0, 0.0),),
            technologies=(),
        )
        sol = clear(inst)
        rep = settle(sol)
        assert audit_volatility_corridor(rep).passed
        assert price_at(sol, "n1", 0, "p1") == pytest.approx(price_at(sol, "n1", 1, "p1"), abs=1e-9)


def two_lane_market():
    """Two suppliers at n1, two consumers at n2 and two transporters between
    them: columns i1, i2, j1, j2, l1, l2."""
    grid = TimeGrid.hourly(1)
    a, b = SpaceTimeNode("n1", 0), SpaceTimeNode("n2", 0)
    arc = Arc(a, b)
    return MarketInstance(
        products=("p1",),
        grid=grid,
        graph=build_graph(["n1", "n2"], grid, [arc]),
        suppliers=(Supplier("i1", a, "p1", 5.0, 1.0), Supplier("i2", a, "p1", 5.0, 2.0)),
        consumers=(Consumer("j1", b, "p1", 3.0, 9.0), Consumer("j2", b, "p1", 3.0, 8.0)),
        transporters=(
            TransportProvider("l1", arc, "p1", 10.0, 0.5),
            TransportProvider("l2", arc, "p1", 10.0, 0.5),
        ),
        technologies=(),
    )


class TestOffenders:
    """A violation array's maximum names the first column attaining it, and
    no column when it is 0."""

    @pytest.fixture(scope="class")
    def report(self):
        rep = settled(two_lane_market())[1]
        assert rep.index.cols == ("i1", "i2", "j1", "j2", "l1", "l2")
        # every stakeholder cleared strictly inside its capacity, priced at its bid
        n = len(rep.index.cols)
        return dataclasses.replace(
            rep, bid=np.ones(n), price=np.ones(n), allocation=np.ones(n),
            capacity=np.full(n, 10.0), lambda_bar=np.zeros(n), profit=np.zeros(n),
        )

    def test_profit_nonnegativity_ties(self, report):
        profit = np.array([0.0, -2.0, -2.0, -1.0, 0.0, 0.0])
        check = audit_profit_nonnegativity(dataclasses.replace(report, profit=profit))
        assert (check.residual, check.offender) == (2.0, "i2")

    def test_cleared_price_bounds_ties(self, report):
        # the supplier i2 sells below its bid, the consumer j1 buys above it
        price = np.array([1.0, 0.0, 2.0, 1.0, 1.0, 1.0])
        check = audit_cleared_price_bounds(dataclasses.replace(report, price=price))
        assert (check.residual, check.offender) == (0.5, "i2")

    def test_volatility_corridor_ties(self, report):
        price = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
        check = audit_volatility_corridor(dataclasses.replace(report, price=price))
        assert (check.residual, check.offender) == (0.5, "l1")

    @pytest.mark.parametrize(
        "audit", [audit_profit_nonnegativity, audit_cleared_price_bounds, audit_volatility_corridor]
    )
    def test_no_offender_at_zero(self, report, audit):
        check = audit(report)
        assert check.passed and (check.residual, check.offender) == (0.0, None)


@pytest.mark.parametrize(
    "shift, audit", [(1.0, audit_volatility_corridor), (-1.0, audit_cleared_price_bounds)]
)
def test_a_doctored_price_on_storage_of_an_unlimited_capacity_fails(shift, audit):
    # the storage column holds 17.4 t of a capacity of 1e9 at its bid of 0:
    # cleared and interior, so a price $1 off its bid either way is caught
    params = CaseParams(4, 2, 12, seed=7, variant=Variant.UNLIMITED_STORAGE)
    rep = settled(generate_waste_case(params))[1]
    who = "tra_store_farm000_t007"
    assert audit(rep).passed
    price = rep.price.copy()
    price[rep.index.col_of[who]] += shift
    check = audit(dataclasses.replace(rep, price=price))
    assert not check.passed and check.offender == who


class Row(NamedTuple):
    id: str
    kind: str
    bid: float
    capacity: float
    allocation: float
    price: float
    lambda_bar: float
    profit: float
    saturation: Saturation


def row_walk_checks(rep) -> dict:
    """The seven settlement checks walked stakeholder by stakeholder, the
    reference for their array forms: check name -> (residual, offender)."""
    rows = [
        Row(*r)
        for r in zip(
            rep.index.cols, rep.index.kinds, rep.bid.tolist(), rep.capacity.tolist(),
            rep.allocation.tolist(), rep.price.tolist(), rep.lambda_bar.tolist(),
            rep.profit.tolist(), rep.saturation,
        )
    ]

    def worst(violation):
        most, who = 0.0, None
        for r in rows:
            v = violation(r)
            if v > most:
                most, who = v, r.id
        return most, who

    def at_zero(r):
        return r.capacity == 0.0 or r.allocation <= 1e-7 * min(1.0, abs(r.capacity))

    def cleared_price(r):
        if at_zero(r):
            return 0.0
        short = r.price - r.bid if r.kind == "consumer" else r.bid - r.price
        return max(0.0, short / (1.0 + abs(r.bid)))

    def capacity_price(r):
        if r.kind == "consumer":
            v = (r.bid - r.lambda_bar) - r.price
            pinch = r.bid - r.price - r.lambda_bar
        else:
            v = r.price - (r.bid + r.lambda_bar)
            pinch = r.price - r.bid - r.lambda_bar
        if r.allocation < r.capacity - 1e-7 * (1.0 + abs(r.capacity)):
            v = max(v, pinch)
        return max(0.0, v / (1.0 + abs(r.bid) + abs(r.lambda_bar)))

    def profit_capacity(r):
        if r.saturation is Saturation.AT_CAPACITY:
            return max(0.0, r.profit - r.lambda_bar * r.capacity)
        return max(0.0, r.profit)

    def corridor(r):
        at_capacity = r.allocation >= r.capacity - 1e-7 * (1.0 + abs(r.capacity))
        if r.kind != "transporter" or at_zero(r) or at_capacity:
            return 0.0
        return abs(r.price - r.bid) / (1.0 + abs(r.bid))

    # the terms of each side, summed exactly rounded as the audit sums them
    lhs, rhs = [], []
    for r in rows:
        v = r.price * r.allocation
        if r.kind == "consumer":
            if r.bid >= 0:
                lhs.append(v)
            else:
                rhs.append(-v)
        elif r.kind == "supplier":
            if r.bid < 0:
                lhs.append(-v)
            else:
                rhs.append(v)
        else:
            rhs.append(v)
    classes = {r.saturation for r in rows}
    saturated = Saturation.AT_CAPACITY in classes or classes <= {Saturation.DRY}
    return {
        "profit_nonnegativity": worst(lambda r: max(0.0, -r.profit)),
        "revenue_adequacy": (abs(math.fsum(lhs) - math.fsum(rhs)), None),
        "cleared_price_bounds": worst(cleared_price),
        "capacity_price_bounds": worst(capacity_price),
        "profit_capacity_rule": worst(profit_capacity),
        "at_least_one_saturated": (0.0 if saturated else 1.0, None),
        "volatility_corridor": worst(corridor),
    }


def test_array_checks_equal_the_row_walk():
    """Bit for bit, offenders included, on settled random markets and on
    copies with noise in a third of the prices and profits."""
    checks = (
        audit_profit_nonnegativity, audit_revenue_adequacy, audit_cleared_price_bounds,
        audit_capacity_price_bounds, audit_profit_capacity_rule, audit_at_least_one_saturated,
        audit_volatility_corridor,
    )
    offenders = set()
    for seed in range(40):
        _, rep = settled(random_instance(seed))
        rng = np.random.default_rng(seed)
        noise = lambda: rng.normal(0.0, 0.5, rep.price.size) * (rng.random(rep.price.size) < 0.3)
        noisy = dataclasses.replace(rep, price=rep.price + noise(), profit=rep.profit + noise())
        for r in (rep, noisy):
            got = {c.name: (c.residual, c.offender) for c in (check(r) for check in checks)}
            assert got == row_walk_checks(r), seed
            offenders |= {who for _, who in got.values()}
    assert len(offenders) > 20  # the noise does name offenders


def negative_bid_market():
    """A waste supplier paid to dispose (bid -3) partly cleared by a consumer
    paid to take waste (bid -1) and one that pays for it (bid 2): the price
    is -3, so every stakeholder trades at a nonzero price."""
    grid = TimeGrid.hourly(1)
    s = SpaceTimeNode("n1", 0)
    return MarketInstance(
        products=("waste",),
        grid=grid,
        graph=build_graph(["n1"], grid, []),
        suppliers=(Supplier("i1", s, "waste", 5.0, -3.0),),
        consumers=(Consumer("j1", s, "waste", 3.0, -1.0), Consumer("j2", s, "waste", 1.0, 2.0)),
        transporters=(),
        technologies=(),
    )


class TestRevenueAdequacySigns:
    def test_negative_bid_suppliers_and_consumers_balance(self):
        _, rep = settled(negative_bid_market())
        assert rep.price.tolist() == pytest.approx([-3.0, -3.0, -3.0], abs=1e-9)
        assert rep.allocation.tolist() == pytest.approx([4.0, 3.0, 1.0], abs=1e-9)
        check = audit_revenue_adequacy(rep)
        assert check.passed and check.residual <= 1e-9

    @pytest.mark.parametrize("who", ["i1", "j1", "j2"])
    def test_one_flipped_price_fails(self, who):
        _, rep = settled(negative_bid_market())
        price = rep.price.copy()
        price[col(rep, who)] *= -1.0
        check = audit_revenue_adequacy(dataclasses.replace(rep, price=price))
        assert not check.passed


class TestFullAudit:
    def test_storage_market_passes(self):
        rep = run_full_audit(storage_market())
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert {
            "instance_valid",
            "bounded_clearing",
            "profit_nonnegativity",
            "surplus_dominance",
            "competitive_equilibrium",
            "revenue_adequacy",
            "cleared_price_bounds",
            "capacity_price_bounds",
            "profit_capacity_rule",
            "at_least_one_saturated",
            "volatility_corridor",
            "aggregation_identities",
            "kkt",
        } <= names

    def test_random_sweep(self):
        for seed in range(60):
            rep = run_full_audit(random_instance(seed))
            assert rep.passed, (seed, [c for c in rep.checks if not c.passed])

    @pytest.mark.parametrize("given, solves", [(False, 2), (True, 1)])
    def test_one_solve_per_market(self, monkeypatch, given, solves):
        """The space-time market is solved only when no solution is given;
        the quasi-steady-state restriction is the only other solve.  Only the
        space-time LP is assembled, and only when it is solved: the QSS LP is
        derived from it."""
        inst = storage_market()
        solution = clear(inst) if given else None
        calls = []
        for module in (settlement, property_auditor):

            def counted(*args, _solve=module.solve, **kwargs):
                calls.append(args[0])
                return _solve(*args, **kwargs)

            monkeypatch.setattr(module, "solve", counted)
        assembled = []
        for module in (cli_io, settlement, clearing_lp):

            def counted_assembly(*args, _assemble=module.assemble_primal, **kwargs):
                assembled.append(args[0])
                return _assemble(*args, **kwargs)

            monkeypatch.setattr(module, "assemble_primal", counted_assembly)
        assert run_full_audit(inst, solution=solution).passed
        assert len(calls) == solves
        assert len(assembled) == (0 if given else 1)

    def test_qss_starts_from_the_audited_basis(self, tmp_path, monkeypatch):
        """The QSS restriction is solved warm from the space-time basis, or,
        for a loaded solution, from the basis rebuilt from its files."""
        inst = storage_market()
        save_dir = tmp_path / "sol"
        cli_io.write_solution(save_dir, inst, clear(inst), settle(clear(inst)))
        loaded = cli_io.load_solution(save_dir, inst)
        starts = []

        def recorded(lp, start=None, *, max_iterations=None, _solve=settlement.solve):
            result = _solve(lp, start, max_iterations=max_iterations)
            starts.append((start, result.basis))
            return result

        monkeypatch.setattr(settlement, "solve", recorded)
        assert run_full_audit(inst).passed
        [(none, st_basis), (start, _)] = starts
        assert none is None and start is st_basis
        starts.clear()
        assert loaded.result.basis is not None
        assert run_full_audit(inst, solution=loaded).passed
        [(start, _)] = starts
        assert start is loaded.result.basis

    @pytest.mark.parametrize("supplied", ["shifted prices", "not a vertex", "another variant"])
    def test_a_wrong_solution_dir_gives_the_cold_qss(self, tmp_path, supplied):
        """The basis rebuilt from a wrong solution is only a hint: the QSS
        surplus and every check's verdict are those of a cold QSS solve."""
        params = CaseParams(4, 2, 12, 7, Variant.BASE)
        inst = generate_waste_case(params)
        source = inst
        if supplied == "another variant":
            source = generate_waste_case(dataclasses.replace(params, variant=Variant.NO_STORAGE))
        sol = clear(source)
        cli_io.write_solution(tmp_path, source, sol, settle(sol))
        if supplied == "shifted prices":
            _edit_csv(tmp_path / "prices.csv", "price", lambda p: p + 1.0)
        if supplied == "not a vertex":
            _edit_csv(tmp_path / "allocations.csv", "allocation", lambda a: a / 2)
        loaded = cli_io.load_solution(tmp_path, inst)
        cold = dataclasses.replace(loaded, result=dataclasses.replace(loaded.result, basis=None))

        qss, _ = clearing_lp.assemble_primal(restrict_to_qss(inst))
        warm_qss, cold_qss = solve(qss, loaded.result.basis), solve(qss)
        assert warm_qss.status is cold_qss.status is SolverStatus.OPTIMAL
        gap = abs(warm_qss.objective - cold_qss.objective)
        assert gap <= 1e-9 * (1.0 + abs(cold_qss.objective))
        verdicts = [
            [(c.name, c.passed) for c in run_full_audit(inst, solution=s).checks]
            for s in (loaded, cold)
        ]
        assert verdicts[0] == verdicts[1]
        assert not all(passed for _, passed in verdicts[0])

    def test_iteration_limit_inconclusive(self):
        inst = storage_market()
        rep = run_full_audit(inst, solution=clear(inst, max_iterations=1))
        assert rep.status == "inconclusive"

    def test_invalid_instance_fails(self):
        inst = two_var_market()
        bad = dataclasses.replace(
            inst, suppliers=(dataclasses.replace(inst.suppliers[0], capacity=-2.0),)
        )
        rep = run_full_audit(bad)
        assert rep.status == "fail"
        assert not rep.check("instance_valid").passed


def test_each_check_logs_its_verdict_and_time(caplog):
    caplog.set_level(logging.DEBUG, logger="stclear.audit")
    report = run_full_audit(storage_market())
    lines = [r.getMessage() for r in caplog.records if r.name == "stclear.audit"]
    assert len(lines) == 13
    pattern = re.compile(r"check: name=(\w+) passed=([01]) ms=\d+\.\d{3}")
    logged = [pattern.fullmatch(line).groups() for line in lines]
    assert logged == [(c.name, str(int(c.passed))) for c in report.checks]


def test_kkt_gate_is_the_competitive_equilibrium_gate():
    # the audit's kkt check runs verify_kkt at its FEASIBILITY_TOL and relies
    # on it being the 0.01 * REL_TOL that gates competitive_equilibrium
    assert 0.01 * property_auditor.REL_TOL == FEASIBILITY_TOL
