import csv
import dataclasses

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
from stclear.simplex_solver import SolverConfig, SolverStatus
from stclear.market_model import Supplier, Consumer, MarketInstance
from stclear.stgraph import Arc, SpaceTimeNode, TimeGrid, build_graph
from stclear.market_model import TransportProvider

from _markets import (
    dry_market,
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
        rows = tuple(dataclasses.replace(r, profit=-1.0) for r in rep.stakeholders[:1]) + rep.stakeholders[1:]
        bad = dataclasses.replace(rep, stakeholders=rows)
        check = audit_profit_nonnegativity(bad)
        assert not check.passed
        assert check.residual == pytest.approx(1.0)
        assert check.offender == rep.stakeholders[0].id

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
        check = audit_competitive_equilibrium(inst, sol.lp, sol.result)
        assert check.passed

    def test_competitive_equilibrium_corrupted_dual(self):
        inst = storage_market()
        sol = clear(inst)
        # shifting both prices down 5 leaves the cleared supplier priced
        # below its bid: genuinely dual-infeasible, unlike a small uniform
        # shift which lands on another optimal dual of this degenerate market
        bad = dataclasses.replace(sol.result, y=sol.result.y - 5.0)
        check = audit_competitive_equilibrium(inst, sol.lp, bad)
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
        row = rep.row("i1")
        assert row.saturation is Saturation.PARTIAL
        assert row.price == pytest.approx(row.bid, abs=1e-9)

    def test_profit_capacity_rule(self):
        _, rep = settled(two_var_market())
        check = audit_profit_capacity_rule(rep)
        assert check.passed
        # consumer at capacity: profit 30 <= lambda * cap = 6 * 5
        row = rep.row("j1")
        assert row.profit <= row.lambda_bar * row.capacity + 1e-9

    def test_profit_capacity_rule_catches_partial_profit(self):
        _, rep = settled(transport_market())
        rows = tuple(
            dataclasses.replace(r, profit=1.0) if r.id == "i1" else r
            for r in rep.stakeholders
        )
        assert not audit_profit_capacity_rule(dataclasses.replace(rep, stakeholders=rows)).passed

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
        assert rep.row("l1").price == pytest.approx(0.5, abs=1e-9)

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
        assert sol.nodal_prices[(s0, "p1")] == pytest.approx(
            sol.nodal_prices[(s1, "p1")], abs=1e-9
        )


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

        def recorded(lp, cfg=None, start=None, _solve=settlement.solve):
            result = _solve(lp, cfg, start)
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

        qss = restrict_to_qss(inst)
        warm_qss, cold_qss = clear(qss, None, loaded.result.basis), clear(qss)
        assert warm_qss.status is cold_qss.status is SolverStatus.OPTIMAL
        assert abs(warm_qss.surplus - cold_qss.surplus) <= 1e-9 * (1.0 + abs(cold_qss.surplus))
        verdicts = [
            [(c.name, c.passed) for c in run_full_audit(inst, solution=s).checks]
            for s in (loaded, cold)
        ]
        assert verdicts[0] == verdicts[1]
        assert not all(passed for _, passed in verdicts[0])

    def test_iteration_limit_inconclusive(self):
        rep = run_full_audit(storage_market(), SolverConfig(max_iterations=1))
        assert rep.status == "inconclusive"

    def test_invalid_instance_fails(self):
        inst = two_var_market()
        bad = dataclasses.replace(
            inst, suppliers=(dataclasses.replace(inst.suppliers[0], capacity=-2.0),)
        )
        rep = run_full_audit(bad)
        assert rep.status == "fail"
        assert not rep.check("instance_valid").passed
