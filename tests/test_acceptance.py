"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import contextlib
import time
from dataclasses import astuple

import numpy as np
import pytest
from scipy.stats import spearmanr

from stclear.clearing_lp import assemble_primal, total
from stclear.property_auditor import run_full_audit
from stclear.scenario_gen import (
    CaseParams,
    Variant,
    build_demand_curve,
    generate_waste_case,
    restrict_to_qss,
)
from stclear.settlement import (
    capacity_duals,
    clear,
    settle,
    stakeholder_prices,
    stakeholder_profits,
)
from stclear.simplex_solver import SolverStatus, solve, verify_kkt

from _markets import (
    allocation,
    capacity_dual,
    col,
    price_at,
    random_instance,
    scale_bids,
    storage_market,
    transport_market,
    two_var_market,
)
from _oracle import enumerate_lp, enumerate_market_lp
from test_simplex_solver import random_lp


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def test_criterion_1_theorem_suite_gate():
    with criterion("criterion-1 theorem-suite gate (200 random audits)"):
        t0 = time.perf_counter()
        failures = []
        for seed in range(200):
            report = run_full_audit(random_instance(seed))
            if not report.passed:
                failures.append((seed, [c.name for c in report.checks if not c.passed]))
        elapsed = time.perf_counter() - t0
        assert not failures, failures
        assert elapsed < 60.0, f"audit sweep took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence():
    with criterion("criterion-2 simplex vs active-set enumeration (100 LPs)"):
        for seed in range(100):
            lp = random_lp(seed)
            res = solve(lp)
            status, obj, _ = enumerate_lp(
                lp.c, lp.A.toarray(), lp.b, lp.lower, lp.upper, sense=lp.sense
            )
            if status == "infeasible":
                assert res.status is SolverStatus.INFEASIBLE, f"seed {seed}"
            else:
                assert res.status is SolverStatus.OPTIMAL, f"seed {seed}"
                assert abs(res.objective - obj) <= 1e-7, f"seed {seed}"


def test_criterion_3_hand_solvable_fixtures():
    with criterion("criterion-3 hand-solvable fixtures"):
        # two-variable market: oracle first, then frozen values
        inst = two_var_market()
        lp, index = assemble_primal(inst)
        status, obj, x = enumerate_market_lp(lp)
        assert status == "optimal" and abs(obj - 30.0) <= 1e-9
        sol = clear(inst)
        assert abs(sol.surplus - 30.0) <= 1e-9
        assert abs(price_at(sol, "n1", 0, "p1") - 2.0) <= 1e-9
        assert abs(capacity_dual(sol, "j1") - 6.0) <= 1e-9
        profits = stakeholder_profits(sol)
        assert abs(profits[col(sol, "j1")] - 30.0) <= 1e-9

        # storage market: primal optimum by enumeration; the frozen dual point
        # is certified optimal by zero duality gap against it
        inst = storage_market()
        lp, index = assemble_primal(inst)
        status, obj, _ = enumerate_market_lp(lp)
        assert status == "optimal" and abs(obj - 42.5) <= 1e-9
        pi = {"t0": 1.0, "t1": 1.5}
        lam = {"i1": 0.0, "j1": 8.5, "l1": 0.0}
        caps = {"i1": 5.0, "j1": 5.0, "l1": 5.0}
        dual_obj = sum(caps[k] * lam[k] for k in caps)
        assert abs(dual_obj - obj) <= 1e-9  # strong duality certificate
        assert pi["t0"] - lam["i1"] <= 1.0 + 1e-12  # supplier dual feasibility
        assert pi["t1"] + lam["j1"] >= 10.0 - 1e-12  # consumer
        assert pi["t1"] - pi["t0"] - lam["l1"] <= 0.5 + 1e-12  # storage
        sol = clear(inst)
        assert abs(sol.surplus - 42.5) <= 1e-9
        assert abs(price_at(sol, "n1", 0, "p1") - 1.0) <= 1e-9
        assert abs(price_at(sol, "n1", 1, "p1") - 1.5) <= 1e-9
        qss = clear(restrict_to_qss(inst))
        assert abs(qss.surplus - 0.0) <= 1e-9

        # two-node transport market: interior transporter prices at its bid
        inst = transport_market()
        lp, _ = assemble_primal(inst)
        status, obj, _ = enumerate_market_lp(lp)
        assert status == "optimal" and abs(obj - 12.0) <= 1e-9
        sol = clear(inst)
        prices = stakeholder_prices(sol)
        assert abs(prices[col(sol, "l1")] - 1.0) <= 1e-9


def test_criterion_4_table_structure():
    with criterion("criterion-4 revenue stream table nets to zero (4 variants)"):
        for variant in Variant:
            params = CaseParams(farms=8, processors=4, horizon=24, seed=7, variant=variant)
            inst = generate_waste_case(params)
            sol = clear(inst)
            assert sol.status is SolverStatus.OPTIMAL, variant
            rep = settle(sol)
            streams = rep.streams
            magnitude = total(np.abs(astuple(streams)))
            assert abs(streams.grand_total) <= 1e-6 * (1.0 + magnitude), (
                variant,
                streams,
            )


@pytest.fixture(scope="module")
def desk_case():
    T = 72
    out = {}
    for variant in (Variant.BASE, Variant.NO_STORAGE, Variant.UNLIMITED_STORAGE):
        params = CaseParams(farms=8, processors=4, horizon=T, seed=7, variant=variant)
        inst = generate_waste_case(params)
        sol = clear(inst)
        assert sol.status is SolverStatus.OPTIMAL
        out[variant] = (inst, sol)
    out["T"] = T
    out["demand"] = np.array(build_demand_curve(T))
    return out


def _hub_prices(sol, T):
    return np.array([price_at(sol, "hub", t, "electricity") for t in range(T)])


def test_criterion_5_case_dynamics(desk_case):
    with criterion("criterion-5 qualitative case-study dynamics (T=72)"):
        T = desk_case["T"]
        demand = desk_case["demand"]
        inst_base, sol_base = desk_case[Variant.BASE]
        _, sol_no = desk_case[Variant.NO_STORAGE]
        inst_unl, sol_unl = desk_case[Variant.UNLIMITED_STORAGE]

        # (a) no-storage price series: 24h-periodic, co-monotone with demand
        p_no = _hub_prices(sol_no, T)
        assert np.allclose(p_no[24:], p_no[:-24], rtol=0, atol=1e-9)
        rho = spearmanr(p_no, demand).statistic
        assert rho >= 0.95, rho

        # (b) peak-hour price ordering across variants
        p_base = _hub_prices(sol_base, T)
        p_unl = _hub_prices(sol_unl, T)
        tol = 1e-6 * (1.0 + float(p_no.max()))
        peak_hours = [int(np.argmax(demand[d * 24 : (d + 1) * 24])) + d * 24 for d in range(3)]
        for h in peak_hours:
            assert p_base[h] <= p_no[h] + tol, (h, p_base[h], p_no[h])
            assert p_unl[h] <= p_base[h] + tol, (h, p_unl[h], p_base[h])

        # (c) base-case storage fills and empties every day
        store_cap = sum(
            x.capacity
            for x in inst_base.transporters
            if x.arc.base.node == x.arc.receiving.node and x.arc.base.time == 0
        )
        level = np.zeros(T - 1)
        for x in inst_base.transporters:
            if x.arc.base.node == x.arc.receiving.node:
                level[x.arc.base.time] += allocation(sol_base, x.id)
        for d in range(3):
            window = level[d * 24 : min((d + 1) * 24, T - 1)]
            assert window.min() <= 0.05 * store_cap, (d, window.min())
            assert window.max() >= 0.95 * store_cap, (d, window.max())

        # (d) unlimited storage flattens the waste price at a fixed farm
        farm = "farm000"  # first processor-equipped farm
        wp = np.array([price_at(sol_unl, farm, t, "waste") for t in range(T)])
        cv = float(wp.std() / abs(wp.mean()))
        assert cv <= 0.01, cv


def test_criterion_6_scaling_covariance():
    with criterion("criterion-6 bid scaling covariance (x3)"):
        cases = [two_var_market(), storage_market(), transport_market()] + [
            random_instance(seed) for seed in (2, 5, 13)
        ]
        for inst in cases:
            sol1 = clear(inst)
            scaled = scale_bids(inst, 3.0)
            sol3 = clear(scaled)
            assert sol1.status is SolverStatus.OPTIMAL
            assert sol3.status is SolverStatus.OPTIMAL
            rel = 1e-9 * (1.0 + abs(sol1.surplus))
            assert abs(sol3.surplus - 3.0 * sol1.surplus) <= 3.0 * rel
            # both markets have the same rows and columns, in the same order
            assert sol3.index == sol1.index
            for v1, v3 in zip(sol1.result.y.tolist(), sol3.result.y.tolist()):
                assert abs(v3 - 3.0 * v1) <= 1e-9 * (1.0 + 3.0 * abs(v1))
            lam1 = capacity_duals(sol1.lp, sol1.result).tolist()
            lam3 = capacity_duals(sol3.lp, sol3.result).tolist()
            for v1, v3 in zip(lam1, lam3):
                assert abs(v3 - 3.0 * v1) <= 1e-9 * (1.0 + 3.0 * abs(v1))
            # allocations of the scaled solve stay optimal for the scaled LP,
            # and the original allocation achieves the same scaled objective
            assert verify_kkt(sol3.lp, sol3.result).passed
            x1 = np.array([allocation(sol1, label) for label in sol3.index.cols])
            obj_cross = float(sol3.lp.c @ x1)
            assert abs(obj_cross - sol3.surplus) <= 1e-9 * (1.0 + abs(sol3.surplus))


def test_criterion_7_cli_determinism(tmp_path):
    with criterion("criterion-7 CLI determinism (generate + clear)"):
        from stclear.cli_io import main

        gen = [
            "generate", "--farms", "4", "--processors", "2", "--hours", "12",
            "--seed", "21", "--variant", "base",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(gen + ["--out", str(a)]) == 0
        assert main(gen + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        out_a, out_b = tmp_path / "sol_a", tmp_path / "sol_b"
        assert main(["clear", "--instance", str(a), "--out-dir", str(out_a)]) == 0
        assert main(["clear", "--instance", str(b), "--out-dir", str(out_b)]) == 0
        names = ["allocations.csv", "prices.csv", "settlement.csv", "streams.csv"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
