import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

from stclear.clearing_lp import LinearProgram, assemble_dual, assemble_primal
from stclear.property_auditor import audit_competitive_equilibrium, explicit_dual_point
from stclear.simplex_solver import (
    NotOptimal,
    SolverConfig,
    SolverStatus,
    capacity_duals,
    solve,
    verify_kkt,
)

from _markets import dry_market, random_instance, storage_market, two_var_market
from _oracle import enumerate_lp


def make_lp(c, A, b, lower, upper, sense="max", labels=None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        A = A.reshape(0, len(c))
    n = len(c)
    labels = labels or tuple(f"x{j}" for j in range(n))
    return LinearProgram(
        sense=sense,
        c=np.asarray(c, dtype=float),
        A=sp.csr_matrix(A),
        b=np.asarray(b, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        col_labels=tuple(labels),
        row_labels=tuple(f"r{i}" for i in range(A.shape[0])),
    )


def random_lp(seed):
    """Small random LP with finite bounds; b is nonzero half the time so the
    phase-1 path gets exercised."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 5))
    density_vals = np.array([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0])
    A = rng.choice(density_vals, size=(m, n))
    upper = np.round(rng.uniform(0.0, 5.0, size=n), 3)
    if rng.random() < 0.5:
        b = np.zeros(m)
    else:
        b = np.round(rng.uniform(-2.0, 2.0, size=m), 3)
    c = np.round(rng.uniform(-5.0, 5.0, size=n), 3)
    sense = "max" if rng.random() < 0.5 else "min"
    return make_lp(c, A, b, np.zeros(n), upper, sense=sense)


class TestFixtures:
    def test_two_var_market(self):
        lp, index = assemble_primal(two_var_market())
        res = solve(lp)
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(30.0, abs=1e-9)
        x = {label: res.x[j] for label, j in index.col_of.items()}
        assert x["i1"] == pytest.approx(5.0, abs=1e-9)
        assert x["j1"] == pytest.approx(5.0, abs=1e-9)
        assert res.y[0] == pytest.approx(2.0, abs=1e-9)

    def test_unbounded(self):
        lp = make_lp([1.0], np.zeros((0, 1)), [], [0.0], [np.inf])
        assert solve(lp).status is SolverStatus.UNBOUNDED

    def test_infeasible(self):
        lp = make_lp([1.0], [[1.0]], [-1.0], [0.0], [1.0])
        assert solve(lp).status is SolverStatus.INFEASIBLE

    def test_empty_lp(self):
        lp = make_lp([], np.zeros((0, 0)), [], [], [])
        res = solve(lp)
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == 0.0


class TestKkt:
    def test_passes_at_optimum(self):
        lp, _ = assemble_primal(two_var_market())
        res = solve(lp)
        rep = verify_kkt(lp, res)
        assert rep.passed
        assert rep.primal_residual == 0.0
        assert rep.duality_gap <= 1e-9

    def test_perturbed_x_fails_with_reported_residual(self):
        lp, _ = assemble_primal(two_var_market())
        res = solve(lp)
        bad = dataclasses.replace(res, x=res.x + np.array([1e-3, 0.0]))
        rep = verify_kkt(lp, bad)
        assert not rep.passed
        assert rep.primal_residual == pytest.approx(1e-3, rel=1e-6)

    def test_zero_allocation_fails_complementary_slackness(self):
        # x = 0 with a profitable trade open: the consumer column keeps a
        # positive margin, so slackness against the zero dual fails
        lp, _ = assemble_primal(two_var_market())
        res = solve(lp)
        bad = dataclasses.replace(res, x=np.zeros(2), y=np.zeros(1))
        rep = verify_kkt(lp, bad)
        assert not rep.passed
        assert max(rep.cs_lower, rep.cs_upper, rep.dual_violation, rep.duality_gap) > 1.0

    def test_requires_optimal(self):
        lp = make_lp([1.0], [[1.0]], [-1.0], [0.0], [1.0])
        res = solve(lp)
        with pytest.raises(NotOptimal):
            verify_kkt(lp, res)


class TestCapacityDuals:
    def test_two_var_market(self):
        lp, index = assemble_primal(two_var_market())
        res = solve(lp)
        lam = capacity_duals(lp, res, index)
        assert lam["j1"] == pytest.approx(6.0, abs=1e-9)  # consumer at capacity
        assert lam["i1"] == 0.0  # strictly interior supplier

    def test_dry_stakeholders_zero(self):
        lp, index = assemble_primal(dry_market())
        res = solve(lp)
        lam = capacity_duals(lp, res, index)
        assert lam == {"i1": 0.0, "j1": 0.0}


class TestOracleEquivalence:
    def test_random_lps(self):
        for seed in range(150):
            lp = random_lp(seed)
            res = solve(lp)
            A = lp.A.toarray()
            status, obj, _ = enumerate_lp(lp.c, A, lp.b, lp.lower, lp.upper, sense=lp.sense)
            if status == "infeasible":
                assert res.status is SolverStatus.INFEASIBLE, f"seed {seed}"
            else:
                assert res.status is SolverStatus.OPTIMAL, f"seed {seed}"
                assert res.objective == pytest.approx(obj, abs=1e-7), f"seed {seed}"
                assert verify_kkt(lp, res).passed, f"seed {seed}"

    @settings(max_examples=60, deadline=None)
    @given(hst.integers(min_value=10_000, max_value=10_999))
    def test_random_lps_hypothesis(self, seed):
        lp = random_lp(seed)
        res = solve(lp)
        status, obj, _ = enumerate_lp(
            lp.c, lp.A.toarray(), lp.b, lp.lower, lp.upper, sense=lp.sense
        )
        if status == "infeasible":
            assert res.status is SolverStatus.INFEASIBLE
        else:
            assert res.status is SolverStatus.OPTIMAL
            assert res.objective == pytest.approx(obj, abs=1e-7)


class TestDeterminism:
    def test_identical_runs(self):
        lp, _ = assemble_primal(random_instance(17))
        r1 = solve(lp)
        r2 = solve(lp)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.y, r2.y)
        assert r1.objective == r2.objective


def test_scaling_covariance_lp_level():
    lp, _ = assemble_primal(storage_market())
    res1 = solve(lp)
    k = 3.0
    lp3 = dataclasses.replace(lp, c=k * lp.c)
    res3 = solve(lp3)
    assert res3.objective == pytest.approx(k * res1.objective, rel=1e-12)
    assert np.allclose(res3.y, k * res1.y, rtol=1e-12, atol=1e-12)
    assert np.allclose(res3.x, res1.x)


def test_anti_cycling_degenerate_instance():
    # equal capacities and duplicated columns: heavy degeneracy, must stop
    n_dup = 6
    c = [1.0] * n_dup + [-1.0] * n_dup
    A = np.zeros((2, 2 * n_dup))
    A[0, :n_dup] = 1.0
    A[0, n_dup:] = -1.0
    A[1, :n_dup] = 1.0
    A[1, n_dup:] = -1.0
    lp = make_lp(c, A, [0.0, 0.0], np.zeros(2 * n_dup), np.ones(2 * n_dup))
    res = solve(lp)
    assert res.status is SolverStatus.OPTIMAL
    assert res.iterations <= 50 * (2 + 2 * n_dup)


def test_iteration_limit_status():
    lp, _ = assemble_primal(random_instance(9))
    res = solve(lp, SolverConfig(max_iterations=1))
    assert res.status in (SolverStatus.ITERATION_LIMIT, SolverStatus.OPTIMAL)
    if lp.n_cols > 1:
        assert res.status is SolverStatus.ITERATION_LIMIT


def medium_random_lp(seed):
    """Bigger random LP (up to 60 cols, 25 rows) with occasional free columns
    and infinite uppers; sized past what the enumeration oracle can touch."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 61))
    m = int(rng.integers(1, 26))
    A = np.where(rng.random((m, n)) < 0.25, np.round(rng.uniform(-2.0, 2.0, (m, n)), 2), 0.0)
    lower = np.where(rng.random(n) < 0.1, -np.inf, 0.0)
    upper = np.round(rng.uniform(0.5, 8.0, n), 2)
    upper[rng.random(n) < 0.1] = np.inf
    b = np.zeros(m) if rng.random() < 0.4 else np.round(rng.uniform(-3.0, 3.0, m), 2)
    c = np.round(rng.uniform(-4.0, 4.0, n), 2)
    return make_lp(c, A, b, lower, upper, sense="min")


def test_matches_scipy_on_medium_instances():
    from scipy.optimize import linprog

    agree = 0
    for seed in range(40):
        lp = medium_random_lp(seed)
        res = solve(lp)
        bounds = [
            (None if np.isneginf(lo) else lo, None if np.isposinf(hi) else hi)
            for lo, hi in zip(lp.lower, lp.upper)
        ]
        ref = linprog(lp.c, A_eq=lp.A.toarray(), b_eq=lp.b, bounds=bounds, method="highs")
        if ref.status == 2:
            assert res.status is SolverStatus.INFEASIBLE, f"seed {seed}"
        elif ref.status == 3:
            assert res.status is SolverStatus.UNBOUNDED, f"seed {seed}"
        else:
            assert ref.status == 0, f"seed {seed}: scipy status {ref.status}"
            assert res.status is SolverStatus.OPTIMAL, f"seed {seed}"
            scale = 1.0 + abs(ref.fun)
            assert abs(res.objective - ref.fun) <= 1e-7 * scale, f"seed {seed}"
            agree += 1
    assert agree >= 10  # the sweep must include a healthy share of solvable LPs


def test_dual_lp_strong_duality_on_random_instances():
    for seed in range(25):
        inst = random_instance(seed)
        lp, _ = assemble_primal(inst)
        primal = solve(lp)
        dual_lp = assemble_dual(inst)
        dual = solve(dual_lp)
        assert primal.status is SolverStatus.OPTIMAL, f"seed {seed}"
        assert dual.status is SolverStatus.OPTIMAL, f"seed {seed}"
        scale = 1.0 + abs(primal.objective)
        assert abs(primal.objective - dual.objective) <= 1e-7 * scale, f"seed {seed}"
        # the audit's certificate reaches the solved dual optimum without a solve
        certified = float(dual_lp.c @ explicit_dual_point(lp, primal.y))
        dual_scale = 1.0 + abs(dual.objective)
        assert abs(certified - dual.objective) <= 1e-7 * dual_scale, f"seed {seed}"
        assert audit_competitive_equilibrium(inst, lp, primal).passed, f"seed {seed}"
