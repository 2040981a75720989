import dataclasses
import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from stclear import cli_io, simplex_solver
from stclear.clearing_lp import LinearProgram, assemble_dual, assemble_primal, total
from stclear.property_auditor import REL_TOL, audit_competitive_equilibrium, explicit_dual_point
from stclear.scenario_gen import CaseParams, Variant, generate_waste_case, restrict_to_qss
from stclear.simplex_solver import (
    _AT_LOWER,
    _AT_UPPER,
    _BASIC,
    PIVOT_TOLERANCE,
    REFACTOR_EVERY,
    NotOptimal,
    SolverStatus,
    _EtaLU,
    _Simplex,
    _SingularBasis,
    _eligibility,
    _triangular,
    basis_from_point,
    solve,
    verify_kkt,
)
from stclear.settlement import ClearingSolution, capacity_duals, clear, clear_qss, settle

from _lps import highs, make_lp, medium_random_lp, scaled_lp
from _markets import (
    dry_market, explicit_dual, random_instance, restated, storage_market, two_var_market,
)
from _oracle import enumerate_lp


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
        lam = capacity_duals(lp, res)
        assert lam[index.col_of["j1"]] == pytest.approx(6.0, abs=1e-9)  # consumer at capacity
        assert lam[index.col_of["i1"]] == 0.0  # strictly interior supplier

    def test_dry_stakeholders_zero(self):
        lp, index = assemble_primal(dry_market())
        res = solve(lp)
        lam = capacity_duals(lp, res)
        assert dict(zip(index.cols, lam.tolist())) == {"i1": 0.0, "j1": 0.0}


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
    # one node: a supplier (cost 1, capacity 2) and two consumers (values 3
    # and 2, capacity 1 each); every unit traded gains, so the unique optimum
    # has all three columns nonzero.  A solve starts at x = 0 with every
    # nonbasic column at its lower bound, and one iteration leaves at most
    # one column nonbasic at its upper bound, so at most m + 1 = 2 columns
    # are nonzero after it: any start needs a second iteration.
    lp = make_lp([-1.0, 3.0, 2.0], [[1.0, -1.0, -1.0]], [0.0], np.zeros(3), [2.0, 1.0, 1.0])
    res = solve(lp, max_iterations=1)
    assert res.status is SolverStatus.ITERATION_LIMIT and res.iterations == 1
    full = solve(lp)
    assert full.status is SolverStatus.OPTIMAL and np.array_equal(full.x, [2.0, 1.0, 1.0])


def test_config_rejects_bad_settings():
    with pytest.raises(ValueError):
        solve(waste_lp(), max_iterations=-1)


def test_config_accepts_a_zero_iteration_limit():
    res = solve(waste_lp(), max_iterations=0)
    assert res.status is SolverStatus.ITERATION_LIMIT and res.iterations == 0


def waste_lp(variant=Variant.BASE):
    """Clearing LP of the 4x2x12 generated case at seed 7: about 850-880
    iterations, of which 60-100 change the basis, so a solve passes several
    refactorizations."""
    params = CaseParams(farms=4, processors=2, horizon=12, seed=7, variant=variant)
    return assemble_primal(generate_waste_case(params))[0]


def test_matches_scipy_on_medium_instances():
    agree = 0
    for seed in range(40):
        lp = medium_random_lp(seed)
        res = solve(lp)
        ref = highs(lp)
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
    # clearing LPs large enough to run through many refactorizations
    for variant in Variant:
        lp = waste_lp(variant)
        res = solve(lp)
        ref = highs(lp)
        assert ref.status == 0, variant
        assert res.status is SolverStatus.OPTIMAL, variant
        assert abs(res.objective - ref.fun) <= 1e-9 * abs(ref.fun), variant
        assert verify_kkt(lp, res).passed, variant


def least_prices(lp, x, tol=1e-9):
    """HiGHS's point of least sum on the optimal dual face of `lp`, in the
    orientation of `SolverResult.y`: the face is every y whose reduced costs
    d = c - A^T y (of the internal minimization) are complementary to the
    optimal x, d >= 0 where x is at its lower bound, d <= 0 where it is at
    its upper bound and d = 0 in between; a column with equal bounds leaves
    d free.  None when the sum is unbounded below."""
    from scipy.optimize import linprog

    c = -lp.c if lp.sense == "max" else lp.c
    margin = tol * (1.0 + np.abs(x))
    at_lo = x - lp.lower <= margin
    at_hi = lp.upper - x <= margin
    AT = lp.A.T.toarray()
    ge = at_lo & ~at_hi  # d >= 0, that is a^T y <= c
    le = at_hi & ~at_lo  # d <= 0
    eq = ~at_lo & ~at_hi
    ref = linprog(
        np.ones(lp.n_rows),
        A_ub=np.vstack([AT[ge], -AT[le]]),
        b_ub=np.concatenate([c[ge], -c[le]]),
        A_eq=AT[eq] if eq.any() else None,
        b_eq=c[eq] if eq.any() else None,
        bounds=(None, None),
        method="highs",
    )
    assert ref.status in (0, 3), ref.message
    return ref.x if ref.status == 0 else None


def assert_least_prices(lp, res, case, ref=None):
    assert res.status is SolverStatus.OPTIMAL, case
    assert verify_kkt(lp, res).passed, case
    ref = least_prices(lp, res.x) if ref is None else ref
    assert ref is not None, case
    assert np.all(np.abs(res.y - ref) <= REL_TOL * (1.0 + np.abs(ref))), case


PRICE_CASES = [
    CaseParams(farms, processors, horizon, seed, variant)
    for farms, processors, horizon in ((3, 2, 6), (4, 2, 12))
    for variant in Variant
    for seed in (1, 7)
]


@pytest.mark.parametrize("params", PRICE_CASES, ids=str)
def test_prices_are_the_least_on_the_optimal_dual_face(params):
    instance = generate_waste_case(params)
    lp, _ = assemble_primal(instance)
    assert_least_prices(lp, solve(lp), params)
    st, qss = qss_pair(instance)
    assert_least_prices(qss, solve(qss, start=st.basis), (params, "qss"))


def test_prices_of_random_instances_are_the_least(caplog):
    """Most random instances have a row where no one trades and only
    sellers bid, whose price has no least value: there the step is skipped
    and the log says so."""
    bounded = 0
    for seed in range(200):
        lp, _ = assemble_primal(random_instance(seed))
        res, fields = solve_fields(lp, caplog)
        ref = least_prices(lp, res.x)
        if ref is None:
            assert fields["face"] == "skipped", seed
            assert verify_kkt(lp, res).passed, seed
        else:
            assert "face" not in fields, seed
            assert_least_prices(lp, res, seed, ref)
            bounded += 1
    assert bounded >= 10


def _without_least_prices(monkeypatch):
    monkeypatch.setattr(_Simplex, "_least_prices", lambda sx, y, d: (y, d))


def test_prices_already_least_are_kept_bit_for_bit(caplog, monkeypatch):
    """Where the optimal basis is already optimal for the face LP, the step
    costs one FTRAN and changes no bit of the result."""
    lp = waste_lp(Variant.NO_STORAGE)
    res, fields = solve_fields(lp, caplog)
    assert fields["face_pivots"] == "0" and "face" not in fields
    _without_least_prices(monkeypatch)
    assert_bitwise_equal(res, solve(lp))


def test_least_prices_move_only_the_duals(caplog, monkeypatch):
    """Where the face LP pivots, x, the objective and the primal loop stay;
    y and the reduced costs are those of the new basis, a smaller price sum,
    and each column that left the basis rests where x has it."""
    lp = waste_lp(Variant.TRIPLE_WASTE)
    res, fields = solve_fields(lp, caplog)
    face = int(fields["face_pivots"])
    assert face > 0
    _without_least_prices(monkeypatch)
    ref = solve(lp)
    assert res.x.tobytes() == ref.x.tobytes() and res.objective == ref.objective
    assert res.iterations == ref.iterations + face
    assert res.y.sum() < ref.y.sum() - 1e-6
    assert verify_kkt(lp, res).passed and verify_kkt(lp, ref).passed
    status = res.basis[: lp.n_cols]
    assert np.array_equal(res.x[status == _AT_UPPER], lp.upper[status == _AT_UPPER])
    assert (res.x[status == _AT_LOWER] == 0.0).all()
    # the basis is optimal: a warm solve from it takes no pivot
    again, again_fields = solve_fields(lp, caplog, start=res.basis)
    assert again_fields["warm"] == "1" and again.iterations == 0


def test_a_face_step_cut_by_the_iteration_limit_keeps_the_solvers_prices(caplog, monkeypatch):
    lp = waste_lp(Variant.TRIPLE_WASTE)
    full, fields = solve_fields(lp, caplog)
    assert int(fields["face_pivots"]) >= 2
    k = full.iterations - 1  # the primal loop ends optimal, the face LP does not
    res, fields = solve_fields(lp, caplog, max_iterations=k)
    assert fields["face"] == "skipped"
    _without_least_prices(monkeypatch)
    ref = solve(lp)
    assert res.status is SolverStatus.OPTIMAL and res.iterations == k
    for name in ("x", "y", "reduced_costs", "basis"):
        assert getattr(res, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("skipped", [True, False], ids=["skipped", "pivoting"])
def test_the_face_step_leaves_the_solvers_state_alone(skipped, caplog, monkeypatch):
    """The face LP of `random_instance(2)` pivots once, then finds a price
    with no least value: the solver's state is as it was.  `triple`'s
    pivots to its optimum, whose status and basis the solver takes; its
    bounds, right side and values stay."""
    lp = assemble_primal(random_instance(2))[0] if skipped else waste_lp(Variant.TRIPLE_WASTE)
    names = ("lo", "hi", "b", "x") + (("status", "basis") if skipped else ())
    step, seen = _Simplex._least_prices, []

    def spy(sx, y, d):
        before = {name: getattr(sx, name).copy() for name in names}
        prices = step(sx, y, d)
        seen.append((before, {name: getattr(sx, name) for name in names}))
        return prices

    monkeypatch.setattr(_Simplex, "_least_prices", spy)
    _, fields = solve_fields(lp, caplog)
    assert int(fields["face_pivots"]) > 0 and ("face" in fields) == skipped
    [(before, after)] = seen
    for name in names:
        assert before[name].dtype == after[name].dtype, name
        assert before[name].tobytes() == after[name].tobytes(), name


# FTRAN/BTRAN through the sparse factor and its etas against a dense solve
# on the explicitly column-replaced basis, norm-wise
FACTOR_REL_TOL = 1e-10


def final_basis(lp):
    sx = _Simplex(lp)
    sx.run()
    return sx.W[:, sx.basis], sx.W[:, np.setdiff1d(np.arange(sx.W.shape[1]), sx.basis)]


def random_sparse_basis(m, seed):
    """Column-permuted unit-diagonal matrix with about one small off-diagonal
    entry per column; entering columns are random sparse vectors."""
    rng = np.random.default_rng(seed)
    off = sp.random(m, m, density=1.0 / m, random_state=rng, format="csc")
    off.data = rng.uniform(-0.5, 0.5, off.nnz)
    off.setdiag(0.0)
    diag = sp.diags(rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 2.0, m))
    B = (diag + off).tocsc()[:, rng.permutation(m)]
    entering = sp.random(m, 4 * REFACTOR_EVERY, density=3.0 / m, random_state=rng, format="csc")
    return B, entering


@pytest.mark.parametrize(
    "case",
    ["random_instance", "waste_case", "random_sparse"],
)
def test_eta_factor_matches_dense_solve(case):
    if case == "random_instance":
        B, entering = final_basis(assemble_primal(random_instance(13))[0])
    elif case == "waste_case":
        B, entering = final_basis(waste_lp())
    else:
        B, entering = random_sparse_basis(300, seed=3)
    m = B.shape[0]
    rng = np.random.default_rng(0)
    factor = _EtaLU(sp.csc_matrix(B))
    dense = B.toarray()
    for q in rng.choice(entering.shape[1], REFACTOR_EVERY - 1):
        a = entering[:, [q]].toarray().ravel()
        w = factor.solve(a)
        r = int(np.argmax(np.abs(w)))
        if abs(w[r]) <= 1e-6:
            continue  # a column in the span of few basis columns; not a pivot
        factor.update(w, r)
        dense[:, r] = a
    assert len(factor.etas) >= REFACTOR_EVERY // 2
    for _ in range(3):
        v = rng.standard_normal(m)
        ref = np.linalg.solve(dense, v)
        got = factor.solve(v)
        assert np.linalg.norm(got - ref) <= FACTOR_REL_TOL * np.linalg.norm(ref)
        # the sparse etas add exactly what the dense eta columns add
        x = factor.lu.solve(v)
        for r, eta, _, _ in factor.etas:
            xr = x[r]
            if xr != 0.0:
                x += eta * xr
        assert np.array_equal(got, x)
        ref_t = np.linalg.solve(dense.T, v)
        got_t = factor.solve_t(v)
        assert np.linalg.norm(got_t - ref_t) <= FACTOR_REL_TOL * np.linalg.norm(ref_t)


def dense_move(x, lo, hi, basis, q, sigma, w):
    """The ratio test and basic update as dense vector operations over all m
    basis positions, as the solver computed them before it worked over the
    nonzeros of w: the reference for `_Simplex._move` and, on a bound flip,
    for `_Simplex._flip_stack`.  Returns the leaving basis position (-1 for a
    flip), the step and, for a flip, the ratio test's minimum (0.0 for a
    pivot)."""
    x = x.copy()
    m = len(basis)
    sw = sigma * w
    xB, loB, hiB = x[basis], lo[basis], hi[basis]
    ratios = np.full(m, np.inf)
    pos = sw > PIVOT_TOLERANCE
    neg = sw < -PIVOT_TOLERANCE
    if pos.any():
        ratios[pos] = np.maximum(xB[pos] - loB[pos], 0.0) / sw[pos]
    if neg.any():
        ratios[neg] = np.maximum(hiB[neg] - xB[neg], 0.0) / (-sw[neg])
    rmin = float(ratios.min()) if m else np.inf
    own = hi[q] - x[q] if sigma > 0 else x[q] - lo[q]
    if rmin == np.inf and own == np.inf:
        return None, x, None
    if own < rmin:
        delta = own
        if m and delta > 0:
            x[basis] = xB - sigma * delta * w
        x[q] = hi[q] if sigma > 0 else lo[q]
        return (-1, delta, rmin), x, None
    window = rmin * (1.0 + 1e-12) + 1e-12
    cand = np.flatnonzero(ratios <= window)
    r_pos = int(cand[np.argmin(basis[cand])])
    delta = max(float(ratios[r_pos]), 0.0)
    leaving = int(basis[r_pos])
    x[basis] = xB - sigma * delta * w
    x[leaving] = lo[leaving] if sw[r_pos] > 0 else hi[leaving]
    x[q] = x[q] + sigma * delta
    return (r_pos, delta, 0.0), x, bool(sw[r_pos] > 0)


_TOL_UP = float(np.nextafter(PIVOT_TOLERANCE, 1.0))
_TOL_DOWN = float(np.nextafter(PIVOT_TOLERANCE, 0.0))
# pivot entries at, just inside and just outside the pivot tolerance, both
# zeros, and magnitudes whose ratios tie exactly or inside the 1e-12 window
_W = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-12]
_W += [t * sign for t in (PIVOT_TOLERANCE, _TOL_UP, _TOL_DOWN) for sign in (1.0, -1.0)]
_X = [0.0, -0.0, 1e-12, 2e-12, 0.5, 1.0, 1.0 + 1e-12, 1.0 + 3e-12, 2.0, -1.0]
_LO = [0.0, -0.0, -np.inf]
_HI = [0.0, 1.0, 2.0, 1.0 + 1e-12, np.inf]


def _values(pool):
    return hst.one_of(hst.sampled_from(pool), hst.floats(-4.0, 4.0))


@hst.composite
def moves(draw):
    """A basis of m positions over n + m columns, a direction w with a value
    for each position, and an entering column 0 moving in direction sigma."""
    m = draw(hst.integers(0, 8))
    n = draw(hst.integers(1, 3))
    N = n + m
    basis = np.array(draw(hst.permutations(range(1, N)))[:m], dtype=np.intp)
    w = np.array(draw(hst.lists(_values(_W), min_size=m, max_size=m)), dtype=float)
    x = np.array(draw(hst.lists(_values(_X), min_size=N, max_size=N)), dtype=float)
    lo = np.array(draw(hst.lists(hst.sampled_from(_LO), min_size=N, max_size=N)))
    hi = np.array(draw(hst.lists(hst.sampled_from(_HI), min_size=N, max_size=N)))
    sigma = draw(hst.sampled_from([1.0, -1.0]))
    # the entering column sits at the bound it moves away from
    lo[0] = draw(hst.sampled_from([0.0, -0.0]))
    x[0] = lo[0] if sigma > 0 or hi[0] == np.inf else hi[0]
    return basis, w, x, lo, hi, sigma


def _window_edge(rmin):
    """Basis positions 0 and 1 hold columns 3 and 1: column 3 blocks at
    rmin, column 1 exactly at the edge of the tie window, so the window
    alone decides that column 1 leaves."""
    edge = rmin * (1.0 + 1e-12) + 1e-12
    x = np.array([0.0, edge, 0.0, rmin])
    return np.array([3, 1]), np.array([1.0, 1.0]), x, np.zeros(4), np.full(4, np.inf), 1.0


@settings(max_examples=400, deadline=None)
@given(moves())
@example(_window_edge(0.0))
@example(_window_edge(1.0))
def test_sparse_move_matches_dense_reference(case):
    basis, w, x, lo, hi, sigma = case
    m, n = len(basis), len(x) - len(basis)
    lp = make_lp(np.zeros(n), np.zeros((m, n)), np.zeros(m), np.zeros(n), np.ones(n))
    sx = _Simplex(lp)
    sx.x, sx.lo, sx.hi, sx.basis = x.copy(), lo, hi, basis.copy()
    sx.status[:] = _AT_LOWER
    sx.status[basis] = _BASIC
    ref, ref_x, to_lower = dense_move(x, lo, hi, basis, 0, sigma, w)
    got = sx._move(0, sigma, w)
    if ref is None:
        assert got is None
        return
    (r_pos, step), (ref_r, ref_delta, ref_slack) = got, ref
    assert r_pos == ref_r
    if r_pos < 0:
        # a flip: `_move` writes nothing, and `_flip_stack` flips column 0 alone
        assert np.float64(step).tobytes() == np.float64(ref_slack).tobytes()
        assert sx.x.tobytes() == x.tobytes()
        assert sx._flip_stack(0, sigma, w, step, True, None, None, None).tolist() == [0]
        assert sx.iterations == sx.flips == 1 and sx.batched == 0
    else:
        assert np.float64(step).tobytes() == np.float64(ref_delta).tobytes()
    assert np.array_equal(sx.x, ref_x)
    # bits differ at most in the sign of a zero x_B where w is zero: the dense
    # update subtracts a signed zero there, which turns -0.0 into 0.0
    differ = sx.x.view(np.uint64) != ref_x.view(np.uint64)
    skipped = np.zeros(len(x), dtype=bool)
    skipped[basis[w == 0.0]] = True
    assert not (differ & ~(skipped & (ref_x == 0.0))).any()
    if r_pos < 0:
        assert sx.status[0] == (_AT_UPPER if sigma > 0 else _AT_LOWER)
    else:
        leaving = basis[r_pos]
        assert sx.basis[r_pos] == 0 and sx.status[0] == _BASIC
        assert sx.status[leaving] == (_AT_LOWER if to_lower else _AT_UPPER)


def solve_fields(lp, caplog, start=None, max_iterations=None):
    """Solve `lp`; return the result and the fields of its `solve:` log line."""
    with caplog.at_level(logging.DEBUG, logger="stclear.simplex"):
        caplog.clear()
        res = solve(lp, start, max_iterations=max_iterations)
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
    return res, dict(item.split("=", 1) for item in line.split()[1:])


def _solve_logged(lp, caplog, monkeypatch, start=None):
    """Solve `lp`; return the result, the fields of its `solve:` log line and
    the eta-file rows, one per basis change."""
    updates = []
    update = _EtaLU.update
    monkeypatch.setattr(_EtaLU, "update", lambda f, w, r: updates.append(r) or update(f, w, r))
    solved = []  # FTRANs
    ftran = _EtaLU.solve
    monkeypatch.setattr(_EtaLU, "solve", lambda f, v: solved.append(1) or ftran(f, v))
    res, fields = solve_fields(lp, caplog, start)
    # one FTRAN per iteration, but a batched flip reuses the w of its stack
    assert 0 < int(fields["w_nnz"]) <= res.iterations * lp.n_rows
    assert res.iterations == len(solved) + int(fields["batched"])
    return res, fields, updates


def test_solve_log_reports_refactors_and_fill(caplog, monkeypatch):
    lp = waste_lp()
    res, fields, updates = _solve_logged(lp, caplog, monkeypatch)
    # every iteration is a bound flip or a basis change
    assert int(fields["iters"]) == res.iterations == int(fields["flips"]) + len(updates)
    assert int(fields["dual_pivots"]) == 0  # a cold solve
    assert int(fields["crash"]) == lp.n_rows  # the crash covers every row
    assert fields["face_pivots"] == "0"  # the optimal basis gives the least prices
    assert int(fields["flips"]) > len(updates)
    # phase 2 prices on entry and after each basis change, never after a flip
    assert int(fields["pricings"]) == 1 + len(updates)
    # bound flips leave the basis alone, so only basis changes fill the eta
    # file; the crash basis's and the final factorization come on top
    assert int(fields["refactors"]) == 2 + len(updates) // REFACTOR_EVERY
    assert len(updates) // REFACTOR_EVERY >= 2
    assert int(fields["lu_nnz"]) >= lp.n_rows  # at least the diagonal of U
    # a clearing column has about two nonzeros, and so, mostly, has w
    assert int(fields["w_nnz"]) * 10 < res.iterations * lp.n_rows
    # most flips are of supplier bids that share their a_q with a flip before
    assert int(fields["flips"]) > int(fields["batched"]) > 0


def test_solve_log_counts_pricing_in_both_phases(caplog, monkeypatch):
    lp = explicit_dual(random_instance(1))
    assert np.abs(lp.b).max() > 0  # so phase 1 runs
    res, fields, updates = _solve_logged(lp, caplog, monkeypatch)
    assert res.status is SolverStatus.OPTIMAL
    assert int(fields["iters"]) == res.iterations == int(fields["flips"]) + len(updates)
    assert int(fields["dual_pivots"]) == 0  # a cold solve
    assert fields["crash"] == fields["face_pivots"] == "0"  # phase 1 starts from artificials
    # each phase prices once on entry; the eta file carries over between them
    assert int(fields["pricings"]) == 2 + len(updates)
    assert int(fields["refactors"]) == 2 + len(updates) // REFACTOR_EVERY


def _byte_keys(W):
    """Each column's key in the reference grouping: the bytes of its CSC
    indices and values."""
    cols = zip(W.indptr[:-1].tolist(), W.indptr[1:].tolist())
    return [W.indices[a:b].tobytes() + W.data[a:b].tobytes() for a, b in cols]


def assert_stacks_are_byte_groups(sx):
    keys = _byte_keys(sx.W)
    N = len(keys)
    stack, order, start = sx.stack, sx.stack_order, sx.stack_start
    assert sorted(order.tolist()) == list(range(N)) and start[0] == 0 and start[-1] == N
    assert len(set(keys)) == len(start) - 1
    for s in range(len(start) - 1):
        members = order[start[s]:start[s + 1]]
        assert (stack[members] == s).all() and (np.diff(members) > 0).all()
        assert {keys[j] for j in members.tolist()} == {keys[members[0]]}


def odd_columns_lp():
    """Columns that repeat, one that is a repeat only after its duplicate
    entries are summed, an explicit zero, a -0.0 entry (a stack apart from
    the explicit zero) and empty columns."""
    entries = [  # (row, column, value)
        (0, 0, 1.0), (0, 1, 1.0), (0, 2, 0.5), (0, 2, 0.5),
        (0, 3, 1.0), (1, 3, 0.0), (0, 4, 1.0), (1, 4, 0.0),
        (0, 5, 1.0), (1, 5, -0.0), (0, 6, 1.0), (1, 6, -0.0),
        (1, 9, -1.0), (1, 10, -1.0),
    ]
    rows, cols, vals = map(np.array, zip(*entries))
    A = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(2, 11)))
    assert A.nnz == len(entries) - 1  # only the duplicate is merged
    n = A.shape[1]
    c = np.array([3.0, 2.0, 1.0, 4.0, 2.5, 1.5, 0.5, 1.0, -1.0, 5.0, 6.0])
    return LinearProgram(
        sense="max", c=c, A=A, b=np.zeros(2), lower=np.zeros(n), upper=np.full(n, 2.0),
    )


def test_stacks_group_the_columns_with_equal_bytes():
    sx = _Simplex(odd_columns_lp())
    signs = np.signbit(sx.W.data)
    assert ((sx.W.data == 0.0) & signs).any() and ((sx.W.data == 0.0) & ~signs).any()
    assert_stacks_are_byte_groups(sx)
    same = lambda *cols: len(set(sx.stack[list(cols)].tolist())) == 1
    assert same(0, 1, 2) and same(3, 4) and same(5, 6) and same(7, 8) and same(9, 10)
    assert not same(0, 3) and not same(3, 5)
    res = solve(odd_columns_lp())
    assert res.status is SolverStatus.OPTIMAL and verify_kkt(odd_columns_lp(), res).passed
    for params in (CaseParams(3, 2, 6, 1, Variant.TRIPLE_WASTE), CaseParams(4, 2, 12, 7, Variant.BASE)):
        lp, index = assemble_primal(generate_waste_case(params))
        for each in (lp, assemble_dual(generate_waste_case(params), index)):
            assert_stacks_are_byte_groups(_Simplex(each))
    for seed in range(20):
        assert_stacks_are_byte_groups(_Simplex(medium_random_lp(seed)))


_STEPS = [0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0, 1.5]


@hst.composite
def stack_flips(draw):
    """A stack of k parallel columns at their lower bounds, each with an
    upper bound (its step) and a reduced cost, over m basic artificials
    with values above their zero lower bounds, and a w >= 0, so that each
    blocking ratio is the basic value over a power of two: single flips and
    the batch's running slack then round alike."""
    k = draw(hst.integers(2, 6))
    m = draw(hst.integers(1, 4))
    steps = draw(hst.lists(hst.sampled_from(_STEPS), min_size=k, max_size=k))
    xb = draw(hst.lists(hst.sampled_from([0.0] + _STEPS + [2.0, 3.1]), min_size=m, max_size=m))
    w = draw(hst.lists(hst.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=m, max_size=m))
    d = draw(hst.lists(hst.sampled_from([-1.0, -2.0, -3.0]), min_size=k, max_size=k))
    return np.array(steps), np.array(xb), np.array(w), np.array(d)


def _stack_state(steps, xb, d):
    k, m = len(steps), len(xb)
    lp = make_lp(np.zeros(k), np.ones((m, k)), np.zeros(m), np.zeros(k), steps)
    sx = _Simplex(lp)
    sx.basis = np.arange(k, k + m)  # the artificials, at the values xb
    sx.status[:k], sx.status[k:] = _AT_LOWER, _BASIC
    sx.x[k:], sx.hi[k:] = xb, np.inf
    return sx, _eligibility(np.concatenate([d, np.zeros(m)]), sx.status)


@settings(max_examples=300, deadline=None)
@given(stack_flips())
def test_a_batch_is_the_single_flips_it_replaces(case):
    steps, xb, w, d = case
    sx, (can_up, eligible, viol) = _stack_state(steps, xb, d)
    assert len(set(sx.stack[: len(steps)].tolist())) == 1
    q = int(np.argmax(viol))
    r_pos, slack = sx._move(q, 1.0, w)
    assume(r_pos < 0)
    batch = sx._flip_stack(q, 1.0, w, slack, False, can_up, eligible, viol)
    # the reference: one dense flip after another, the most violating
    # first, up to the first that does not flip
    ref, _ = _stack_state(steps, xb, d)
    x, flipped = ref.x, []
    for j in np.argsort(-viol[: len(steps)], kind="stable").tolist():
        moved, after, _ = dense_move(x, ref.lo, ref.hi, ref.basis, j, 1.0, w)
        if moved is None or moved[0] >= 0:
            break
        x = after
        flipped.append(j)
    assert batch.tolist() == flipped
    assert sx.x.tobytes() == x.tobytes()
    assert sx.iterations == sx.flips == len(flipped) and sx.batched == len(flipped) - 1
    assert (sx.status[flipped] == _AT_UPPER).all()


def _singletons(W):
    """Every column a stack of its own, so that no flip is batched."""
    N = W.shape[1]
    return np.arange(N), np.arange(N), np.arange(N + 1)


BATCH_CASES = [
    CaseParams(farms, processors, horizon, seed, variant)
    for farms, processors, horizon in ((3, 2, 6), (4, 2, 12))
    for variant in Variant
    for seed in (1, 7)
]


@pytest.mark.parametrize("params", BATCH_CASES, ids=str)
def test_batched_flips_take_the_single_flip_path(params, caplog):
    instance = generate_waste_case(params)
    lp, _ = assemble_primal(instance)
    qss, _ = assemble_primal(restrict_to_qss(instance))
    runs = []
    for stacks in (None, _singletons):
        with pytest.MonkeyPatch.context() as mp:
            if stacks:
                mp.setattr(simplex_solver, "_stacks", stacks)
            cold, cold_fields = solve_fields(lp, caplog)
            warm, warm_fields = solve_fields(qss, caplog, start=cold.basis)
        runs.append([(cold, cold_fields), (warm, warm_fields)])
    for (res, fields), (ref, ref_fields) in zip(*runs):
        assert res.status is ref.status is SolverStatus.OPTIMAL
        for name in ("x", "y", "reduced_costs", "basis"):
            assert getattr(res, name).tobytes() == getattr(ref, name).tobytes(), name
        assert res.iterations == ref.iterations
        for name in ("iters", "flips", "pricings", "refactors", "dual_pivots", "warm"):
            assert fields[name] == ref_fields[name], name
        assert ref_fields["batched"] == "0"
    assert int(runs[0][0][1]["batched"]) > 0


def test_the_iteration_limit_cuts_a_batch(caplog):
    lp = waste_lp()
    batches = []  # (iterations counted before the entering column's flip, columns flipped)
    flip_stack = _Simplex._flip_stack

    def recorded(sx, *args):
        before = sx.iterations
        cols = flip_stack(sx, *args)
        batches.append((before, len(cols)))
        return cols

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Simplex, "_flip_stack", recorded)
        full, fields = solve_fields(lp, caplog)
    assert full.status is SolverStatus.OPTIMAL
    primal = full.iterations - int(fields["face_pivots"])  # the primal loop's iterations
    # the entering column's flip and at least three members after it
    before, size = next((b, k) for b, k in batches if k >= 4)
    for k in (0, 1, before, before + 1, before + 2, before + size - 1, before + size, primal - 1, primal):
        res = solve(lp, max_iterations=k)
        assert res.status is SolverStatus.ITERATION_LIMIT and res.iterations == k, k


def stacked_lp(seed):
    """A boxed random LP whose columns come in stacks: a few distinct
    sparse columns, each repeated with its own cost and upper bound."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    distinct = int(rng.integers(1, 7))
    values = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    shapes = np.where(rng.random((m, distinct)) < 0.4, rng.choice(values, (m, distinct)), 0.0)
    A = np.repeat(shapes, rng.integers(1, 6, distinct), axis=1)
    n = A.shape[1]
    upper = np.round(rng.uniform(0.0, 5.0, n), 2)
    b = np.zeros(m) if rng.random() < 0.5 else np.round(rng.uniform(-3.0, 3.0, m), 2)
    c = np.round(rng.uniform(-5.0, 5.0, n), 2)
    return make_lp(c, A, b, np.zeros(n), upper, sense="max" if rng.random() < 0.5 else "min")


def test_stacked_lps_batch_flips():
    batched = 0
    for seed in range(30):
        sx = _Simplex(stacked_lp(seed))
        sx.run()
        batched += sx.batched
    assert batched > 0


@settings(max_examples=200, deadline=None)
@given(hst.integers(0, 2**32 - 1))
def test_stacked_lps_solve_as_with_single_flips(seed):
    lp = stacked_lp(seed)
    res = solve(lp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_solver, "_stacks", _singletons)
        ref = solve(lp)
    assert res.status is ref.status
    if res.status is SolverStatus.OPTIMAL:
        assert verify_kkt(lp, res).passed and verify_kkt(lp, ref).passed
        assert abs(res.objective - ref.objective) <= 1e-9 * (1.0 + abs(ref.objective))


def test_blands_rule_flips_alone_and_solves_as_highs(monkeypatch):
    # no generated case stalls, so a stall of one degenerate pivot engages
    # Bland's rule here
    monkeypatch.setattr(simplex_solver, "STALL_THRESHOLD", 1)
    flips = []  # (Bland's rule picked the entering column, columns flipped)
    flip_stack = _Simplex._flip_stack

    def recorded(sx, *args):
        picked_by_bland = sx.bland
        cols = flip_stack(sx, *args)
        flips.append((picked_by_bland, len(cols)))
        return cols

    monkeypatch.setattr(_Simplex, "_flip_stack", recorded)
    statuses = {0: SolverStatus.OPTIMAL, 2: SolverStatus.INFEASIBLE, 3: SolverStatus.UNBOUNDED}
    for seed in range(300):
        lp = stacked_lp(seed)
        res, ref = solve(lp), highs(lp)
        assert res.status is statuses[ref.status], seed
        if res.status is SolverStatus.OPTIMAL:
            assert verify_kkt(lp, res).passed, seed
            assert abs(res.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun)), seed
    # Bland's rule picks by index, so a flip it picks is made alone
    assert all(size == 1 for picked_by_bland, size in flips if picked_by_bland)
    assert any(picked_by_bland for picked_by_bland, _ in flips)
    assert any(size > 1 for _, size in flips)


def test_phase_1_ray_is_singular_basis(monkeypatch):
    # phase 1 minimizes a sum of artificials, which is bounded below by 0: a
    # ray there means every pivot entry fell under PIVOT_TOLERANCE
    loop = _Simplex._loop
    monkeypatch.setattr(
        _Simplex, "_loop", lambda sx, c: SolverStatus.UNBOUNDED if c is sx.c1 else loop(sx, c)
    )
    res = solve(explicit_dual(random_instance(1)))
    assert res.status is SolverStatus.SINGULAR_BASIS
    assert np.isnan(res.objective)
    assert np.isnan(res.x).all() and np.isnan(res.y).all() and np.isnan(res.reduced_costs).all()


def test_singular_basis_is_a_status():
    # pivots above the absolute pivot tolerance leave this basis exactly
    # singular at a refactorization (HiGHS finds the optimum 0)
    res = solve(scaled_lp(471))
    assert res.status is SolverStatus.SINGULAR_BASIS
    assert np.isnan(res.objective)
    assert np.isnan(res.x).all() and np.isnan(res.y).all() and np.isnan(res.reduced_costs).all()
    for seed in range(460, 500):
        assert isinstance(solve(scaled_lp(seed)).status, SolverStatus), seed


def test_dual_lp_strong_duality_on_random_instances():
    for seed in range(25):
        inst = random_instance(seed)
        lp, index = assemble_primal(inst)
        primal = solve(lp)
        dual_lp = assemble_dual(inst, index)
        dual = solve(dual_lp)
        assert primal.status is SolverStatus.OPTIMAL, f"seed {seed}"
        assert dual.status is SolverStatus.OPTIMAL, f"seed {seed}"
        scale = 1.0 + abs(primal.objective)
        assert abs(primal.objective - dual.objective) <= 1e-7 * scale, f"seed {seed}"
        # the audit's certificate reaches the solved dual optimum without a solve
        certified = float(dual_lp.c @ explicit_dual_point(lp, primal.y))
        dual_scale = 1.0 + abs(dual.objective)
        assert abs(certified - dual.objective) <= 1e-7 * dual_scale, f"seed {seed}"
        solution = ClearingSolution(lp, index, primal, primal.objective)
        assert audit_competitive_equilibrium(inst, solution).passed, f"seed {seed}"


# ---------------------------------------------------------------------------
# warm start: the quasi-steady-state (QSS) restriction solved from the
# space-time market's optimal basis


def qss_pair(instance):
    """The space-time market's optimum and its QSS restriction's LP."""
    lp, _ = assemble_primal(instance)
    return solve(lp), assemble_primal(restrict_to_qss(instance))[0]


def assert_same_optimum(lp, cold, warm, case):
    assert warm.status is cold.status, case
    if cold.status is SolverStatus.OPTIMAL:
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective)), case
        assert verify_kkt(lp, warm).passed, case


WARM_CASES = [
    CaseParams(farms, processors, horizon, seed, variant)
    for farms, processors, horizon in ((3, 2, 6), (4, 2, 12))
    for variant in Variant
    for seed in (1, 7)
] + [CaseParams(8, 4, 24, 7, Variant.BASE)]


def qss_starts(instance, st, tmp_path):
    """The space-time basis, and the one `load_solution` rebuilds from the
    space-time optimum written to files."""
    solution = ClearingSolution(*assemble_primal(instance), st, st.objective)
    cli_io.write_solution(tmp_path, instance, solution, settle(solution))
    return {"st": st.basis, "loaded": cli_io.load_solution(tmp_path, instance).result.basis}


def assert_same_prices(warm, cold, case):
    assert np.all(np.abs(warm.y - cold.y) <= REL_TOL * (1.0 + np.abs(cold.y))), case


def test_warm_qss_matches_cold_on_generated_cases(tmp_path, caplog):
    for params in WARM_CASES:
        instance = generate_waste_case(params)
        st, qss = qss_pair(instance)
        cold = solve(qss)
        for name, start in qss_starts(instance, st, tmp_path).items():
            warm, fields = solve_fields(qss, caplog, start)
            assert fields["warm"] == "1", (params, name)
            assert_same_optimum(qss, cold, warm, (params, name))
            assert_same_prices(warm, cold, (params, name))  # both the least
            assert 3 * warm.iterations <= cold.iterations, (params, name)


@pytest.mark.parametrize(
    "params",
    [
        CaseParams(farms, processors, horizon, seed, variant)
        for farms, processors, horizon in ((3, 2, 6), (4, 2, 12), (8, 4, 24))
        for variant in Variant
        for seed in (1, 7)
    ],
    ids=lambda p: f"{p.variant.value}-{p.farms}x{p.processors}x{p.horizon}-s{p.seed}",
)
def test_warm_qss_matches_its_time_blocks_solved_cold(params):
    """The QSS LP closes every cross-time column, so it splits into one
    block per time index.  Each block solved cold, with no warm-start code
    in common, gives the warm solve's objective and, the least prices being
    unique, its prices whatever the pivot path."""
    qss = clear_qss(clear(generate_waste_case(params)))
    lp, warm = qss.lp, qss.result
    assert warm.status is SolverStatus.OPTIMAL
    shut = lp.upper == 0.0
    assert np.all(warm.x[shut] == 0.0)
    row_time = np.array([t for _, t, _ in qss.index.rows])
    A = lp.A.tocsc()
    col_time = np.full(lp.n_cols, -1)
    for j in np.flatnonzero(~shut).tolist():
        times = set(row_time[A.indices[A.indptr[j]:A.indptr[j + 1]]].tolist())
        assert len(times) == 1, qss.index.cols[j]
        col_time[j] = times.pop()
    x, y = np.zeros(lp.n_cols), np.zeros(lp.n_rows)
    for t in np.unique(row_time).tolist():
        rows, cols = np.flatnonzero(row_time == t), np.flatnonzero(col_time == t)
        block = LinearProgram(
            lp.sense, lp.c[cols], lp.A[rows][:, cols], lp.b[rows], lp.lower[cols], lp.upper[cols]
        )
        cold = solve(block)
        assert cold.status is SolverStatus.OPTIMAL, t
        x[cols], y[rows] = cold.x, cold.y
    assert abs(total(lp.c * x) - warm.objective) <= 1e-12 * (1.0 + abs(warm.objective))
    assert np.all(np.abs(y - warm.y) <= 1e-12 * (1.0 + np.abs(warm.y)))


def test_warm_qss_matches_cold_on_random_instances(tmp_path, caplog):
    cold_iterations = 0
    warm_iterations = {"st": 0, "loaded": 0}
    for seed in range(40):
        instance = random_instance(seed)
        st, qss = qss_pair(instance)
        cold, cold_fields = solve_fields(qss, caplog)
        cold_iterations += cold.iterations
        for name, start in qss_starts(instance, st, tmp_path).items():
            warm, fields = solve_fields(qss, caplog, start)
            assert fields["warm"] == "1", (seed, name)
            assert_same_optimum(qss, cold, warm, (seed, name))
            # a skipped least-price step leaves each solve its own prices
            assert ("face" in fields) == ("face" in cold_fields), (seed, name)
            if "face" not in fields:
                assert_same_prices(warm, cold, (seed, name))
            warm_iterations[name] += warm.iterations
    assert 3 * max(warm_iterations.values()) <= cold_iterations


@settings(max_examples=200, deadline=None)
@given(hst.integers(0, 2**32 - 1))
def test_triangular_crash_takes_the_least_priority_first(seed):
    """Each column taken is, of the columns with exactly one nonzero in the
    rows not yet covered, the one of least priority, and covers that row;
    the crash stops when no such column is left."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 8)), int(rng.integers(1, 16))
    W = sp.random(m, n, density=0.3, random_state=rng, format="csc")
    W.data = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], W.nnz)
    priority = rng.permutation(n)
    taken, covered = _triangular(W, priority)
    nonzero = W.toarray() != 0.0
    done = np.zeros(m, dtype=bool)
    for k in taken.tolist():
        eligible = np.flatnonzero(nonzero[~done].sum(axis=0) == 1)
        assert priority[k] == priority[eligible].min()
        [r] = np.flatnonzero(nonzero[:, k] & ~done)
        done[r] = True
    assert np.array_equal(covered, done)
    assert not (nonzero[~done].sum(axis=0) == 1).any()


def test_cold_start_is_the_crash_basis():
    """A cold solve with b = 0 starts from the crash basis, which is
    triangular and so factors; the rows it leaves keep their artificials."""
    for seed in range(40):
        lp = medium_random_lp(seed)
        if lp.b.any():
            continue
        sx = _Simplex(lp)
        sx._crash()
        basic = sx.status == _BASIC
        assert np.count_nonzero(basic) == lp.n_rows and np.array_equal(sx.basis, np.flatnonzero(basic))
        assert np.count_nonzero(basic[: lp.n_cols]) == sx.crashed
        assert (lp.lower[basic[: lp.n_cols]] != lp.upper[basic[: lp.n_cols]]).all()
        sx._refactor()  # nonsingular
        assert np.abs(sx.x).max(initial=0.0) == 0.0  # and feasible at x = 0


def test_start_rebuilt_from_a_point_keeps_the_optimum():
    """`basis_from_point` on the optimal pair of any LP, free columns, a
    nonzero b and no rows included, gives a start that solves to the cold
    optimum, warm or after a cold fallback."""
    lps = [random_lp(seed) for seed in range(40)] + [medium_random_lp(seed) for seed in range(40)]
    lps += [explicit_dual(random_instance(seed)) for seed in range(5)]
    assert any(lp.n_rows == 0 for lp in lps) and any(np.isneginf(lp.lower).any() for lp in lps)
    for i, lp in enumerate(lps):
        cold = solve(lp)
        if cold.status is not SolverStatus.OPTIMAL:
            continue
        start = basis_from_point(lp, cold.x, cold.y)
        assert start.dtype == np.int8 and start.shape == (lp.n_cols + lp.n_rows,), i
        assert np.count_nonzero(start == _BASIC) == lp.n_rows, i
        assert_same_optimum(lp, cold, solve(lp, start=start), i)


def tightened(lp, seed):
    """`lp` with about a third of its upper bounds cut to 0, 1/4, 1/2 or 9/10
    of their value; an infinite upper bound is first replaced by a draw from
    [0, 8)."""
    rng = np.random.default_rng(seed)
    upper = np.where(np.isfinite(lp.upper), lp.upper, rng.uniform(0.0, 8.0, lp.n_cols))
    upper = upper * rng.choice([0.0, 0.25, 0.5, 0.9], lp.n_cols)
    cut = rng.random(lp.n_cols) < 1 / 3
    return dataclasses.replace(lp, upper=np.where(cut, upper, lp.upper))


@settings(max_examples=150, deadline=None)
@given(hst.integers(0, 9_999), hst.integers(0, 2**32 - 1))
@example(0, 0)  # dual pivots, then optimal
@example(4, 4)  # dual pivots, then infeasible
def test_warm_start_after_tightening_matches_cold(seed, cut):
    lp = medium_random_lp(seed)
    base = solve(lp)
    assume(base.status is SolverStatus.OPTIMAL)
    lp = tightened(lp, cut)
    assert_same_optimum(lp, solve(lp), solve(lp, start=base.basis), (seed, cut))


def test_cold_solve_of_tightened_seed_1321_is_optimal():
    # a well-scaled 23x29 LP that HiGHS solves, found by Hypothesis above;
    # from the all-artificial start the cold solve accepted a pivot of
    # 1.87e-9 against |w|inf = 11.8 and ended singular_basis
    lp = tightened(medium_random_lp(1321), 1321)
    ref = highs(lp)
    assert ref.status == 0
    res = solve(lp)
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the cold solve reports optimal with objective -15.53 "
    "at an x with a primal residual of 8.76 and a bound violation of 2.51",
)
def test_cold_solve_of_tightened_seed_134_is_optimal():
    # a well-scaled 25x48 LP with b = 0, found by Hypothesis above; HiGHS and
    # the warm solve from the untightened optimum both find the optimum 0
    lp = tightened(medium_random_lp(134), 525)
    ref = highs(lp)
    assert ref.status == 0
    res = solve(lp)
    assert res.status is SolverStatus.OPTIMAL and verify_kkt(lp, res).passed
    assert abs(res.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: from the crash start the cold solve reports optimal "
    "with objective -21.89 at an x with a bound violation of 0.43",
)
def test_cold_solve_of_tightened_seed_739_is_optimal():
    # a well-scaled 19x57 LP with b = 0, found by a sweep over the b = 0
    # seeds of `medium_random_lp`; HiGHS finds the optimum -21.40, and so
    # did the cold solve from the all-artificial start
    lp = tightened(medium_random_lp(739), 739)
    ref = highs(lp)
    assert ref.status == 0
    res = solve(lp)
    assert res.status is SolverStatus.OPTIMAL and verify_kkt(lp, res).passed
    assert abs(res.objective - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))


def assert_twh_solves_as_mwh(params):
    # a generated case with electricity restated in TWh: the same market,
    # so the same surplus and a certified optimum
    doc = cli_io.instance_to_dict(generate_waste_case(params))
    mwh, _ = assemble_primal(cli_io.instance_from_dict(doc))
    twh, _ = assemble_primal(cli_io.instance_from_dict(restated(doc, "electricity", 1e-6)))
    ref, res = solve(mwh), solve(twh)
    assert ref.status is res.status is SolverStatus.OPTIMAL
    assert abs(res.objective - ref.objective) <= REL_TOL * (1.0 + abs(ref.objective))
    assert verify_kkt(twh, res).passed


def test_least_prices_of_the_triple_case_in_twh_pass_kkt():
    # basic electricity transporters sit 2.7e-9 below their capacity of
    # 2.69e-6: an activity within 1e-8 of the bound, yet not at it, so the
    # least-price step must keep their reduced costs at zero
    assert_twh_solves_as_mwh(CaseParams(8, 4, 24, 7, Variant.TRIPLE_WASTE))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the cold solve reports optimal with "
    "tra_store_farm001_t024 at x = -4.2536, a bound violation of 4.25",
)
def test_unlimited_3_day_case_in_twh_is_certified():
    assert_twh_solves_as_mwh(CaseParams(8, 4, 72, 7, Variant.UNLIMITED_STORAGE))


def test_dual_simplex_keeps_dual_feasibility():
    """Tightened upper bounds leave an optimal basis dual feasible, and every
    dual pivot keeps it so: a fresh pricing after the dual loop finds no
    entering column."""
    pivots = 0
    for seed in range(60):
        lp = medium_random_lp(seed)
        start = solve(lp).basis
        if start is None:
            continue
        sx = _Simplex(tightened(lp, seed))
        assert sx.restart(start), seed
        if sx._dual_loop() is None:
            _, d = sx._duals(sx.c2)
            assert not _eligibility(d, sx.status)[1].any(), seed
        pivots += sx.dual_pivots
    assert pivots > 100


def test_warm_start_detects_infeasibility():
    lp = medium_random_lp(4)
    start = solve(lp).basis
    lp = tightened(lp, 4)
    sx = _Simplex(lp)
    assert sx.restart(start)  # the dual simplex, not the cold path, finds it
    assert sx.run()[0] is SolverStatus.INFEASIBLE and sx.dual_pivots > 0
    res = solve(lp, start=start)
    assert res.status is SolverStatus.INFEASIBLE and res.basis is None
    assert np.isnan(res.x).all() and np.isnan(res.y).all()


def assert_bitwise_equal(a, b):
    assert (a.status, a.iterations, np.float64(a.objective).hex()) == (
        b.status, b.iterations, np.float64(b.objective).hex()
    )
    for name in ("x", "y", "reduced_costs"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.basis is None and b.basis is None) or a.basis.tobytes() == b.basis.tobytes()


def test_unusable_start_solves_cold(caplog):
    """A start that is not dual feasible (an optimal basis for other costs)
    or is singular gives the cold result bit for bit."""
    starts = []
    for lp in [waste_lp(), *(medium_random_lp(seed) for seed in range(10))]:
        other = solve(dataclasses.replace(lp, c=-lp.c))
        if other.status is SolverStatus.OPTIMAL:
            starts.append((lp, other.basis))
    assert len(starts) >= 5
    # two equal columns cannot both be basic
    twins = make_lp([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
    starts.append((twins, np.array([_BASIC, _BASIC, _AT_LOWER, _AT_LOWER], dtype=np.int8)))
    for lp, start in starts:
        assert not _Simplex(lp).restart(start)
        with caplog.at_level(logging.DEBUG, logger="stclear.simplex"):
            caplog.clear()
            cold = solve(lp)
            warm = solve(lp, start=start)
        assert_bitwise_equal(warm, cold)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
        assert len(lines) == 2 and lines[0] == lines[1]


@pytest.mark.parametrize("failure", ["infeasible", "singular"])
def test_failed_warm_start_is_confirmed_cold(caplog, monkeypatch, failure):
    """A warm solve that ends infeasible or singular is solved again cold,
    and the cold result is reported bit for bit."""
    st, qss = qss_pair(generate_waste_case(CaseParams(4, 2, 12, 7, Variant.BASE)))
    cold, cold_fields = solve_fields(qss, caplog)

    dual_loop = _Simplex._dual_loop

    def failed(sx):
        if not sx.warm:  # the least-price step of the cold solve
            return dual_loop(sx)
        if failure == "singular":
            raise _SingularBasis("Factor is exactly singular")
        return SolverStatus.INFEASIBLE

    monkeypatch.setattr(_Simplex, "_dual_loop", failed)
    warm, warm_fields = solve_fields(qss, caplog, st.basis)
    assert_bitwise_equal(warm, cold)
    assert warm_fields == cold_fields and warm_fields["warm"] == "0"


def test_wrong_warm_infeasibility_is_corrected_cold():
    """With some upper bounds of `scaled_lp(273)` cut, the dual simplex
    stops `infeasible` for want of a pivot above the absolute tolerance; the
    cold solve finds the verified optimum, and `solve` reports that."""
    lp = scaled_lp(273)
    start = solve(lp).basis
    rng = np.random.default_rng(1_000_273)
    cut = rng.random(lp.n_cols) < 0.3
    factor = rng.choice([0.0, 0.25, 0.5], lp.n_cols)
    lp = dataclasses.replace(lp, upper=lp.upper * np.where(cut, factor, 1.0))
    sx = _Simplex(lp)
    assert sx.restart(start) and sx.run()[0] is SolverStatus.INFEASIBLE
    res = solve(lp, start=start)
    assert_bitwise_equal(res, solve(lp))
    assert res.status is SolverStatus.OPTIMAL and verify_kkt(lp, res).passed


def test_start_must_fit_the_lp():
    lp = waste_lp()
    basis = solve(lp).basis
    with pytest.raises(ValueError, match="start basis"):
        solve(lp, start=basis[:-1])
    bad = basis.copy()
    bad[np.flatnonzero(bad != _BASIC)[0]] = _BASIC  # one basic column too many
    with pytest.raises(ValueError, match="start basis"):
        solve(lp, start=bad)


def test_basis_only_on_optimal_results():
    lp = waste_lp()
    res = solve(lp)
    assert res.basis.dtype == np.int8 and res.basis.shape == (lp.n_cols + lp.n_rows,)
    assert np.count_nonzero(res.basis == _BASIC) == lp.n_rows
    assert solve(lp, max_iterations=3).basis is None
    assert solve(make_lp([1.0], [[1.0]], [-1.0], [0.0], [1.0])).basis is None


def test_dual_pivots_count_against_the_iteration_limit():
    st, qss = qss_pair(generate_waste_case(CaseParams(4, 2, 12, 7, Variant.BASE)))
    assert solve(qss, start=st.basis).iterations == 10  # all of them dual pivots
    res = solve(qss, max_iterations=4, start=st.basis)
    assert res.status is SolverStatus.ITERATION_LIMIT
    assert res.iterations == 4 and res.basis is None


def test_warm_solve_log_accounts_for_every_iteration(caplog, monkeypatch):
    st, qss = qss_pair(generate_waste_case(CaseParams(8, 4, 24, 7, Variant.BASE)))
    moves = []
    move = _Simplex._move
    monkeypatch.setattr(
        _Simplex, "_move", lambda sx, q, sigma, w: moves.append(move(sx, q, sigma, w)) or moves[-1]
    )
    res, fields, updates = _solve_logged(qss, caplog, monkeypatch, start=st.basis)
    assert res.status is SolverStatus.OPTIMAL
    dual_pivots = int(fields["dual_pivots"])
    primal_changes = sum(1 for m in moves if m[0] >= 0)
    assert dual_pivots > REFACTOR_EVERY
    assert fields["crash"] == fields["face_pivots"] == "0"  # a warm start pays no crash
    assert int(fields["iters"]) == res.iterations == dual_pivots + int(fields["flips"]) + primal_changes
    # dual pivots and primal basis changes both extend the eta file
    assert len(updates) == dual_pivots + primal_changes
    # the start basis's and the final factorization, plus one per full eta
    # file; each refactorization in the dual loop reprices
    assert int(fields["refactors"]) == 2 + len(updates) // REFACTOR_EVERY
    assert int(fields["pricings"]) == 2 + dual_pivots // REFACTOR_EVERY + primal_changes
