"""Answers that do not depend on the pivot path.  SuperLU's column ordering
moves the simplex's pivot path without changing the market, so under each
ordering a market must keep its status, its surplus, its least prices, its
warm QSS answer and every audit verdict.  Each setting is put in place by
monkeypatching `simplex_solver.splu`, so the solver has no option for it."""

import functools

import numpy as np
import pytest

from stclear import cli_io
from stclear.clearing_lp import assemble_primal
from stclear.property_auditor import REL_TOL, run_full_audit
from stclear.scenario_gen import CaseParams, Variant, generate_waste_case
from stclear.settlement import clear, clear_qss
from stclear.simplex_solver import _AT_LOWER, _AT_UPPER, SolverStatus, _Simplex, solve, verify_kkt

from _lps import SETTINGS, factor_by, solve_fields
from _markets import restated

OTHER_SETTINGS = list(SETTINGS)[1:]


@functools.cache
def _document(params: CaseParams) -> dict:
    return cli_io.instance_to_dict(generate_waste_case(params))


@functools.cache
def _answers(setting: str, params: CaseParams, product: str | None = None, k: int = 0):
    """The cleared market of `params`, with `product` restated by 10**k, its
    warm QSS restriction and its audit report, every basis factored by
    `splu` under `setting`."""
    doc = _document(params)
    if product is not None:
        doc = restated(doc, product, 10.0**k)
    with pytest.MonkeyPatch.context() as mp:
        factor_by(mp, setting)
        instance = cli_io.instance_from_dict(doc)
        solution = clear(instance)
        return solution, clear_qss(solution), run_full_audit(instance, solution=solution)


def _off_rows(solution, expect: np.ndarray) -> list:
    """The rows whose prices differ from `expect` by more than
    `REL_TOL`·(1 + |expect|)."""
    off = np.abs(solution.result.y - expect) > REL_TOL * (1.0 + np.abs(expect))
    return [solution.index.rows[i] for i in np.flatnonzero(off)]


def _verdicts(report) -> list:
    return [(c.name, c.passed) for c in report.checks]


CASES = [
    CaseParams(*size, seed=7, variant=variant)
    for size in ((3, 2, 6), (4, 2, 12))
    for variant in Variant
]


@pytest.mark.parametrize("setting", OTHER_SETTINGS)
@pytest.mark.parametrize("params", CASES, ids=str)
def test_an_ordering_moves_no_answer(params, setting):
    ref, ref_qss, ref_report = _answers("COLAMD", params)
    sol, qss, report = _answers(setting, params)
    assert sol.status is ref.status is SolverStatus.OPTIMAL
    for got, expect in ((sol, ref), (qss, ref_qss)):
        assert got.status is expect.status
        assert abs(got.surplus - expect.surplus) <= 1e-12 * (1.0 + abs(expect.surplus))
        assert not _off_rows(got, expect.result.y)
    assert len(report.checks) == 13
    assert _verdicts(report) == _verdicts(ref_report)
    assert report.status == ref_report.status


@pytest.mark.parametrize("setting", OTHER_SETTINGS)
def test_each_ordering_moves_the_bits_of_some_answer(setting):
    # else the test above would hold whatever the answers depend on
    bits = lambda setting, params: _answers(setting, params)[0].result.x.tobytes()
    assert any(bits(setting, params) != bits("COLAMD", params) for params in CASES)


UNIT_CASES = [
    pytest.param(
        setting, variant, product, k,
        id=f"{setting}-{variant.value}-{product}{k:+d}",
    )
    for setting in OTHER_SETTINGS
    for variant in Variant
    for product in ("electricity", "waste")
    for k in (-6, 6)
]


@pytest.mark.parametrize("setting, variant, product, k", UNIT_CASES)
def test_a_restated_product_prices_as_before_under_any_ordering(setting, variant, product, k):
    # today's answer on the market in its own units is the reference
    params = CaseParams(4, 2, 12, seed=7, variant=variant)
    ref, _, ref_report = _answers("COLAMD", params)
    sol, _, report = _answers(setting, params, product, k)
    assert sol.status is SolverStatus.OPTIMAL
    assert abs(sol.surplus - ref.surplus) <= REL_TOL * (1.0 + abs(ref.surplus))
    assert verify_kkt(sol.lp, sol.result).passed
    scale = np.array([10.0**-k if row[2] == product else 1.0 for row in ref.index.rows])
    assert not _off_rows(sol, ref.result.y * scale)
    assert report.status == ref_report.status


_AT_A_BOUND_BY_AN_ULP = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 15 step 4: a column that leaves the basis in the face step is "
    "marked at its upper bound while its x is 3.6e-15 off it",
)


@pytest.mark.parametrize("setting", [
    pytest.param(setting, marks=_AT_A_BOUND_BY_AN_ULP if setting in ("MMD_ATA", "COLAMD-relax1") else ())
    for setting in SETTINGS
])
def test_least_prices_move_only_the_duals(setting, caplog, monkeypatch):
    """Where the face LP pivots, x, the objective and the primal loop stay;
    y and the reduced costs are those of the new basis, a smaller price sum,
    and each column that left the basis rests where x has it."""
    factor_by(monkeypatch, setting)
    params = CaseParams(4, 2, 12, seed=7, variant=Variant.TRIPLE_WASTE)
    lp = assemble_primal(generate_waste_case(params))[0]
    res, fields = solve_fields(lp, caplog)
    face = int(fields["face_pivots"])
    assert face > 0
    monkeypatch.setattr(_Simplex, "_least_prices", lambda sx, y, d: (y, d))
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
