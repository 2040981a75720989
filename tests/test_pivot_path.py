"""Answers that do not depend on the pivot path.  SuperLU's column ordering
moves the simplex's pivot path without changing the market, so under each
ordering a market must keep its status, its surplus, its least prices, its
warm QSS answer and every audit verdict.  Each setting is put in place by
monkeypatching `simplex_solver.splu`, so the solver has no option for it."""

import functools

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from stclear import cli_io, simplex_solver
from stclear.property_auditor import REL_TOL, run_full_audit
from stclear.scenario_gen import CaseParams, Variant, generate_waste_case
from stclear.settlement import clear, clear_qss
from stclear.simplex_solver import SolverStatus, verify_kkt

from _markets import restated

# keyword arguments of `splu`; the first is today's factor
SETTINGS = {
    "COLAMD": {},
    "NATURAL": {"permc_spec": "NATURAL"},
    "MMD_ATA": {"permc_spec": "MMD_ATA"},
    "MMD_AT_PLUS_A": {"permc_spec": "MMD_AT_PLUS_A"},
    "COLAMD-relax1": {"relax": 1},
}
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
        mp.setattr(simplex_solver, "splu", functools.partial(splu, **SETTINGS[setting]))
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


_FACE_TOLERANCE = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 15: `_Simplex._face` holds a column at its bound only within "
    "FEASIBILITY_TOL / max|a_j|; with waste restated x1e6 a capacity of 3.84e7 sits two "
    "ulps off 0, is freed, and the least price of ('farm000', 7, 'electricity') comes "
    "out 3.01 too high",
)

UNIT_CASES = [
    pytest.param(
        setting, variant, product, k,
        id=f"{setting}-{variant.value}-{product}{k:+d}",
        marks=_FACE_TOLERANCE if (
            setting == "COLAMD-relax1" and product == "waste" and k == 6
            and variant in (Variant.BASE, Variant.UNLIMITED_STORAGE)
        ) else (),
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
