"""Units change nothing: a market that states a product in another unit is
the same market, so it clears with the same surplus, prices that product at
its unit's rate, passes `verify_kkt` and gets the same audit verdict, in
process and through the CLI.  Allocations are not compared: tied bids leave
them non-unique."""

import csv
import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from stclear import cli_io
from stclear.property_auditor import REL_TOL, run_full_audit
from stclear.scenario_gen import CaseParams, Variant, generate_waste_case
from stclear.settlement import ClearingSolution, clear
from stclear.simplex_solver import SolverStatus, verify_kkt

from _markets import random_instance, restated


@functools.cache
def _document(params: CaseParams) -> dict:
    return cli_io.instance_to_dict(generate_waste_case(params))


@functools.cache
def _cleared(params: CaseParams, product: str | None = None, k: int = 0):
    """The cleared market of `params` with `product` restated by 10**k,
    and its in-process audit report."""
    doc = _document(params)
    if product is not None:
        doc = restated(doc, product, 10.0**k)
    instance = cli_io.instance_from_dict(doc)
    solution = clear(instance)
    return solution, run_full_audit(instance, solution=solution)


def _prices(solution: ClearingSolution) -> dict:
    return dict(zip(solution.index.rows, solution.result.y.tolist()))


@pytest.mark.parametrize("k", [-6, -3, 3, 6])
@pytest.mark.parametrize("product", ["electricity", "waste"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("size", [(3, 2, 6), (4, 2, 12)], ids=lambda s: "x".join(map(str, s)))
def test_a_restated_product_clears_and_audits_as_before(size, variant, product, k):
    params = CaseParams(*size, seed=7, variant=variant)
    ref, ref_report = _cleared(params)
    sol, report = _cleared(params, product, k)
    assert ref.status is sol.status is SolverStatus.OPTIMAL
    assert abs(sol.surplus - ref.surplus) <= REL_TOL * (1.0 + abs(ref.surplus))
    assert verify_kkt(sol.lp, sol.result).passed
    # a price per unit of the product: per 10**k of the old units
    before, after = _prices(ref), _prices(sol)
    assert before.keys() == after.keys()
    rows = list(before)
    expect = np.array([before[r] * (10.0**-k if r[2] == product else 1.0) for r in rows])
    got = np.array([after[r] for r in rows])
    off = np.abs(got - expect) > REL_TOL * (1.0 + np.abs(expect))
    assert not off.any(), [rows[i] for i in np.flatnonzero(off)]
    assert report.status == ref_report.status


def test_a_random_instance_with_a_product_in_small_units_audits_as_before():
    instance = random_instance(21)
    assert run_full_audit(instance).passed
    doc = restated(cli_io.instance_to_dict(instance), "p0", 1e-6)
    assert run_full_audit(cli_io.instance_from_dict(doc)).passed


@settings(max_examples=100, deadline=None)
@given(
    hst.integers(0, 199), hst.sampled_from(["p0", "p1", "p2"]), hst.sampled_from([-6, -3, 3, 6])
)
@example(21, "p0", -6)
@example(154, "p1", -6)
@example(195, "p0", -6)
def test_a_random_instance_with_a_restated_product_audits_as_before(seed, product, k):
    # each example once classed a column at its full, restated capacity dry
    instance = random_instance(seed)
    assume(product in instance.products)
    doc = restated(cli_io.instance_to_dict(instance), product, 10.0**k)
    report = run_full_audit(cli_io.instance_from_dict(doc))
    failed = [c for c in report.checks if not c.passed]
    assert report.status == run_full_audit(instance).status, failed


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _through_cli(doc: dict, root: Path, capsys) -> tuple[float, list[dict], dict]:
    """Run `clear` and `compare` on `doc` under `root`: the surplus of the
    `cleared:` line, the rows of `surplus.csv` and the prices of
    `price_delta.csv` by (node, time, product)."""
    root.mkdir()
    inst = root / "case.json"
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_io.main(["clear", "--instance", str(inst), "--out-dir", str(root / "solution")]) == 0
    line = capsys.readouterr().out
    assert line.startswith("cleared: surplus ")
    surplus = float(line.split(";")[0].removeprefix("cleared: surplus "))
    assert cli_io.main(["compare", "--instance", str(inst), "--out", str(root / "compare")]) == 0
    prices = {
        (r["node"], r["time"], r["product"]): (float(r["price_st"]), float(r["price_qss"]))
        for r in _read_csv(root / "compare" / "case" / "price_delta.csv")
    }
    return surplus, _read_csv(root / "compare" / "case" / "surplus.csv"), prices


def _close(got: float, expect: float) -> bool:
    return abs(got - expect) <= REL_TOL * (1.0 + abs(expect))


_CLI_UNIT_CASES = [
    pytest.param(
        variant, product, k,
        id=f"{variant.value}-{product}-{k}",
        marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="`_fmt`'s 9 decimals keep 4 digits of a price at k = 6 (0.000149400), "
            "so `audit --solution-dir` fails cleared_price_bounds (2.832e-05 at "
            "tec_dig_farm001_t002) and capacity_price_bounds; at k = -6 it fails "
            "competitive_equilibrium and kkt (1.604e+00 on base); `audit` alone passes",
        ) if product == "electricity" and abs(k) == 6 else (),
    )
    for variant in Variant
    for product in ("electricity", "waste")
    for k in (-6, -3, 3, 6)
]


@pytest.mark.parametrize("variant, product, k", _CLI_UNIT_CASES)
def test_a_restated_product_runs_through_the_cli_as_before(tmp_path, capsys, variant, product, k):
    doc = _document(CaseParams(3, 2, 6, seed=7, variant=variant))
    ref_surplus, ref_table, ref_prices = _through_cli(doc, tmp_path / "ref", capsys)
    surplus, table, prices = _through_cli(restated(doc, product, 10.0**k), tmp_path / "new", capsys)
    assert _close(surplus, ref_surplus)
    assert [r["status"] for r in table] == [r["status"] for r in ref_table]
    assert all(_close(float(r["surplus"]), float(q["surplus"])) for r, q in zip(table, ref_table))
    # a price per unit of the product: per 10**k of the old units
    assert prices.keys() == ref_prices.keys()
    off = [
        key for key, before in ref_prices.items()
        if key[2] == product and not all(_close(a, b * 10.0**-k) for a, b in zip(prices[key], before))
    ]
    assert not off, off
    inst, solution = tmp_path / "new" / "case.json", tmp_path / "new" / "solution"
    assert cli_io.main(["audit", "--instance", str(inst), "--solution-dir", str(solution)]) == 0
