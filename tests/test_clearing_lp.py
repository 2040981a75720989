import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from stclear.clearing_lp import DimensionMismatch, assemble_primal, row_residuals, total
from stclear.market_model import TABLES, InvalidInstance
from stclear.property_auditor import REL_TOL
from stclear.scenario_gen import CaseParams, Variant, generate_waste_case
from stclear.simplex_solver import SolverStatus, solve

from _markets import (
    allocation,
    arc_class,
    dry_market,
    empty_market,
    explicit_dual,
    random_instance,
    storage_market,
    tech_market,
    transport_market,
    two_var_market,
)
from _oracle import enumerate_lp, enumerate_market_lp


def test_two_var_market_transcription():
    lp, index = assemble_primal(two_var_market())
    assert lp.sense == "max"
    assert lp.n_rows == 1 and lp.n_cols == 2
    g = index.col_of["i1"]
    d = index.col_of["j1"]
    assert lp.c[g] == -2.0 and lp.c[d] == 8.0
    A = lp.A.toarray()
    assert A[0, g] == 1.0 and A[0, d] == -1.0
    assert lp.upper[g] == 10.0 and lp.upper[d] == 5.0
    assert np.all(lp.lower == 0.0) and np.all(lp.b == 0.0)


def test_storage_market_incidence():
    lp, index = assemble_primal(storage_market())
    assert lp.n_rows == 2
    r0 = index.row_of[("n1", 0, "p1")]
    r1 = index.row_of[("n1", 1, "p1")]
    col = lp.A.toarray()[:, index.col_of["l1"]]
    assert col[r0] == -1.0 and col[r1] == 1.0


def test_technology_column_yields():
    lp, index = assemble_primal(tech_market())
    A = lp.A.toarray()
    col = A[:, index.col_of["m1"]]
    rw = index.row_of[("n1", 0, "waste")]
    rb = index.row_of[("n1", 0, "biogas")]
    assert col[rw] == -1.0 and col[rb] == 2.0


def _reference_primal(instance):
    """The clearing LP built one stakeholder at a time: its row keys, its
    columns (id, kind, stream, cost, capacity) and A as a dense array."""
    by_id = lambda x: x.id
    key = lambda at, product: (at.node, at.time, product)
    columns, entries = [], []  # entries: {row key: coefficient} per column
    for x in sorted(instance.suppliers, key=by_id):
        columns.append((x.id, "supplier", "supplier", -x.bid, x.capacity))
        entries.append({key(x.node, x.product): 1.0})
    for x in sorted(instance.consumers, key=by_id):
        columns.append((x.id, "consumer", "consumer", x.bid, x.capacity))
        entries.append({key(x.node, x.product): -1.0})
    for x in sorted(instance.transporters, key=by_id):
        stream = "transport_" + arc_class(x.arc)
        columns.append((x.id, "transporter", stream, -x.bid, x.capacity))
        entries.append({key(x.arc.base, x.product): -1.0, key(x.arc.receiving, x.product): 1.0})
    for x in sorted(instance.technologies, key=by_id):
        columns.append((x.id, "technology", "technology", -x.bid, x.capacity))
        col = {key(x.node, p): -g for p, g in x.inputs.items()}
        col.update({key(x.node, p): g for p, g in x.outputs.items()})
        entries.append(col)
    keys = {k for col in entries for k in col}
    rows = sorted(keys, key=lambda k: (k[1], k[0], k[2]))
    A = np.zeros((len(rows), len(columns)))
    for j, col in enumerate(entries):
        for key, coef in col.items():
            A[rows.index(key), j] = coef
    return tuple(rows), columns, A


def _rotated(build):
    """`build()` with every stakeholder table rotated by one entry.  Unlike a
    reversal, a rotation of three or more entries is not its own inverse
    permutation, so a table's id-order view that applied the inverse of its
    sort in place of the sort gives a different LP."""
    inst = build()
    rows = {key: tuple(getattr(inst, key)) for key in TABLES}
    return dataclasses.replace(inst, **{key: r[1:] + r[:1] for key, r in rows.items()})


# markets with several entries in some table; the seeds have 3 or 4 technologies
_SEVERAL = [tech_market, storage_market] + [
    functools.partial(random_instance, seed) for seed in (0, 11, 12, 14, 16)
]


@pytest.mark.parametrize(
    "build",
    [two_var_market, storage_market, transport_market, dry_market, tech_market, empty_market]
    + [functools.partial(random_instance, seed) for seed in range(30)]
    + [lambda: generate_waste_case(CaseParams(3, 2, 6, 1))]
    + [functools.partial(_rotated, build) for build in _SEVERAL],
)
def test_primal_matches_per_stakeholder_reference(build):
    # tech_market lists its products unsorted; rows still follow the names
    inst = build()
    lp, index = assemble_primal(inst)
    rows, columns, A = _reference_primal(inst)
    assert index.rows == rows
    assert all(type(v) is str and type(t) is int for v, t, _ in index.rows)
    assert index.row_of == {k: i for i, k in enumerate(rows)}
    assert index.cols == tuple(col[0] for col in columns)
    assert index.kinds == tuple(col[1] for col in columns)
    assert index.streams == tuple(col[2] for col in columns)
    assert lp.c.tolist() == [col[3] for col in columns]
    assert lp.upper.tolist() == [col[4] for col in columns]
    assert lp.A.has_canonical_format
    assert np.array_equal(lp.A.toarray(), A)


@pytest.mark.parametrize("build", _SEVERAL)
def test_dual_of_rotated_tables_is_the_dual(build):
    dual, rotated = explicit_dual(build()), explicit_dual(_rotated(build))
    for name in ("c", "b", "lower", "upper"):
        assert np.array_equal(getattr(rotated, name), getattr(dual, name)), name
    assert np.array_equal(rotated.A.toarray(), dual.A.toarray())


@pytest.mark.parametrize(
    "build",
    _SEVERAL
    + [
        functools.partial(generate_waste_case, CaseParams(4, 2, 12, seed, Variant.TRIPLE_WASTE))
        for seed in (1, 7)
    ],
)
def test_rotated_tables_clear_at_the_same_prices(build):
    """Listing the stakeholders in another order, which can change the
    pivot path, moves no reported price."""
    lp, index = assemble_primal(build())
    rotated, rotated_index = assemble_primal(_rotated(build))
    res, other = solve(lp), solve(rotated)
    assert res.status is other.status is SolverStatus.OPTIMAL
    assert rotated_index.rows == index.rows
    assert np.all(np.abs(other.y - res.y) <= REL_TOL * (1.0 + np.abs(res.y)))


def test_zero_vector_always_feasible():
    for seed in range(10):
        lp, _ = assemble_primal(random_instance(seed))
        x0 = np.zeros(lp.n_cols)
        assert np.all(row_residuals(lp, x0) == 0.0)
        assert np.all(lp.lower <= x0) and np.all(x0 <= lp.upper)


def test_invalid_instance_raises():
    inst = two_var_market()
    bad = dataclasses.replace(
        inst, suppliers=(dataclasses.replace(inst.suppliers[0], capacity=-1.0),)
    )
    with pytest.raises(InvalidInstance):
        assemble_primal(bad)


class TestRowResiduals:
    def test_zero(self):
        lp, _ = assemble_primal(two_var_market())
        assert np.all(row_residuals(lp, np.zeros(2)) == 0.0)

    def test_balanced(self):
        lp, index = assemble_primal(two_var_market())
        x = np.zeros(2)
        x[index.col_of["i1"]] = 5.0
        x[index.col_of["j1"]] = 5.0
        assert row_residuals(lp, x).max() == 0.0

    def test_imbalance(self):
        lp, index = assemble_primal(two_var_market())
        x = np.zeros(2)
        x[index.col_of["i1"]] = 5.0
        x[index.col_of["j1"]] = 4.0
        assert row_residuals(lp, x)[0] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        lp, _ = assemble_primal(two_var_market())
        with pytest.raises(DimensionMismatch):
            row_residuals(lp, np.zeros(3))


class TestTotal:
    def test_is_exactly_rounded(self):
        assert total([1e16, 1.0, -1e16]) == 1.0
        assert total([]) == 0.0

    def test_order_moves_no_bit(self):
        # price x allocation terms of a clearing LP's size and spread
        rng = np.random.default_rng(11660)
        terms = rng.standard_normal(11660) * 10.0 ** rng.uniform(-6.0, 9.0, 11660)
        shuffled = terms[rng.permutation(len(terms))]
        assert sum(terms.tolist()) != sum(shuffled.tolist())  # a sequential sum moves
        assert total(shuffled).hex() == total(terms).hex()

    @given(hst.lists(hst.floats()))
    def test_is_fsum_wherever_fsum_returns(self, terms):
        try:
            expected = math.fsum(terms)
        except (OverflowError, ValueError):
            return
        assert total(terms).hex() == expected.hex()

    @pytest.mark.parametrize(
        "terms, expected",
        [
            ([1e308, 1e308], math.inf),
            ([-1e308, -1e308], -math.inf),
            ([1e308, 1e308, -1e308], 1e308),
            ([1e308, 1e308, -1e308, -1e308, 5e-324], 5e-324),
            # the exact sum rounds up past the largest float, or down onto it
            ([1.7976931348623157e308, 1e292], math.inf),
            ([1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308, 1e291],
             1.7976931348623157e308),
            # an infinite or NaN term decides a sum whose finite part overflows
            ([math.inf, 1e308, 1e308], math.inf),
            ([-math.inf, 1e308, 1e308], -math.inf),
            ([math.nan, 1e308, 1e308], math.nan),
            ([math.inf, -math.inf], math.nan),
            ([math.inf, -math.inf, 1e308, 1e308], math.nan),
        ],
    )
    def test_is_a_float_where_fsum_raises(self, terms, expected):
        with pytest.raises((OverflowError, ValueError)):
            math.fsum(terms)
        assert total(terms).hex() == expected.hex()

    @given(
        hst.lists(
            hst.builds(
                math.copysign,
                hst.one_of(
                    hst.sampled_from([1e308, 1.7976931348623157e308, 2.0**1023]),
                    hst.floats(1e-280, 1.7976931348623157e308),
                ),
                hst.sampled_from([1.0, -1.0]),
            ),
            max_size=8,
        )
    )
    @example([1e308, 1e308, -1e308])
    def test_is_the_exactly_rounded_sum_beyond_the_float_range(self, terms):
        # scaled by 2**-64 no partial sum overflows and no term loses a bit,
        # so the scaled fsum rounds as the exact sum does
        scaled = math.fsum(math.ldexp(t, -64) for t in terms)
        try:
            expected = math.ldexp(scaled, 64)
        except OverflowError:
            expected = math.copysign(math.inf, scaled)
        assert total(terms) == expected


class TestExplicitDual:
    def test_two_var_market_dual_by_enumeration(self):
        dual = explicit_dual(two_var_market())
        # pi free: clamp to generous finite range for the enumeration oracle
        lo = np.where(np.isneginf(dual.lower), -1e3, dual.lower)
        hi = np.where(np.isposinf(dual.upper), 1e3, dual.upper)
        status, obj, x = enumerate_lp(dual.c, dual.A.toarray(), dual.b, lo, hi, sense="min")
        assert status == "optimal"
        assert obj == pytest.approx(30.0, abs=1e-9)
        # the dual's columns: one price per primal row, then lam and slack
        # per stakeholder, each in the primal's column order
        _, index = assemble_primal(two_var_market())
        pi = x[index.row_of[("n1", 0, "p1")]]
        lam_j = x[len(index.rows) + index.col_of["j1"]]
        assert pi == pytest.approx(2.0, abs=1e-9)
        assert lam_j == pytest.approx(6.0, abs=1e-9)

    def test_dry_market_dual_optimum_zero(self):
        dual = explicit_dual(dry_market())
        lo = np.where(np.isneginf(dual.lower), -1e3, dual.lower)
        hi = np.where(np.isposinf(dual.upper), 1e3, dual.upper)
        status, obj, x = enumerate_lp(dual.c, dual.A.toarray(), dual.b, lo, hi, sense="min")
        assert status == "optimal"
        assert obj == pytest.approx(0.0, abs=1e-9)

    def test_empty_instance_dual(self):
        dual = explicit_dual(empty_market())
        assert dual.n_rows == 0 and dual.n_cols == 0


@pytest.mark.parametrize(
    "build,expected",
    [(two_var_market, 30.0), (storage_market, 42.5), (dry_market, 0.0)],
)
def test_primal_matches_oracle_on_micro_markets(build, expected):
    lp, _ = assemble_primal(build())
    status, obj, _ = enumerate_market_lp(lp)
    assert status == "optimal"
    assert obj == pytest.approx(expected, abs=1e-9)


def test_primal_bounds_invariants():
    for seed in range(8):
        lp, _ = assemble_primal(random_instance(seed))
        assert np.all(lp.lower == 0.0)
        assert np.all(np.isfinite(lp.upper)) and np.all(lp.upper >= 0.0)
        assert np.all(lp.b == 0.0)


def test_objective_regroups_by_time():
    # the surplus decomposes into per-period blocks: suppliers, consumers,
    # and technologies by their node time, transporters by base time
    from stclear.settlement import clear

    for seed in (1, 4, 12):
        inst = random_instance(seed)
        sol = clear(inst)
        per_t = {}

        def bump(t, v):
            per_t[t] = per_t.get(t, 0.0) + v

        for x in inst.suppliers:
            bump(x.node.time, -x.bid * allocation(sol, x.id))
        for x in inst.consumers:
            bump(x.node.time, x.bid * allocation(sol, x.id))
        for x in inst.transporters:
            bump(x.arc.base.time, -x.bid * allocation(sol, x.id))
        for x in inst.technologies:
            bump(x.node.time, -x.bid * allocation(sol, x.id))
        total = sum(per_t.values())
        assert total == pytest.approx(sol.surplus, abs=1e-9 * (1 + abs(sol.surplus)))


def test_transporter_and_technology_nonzero_structure():
    for seed in range(8):
        inst = random_instance(seed)
        lp, index = assemble_primal(inst)
        A = lp.A.tocsc()
        for tra in inst.transporters:
            col = A[:, index.col_of[tra.id]]
            assert col.nnz == 2
            assert sorted(col.data) == [-1.0, 1.0]
        for tec in inst.technologies:
            col = A[:, index.col_of[tec.id]]
            assert col.nnz == len(tec.inputs) + len(tec.outputs)


def test_every_nonzero_is_unit_or_yield():
    for seed in range(8):
        inst = random_instance(seed)
        lp, index = assemble_primal(inst)
        yields = {g for t in inst.technologies for g in (*t.inputs.values(), *t.outputs.values())}
        allowed = {1.0, -1.0} | yields | {-g for g in yields}
        assert set(np.round(lp.A.data, 12)) <= {round(v, 12) for v in allowed}


def test_deterministic_indexing():
    a1, i1 = assemble_primal(random_instance(5))
    a2, i2 = assemble_primal(random_instance(5))
    assert i1.cols == i2.cols
    assert i1.rows == i2.rows
    assert np.array_equal(a1.c, a2.c)
    assert (a1.A != a2.A).nnz == 0
