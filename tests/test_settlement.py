import csv
import dataclasses
import math

import numpy as np
import pytest

from stclear.cli_io import load_instance, main, save_instance
from stclear.clearing_lp import assemble_primal
from stclear.scenario_gen import CaseParams, Variant, generate_waste_case, restrict_to_qss
from stclear.settlement import (
    AT_BOUND_TOL,
    Saturation,
    aggregation_identity_check,
    classify,
    clear,
    clear_qss,
    revenue_streams,
    settle,
    stakeholder_prices,
    stakeholder_profits,
)
from stclear.simplex_solver import SolverStatus, solve
from stclear.stgraph import SpaceTimeNode

from _markets import (
    allocation,
    arc_class,
    col,
    dry_market,
    empty_market,
    price_at,
    random_instance,
    storage_market,
    tech_market,
    transport_market,
    two_var_market,
)


@pytest.fixture(scope="module")
def solved_storage():
    inst = storage_market()
    return inst, clear(inst)


@pytest.fixture(scope="module")
def solved_transport():
    inst = transport_market()
    return inst, clear(inst)


class TestPrices:
    def test_storage_market(self, solved_storage):
        inst, sol = solved_storage
        assert sol.status is SolverStatus.OPTIMAL
        assert price_at(sol, "n1", 0, "p1") == pytest.approx(1.0, abs=1e-9)
        assert price_at(sol, "n1", 1, "p1") == pytest.approx(1.5, abs=1e-9)
        prices = stakeholder_prices(sol)
        assert prices[col(sol, "l1")] == pytest.approx(0.5, abs=1e-9)

    def test_two_node_transport(self, solved_transport):
        inst, sol = solved_transport
        prices = stakeholder_prices(sol)
        assert price_at(sol, "n1", 0, "p1") == pytest.approx(1.0, abs=1e-9)
        assert price_at(sol, "n2", 0, "p1") == pytest.approx(2.0, abs=1e-9)
        assert prices[col(sol, "l1")] == pytest.approx(1.0, abs=1e-9)  # interior -> price = bid

    def test_technology_price_formula(self):
        inst = tech_market()
        sol = clear(inst)
        prices = stakeholder_prices(sol)
        pw = price_at(sol, "n1", 0, "waste")
        pb = price_at(sol, "n1", 0, "biogas")
        assert prices[col(sol, "m1")] == pytest.approx(2.0 * pb - pw, abs=1e-12)


class TestProfits:
    def test_two_var_market(self):
        inst = two_var_market()
        sol = clear(inst)
        profits = stakeholder_profits(sol)
        assert profits[col(sol, "i1")] == pytest.approx(0.0, abs=1e-9)
        assert profits[col(sol, "j1")] == pytest.approx(30.0, abs=1e-9)

    def test_dry_market_profits_zero(self):
        inst = dry_market()
        sol = clear(inst)
        profits = stakeholder_profits(sol)
        assert all(abs(v) <= 1e-12 for v in profits)

    def test_interior_storage_profit_zero(self, solved_storage):
        inst, sol = solved_storage
        profits = stakeholder_profits(sol)
        assert profits[col(sol, "l1")] == pytest.approx(0.0, abs=1e-9)


class TestClassify:
    def test_at_capacity(self, solved_storage):
        inst, sol = solved_storage
        classes = classify(sol)
        assert classes[col(sol, "j1")] is Saturation.AT_CAPACITY

    def test_partial(self, solved_transport):
        inst, sol = solved_transport
        classes = classify(sol)
        assert classes[col(sol, "i1")] is Saturation.PARTIAL  # 4 of 10
        assert classes[col(sol, "l1")] is Saturation.PARTIAL

    def test_dry(self):
        inst = dry_market()
        sol = clear(inst)
        classes = classify(sol)
        assert classes[col(sol, "i1")] is Saturation.DRY
        assert classes[col(sol, "j1")] is Saturation.DRY

    def test_a_zero_capacity_is_dry_whatever_the_noise_in_its_allocation(self):
        # the restriction zeroes l0's capacity, and the warm solve leaves it at 4.4e-16
        qss = clear_qss(clear(random_instance(48)))
        j = col(qss, "l0")
        assert qss.lp.upper[j] == 0.0 < qss.result.x[j]
        assert classify(qss)[j] is Saturation.DRY

    def test_storage_that_holds_tonnes_of_an_unlimited_capacity_is_not_dry(self, tmp_path):
        # ten storage columns of the `unlimited` case hold 3.3 to 42 t against
        # a capacity of 1e9, far below AT_BOUND_TOL * (1 + 1e9) = 100 t
        inst = generate_waste_case(CaseParams(4, 2, 12, seed=7, variant=Variant.UNLIMITED_STORAGE))
        rep = settle(clear(inst))
        classes = [s.value for s, x in zip(rep.saturation, rep.allocation) if x > 1e-6]
        assert len(classes) > 10 and "dry" not in classes
        path, out = tmp_path / "case.json", tmp_path / "solution"
        save_instance(inst, path)
        assert main(["clear", "--instance", str(path), "--out-dir", str(out)]) == 0
        with open(out / "allocations.csv", newline="") as f:
            classes = [r["saturation"] for r in csv.DictReader(f) if float(r["allocation"]) > 1e-6]
        assert len(classes) > 10 and "dry" not in classes


class TestRevenueStreams:
    def test_storage_market_streams(self, solved_storage):
        inst, sol = solved_storage
        st = revenue_streams(sol)
        assert st.consumer_total == pytest.approx(-7.5, abs=1e-9)
        assert st.supplier_total == pytest.approx(5.0, abs=1e-9)
        assert st.transport_temporal_total == pytest.approx(2.5, abs=1e-9)
        assert st.transport_spatial_total == 0.0
        assert st.grand_total == pytest.approx(0.0, abs=1e-9)

    def test_dry_market_all_zero(self):
        inst = dry_market()
        sol = clear(inst)
        st = revenue_streams(sol)
        assert st.magnitude == pytest.approx(0.0, abs=1e-12)

    def test_grand_total_zero_on_random_instances(self):
        for seed in range(40):
            inst = random_instance(seed)
            sol = clear(inst)
            assert sol.status is SolverStatus.OPTIMAL, f"seed {seed}"
            st = revenue_streams(sol)
            assert abs(st.grand_total) <= 1e-6 * (1.0 + st.magnitude), f"seed {seed}"


class TestAggregationIdentities:
    def test_storage_market_transport_identity(self, solved_storage):
        inst, sol = solved_storage
        prices = stakeholder_prices(sol)
        # pi_t1 * 5 - pi_t0 * 5 = pi_l * 5 = 2.5
        res = aggregation_identity_check(sol, prices, inst)
        assert res.max() <= 1e-12
        assert prices[col(sol, "l1")] * allocation(sol, "l1") == pytest.approx(2.5, abs=1e-9)

    def test_random_instances(self):
        for seed in range(40):
            inst = random_instance(seed)
            sol = clear(inst)
            prices = stakeholder_prices(sol)
            res = aggregation_identity_check(sol, prices, inst)
            assert res.max() <= 1e-7 * (1.0 + abs(sol.surplus)), f"seed {seed}"

    def test_empty_market(self):
        inst = empty_market()
        sol = clear(inst)
        res = aggregation_identity_check(sol, stakeholder_prices(sol), inst)
        assert np.all(res == 0.0)


class TestInvariants:
    def test_profit_nonnegativity_and_capacity_rule(self):
        for seed in range(40):
            inst = random_instance(seed)
            sol = clear(inst)
            rep = settle(sol)
            tol = 1e-6 * (1.0 + abs(rep.surplus))
            for who, profit, saturation in zip(rep.index.cols, rep.profit, rep.saturation):
                assert profit >= -tol, f"seed {seed}: {who}"
                if saturation is not Saturation.AT_CAPACITY:
                    assert profit <= tol, f"seed {seed}: {who}"

    def test_surplus_equals_total_profit(self):
        # the clearing objective maximizes the collective profit, and at the
        # optimum the two coincide
        for seed in range(20):
            inst = random_instance(seed)
            sol = clear(inst)
            rep = settle(sol)
            total = sum(rep.profit.tolist())
            assert total == pytest.approx(rep.surplus, abs=1e-6 * (1 + abs(rep.surplus)))


def test_spatiotemporal_stream_separated():
    # a delayed cross-node shipment lands in its own revenue line
    from stclear.market_model import Consumer, MarketInstance, Supplier, TransportProvider
    from stclear.stgraph import Arc, TimeGrid, build_graph

    grid = TimeGrid.hourly(2)
    s0 = SpaceTimeNode("a", 0)
    s1 = SpaceTimeNode("b", 1)
    arc = Arc(s0, s1)
    inst = MarketInstance(
        products=("p1",),
        grid=grid,
        graph=build_graph(["a", "b"], grid, [arc]),
        suppliers=(Supplier("i1", s0, "p1", 5.0, 1.0),),
        consumers=(Consumer("j1", s1, "p1", 5.0, 9.0),),
        transporters=(TransportProvider("l1", arc, "p1", 5.0, 2.0),),
        technologies=(),
    )
    sol = clear(inst)
    st = revenue_streams(sol)
    assert st.transport_spatiotemporal_total == pytest.approx(10.0, abs=1e-9)
    assert st.transport_spatial_total == 0.0
    assert st.transport_temporal_total == 0.0
    assert st.grand_total == pytest.approx(0.0, abs=1e-9)


def test_settle_report_shape(solved_storage):
    inst, sol = solved_storage
    rep = settle(sol)
    assert set(rep.index.kinds) == {"supplier", "consumer", "transporter"}
    assert rep.profit[col(rep, "j1")] == pytest.approx(42.5, abs=1e-9)
    assert rep.surplus == pytest.approx(42.5, abs=1e-9)


@pytest.mark.parametrize(
    "name", ["bid", "capacity", "allocation", "price", "lambda_bar", "profit"]
)
def test_report_arrays_are_read_only(solved_storage, name):
    _, sol = solved_storage
    upper, x = sol.lp.upper.copy(), sol.result.x.copy()
    rep = settle(sol)
    for report in (rep, dataclasses.replace(rep, **{name: getattr(rep, name).copy()})):
        with pytest.raises(ValueError, match="read-only"):
            getattr(report, name)[0] = 123.0
    assert np.array_equal(sol.lp.upper, upper) and np.array_equal(sol.result.x, x)


def reference_settlement(sol, inst):
    """Settlement recomputed stakeholder by stakeholder from the nodal
    prices: identity prices, profits, saturation classes, and the six stream
    totals, each summed exactly rounded with `math.fsum`."""
    prices_at = dict(zip(sol.index.rows, sol.result.y.tolist()))
    pi = lambda at, product: prices_at[(at.node, at.time, product)]
    alloc = dict(zip(sol.index.cols, sol.result.x.tolist()))
    prices = {}
    for x in (*inst.suppliers, *inst.consumers):
        prices[x.id] = pi(x.node, x.product)
    for x in inst.transporters:
        prices[x.id] = pi(x.arc.receiving, x.product) - pi(x.arc.base, x.product)
    for x in inst.technologies:
        val = 0.0
        for p, g in x.outputs.items():
            val += g * pi(x.node, p)
        for p, g in x.inputs.items():
            val -= g * pi(x.node, p)
        prices[x.id] = val

    providers = (*inst.suppliers, *inst.transporters, *inst.technologies)
    profits = {x.id: (prices[x.id] - x.bid) * alloc[x.id] for x in providers}
    profits.update({x.id: (x.bid - prices[x.id]) * alloc[x.id] for x in inst.consumers})

    saturation = {}
    for x in (*providers, *inst.consumers):
        a = alloc[x.id]
        if x.capacity == 0.0 or a <= AT_BOUND_TOL * min(1.0, abs(x.capacity)):
            saturation[x.id] = Saturation.DRY
        elif a >= x.capacity - AT_BOUND_TOL * (1.0 + abs(x.capacity)):
            saturation[x.id] = Saturation.AT_CAPACITY
        else:
            saturation[x.id] = Saturation.PARTIAL

    transport = {"spatial": [], "temporal": [], "spatiotemporal": []}
    for x in inst.transporters:
        transport[arc_class(x.arc)].append(prices[x.id] * alloc[x.id])
    streams = (
        -math.fsum(prices[x.id] * alloc[x.id] for x in inst.consumers),
        math.fsum(prices[x.id] * alloc[x.id] for x in inst.suppliers),
        math.fsum(transport["temporal"]),
        math.fsum(transport["spatial"]),
        math.fsum(transport["spatiotemporal"]),
        math.fsum(prices[x.id] * alloc[x.id] for x in inst.technologies),
    )
    return prices, profits, saturation, streams


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("variant", list(Variant))
def test_settle_matches_reference_exactly_on_generated_cases(tmp_path, variant, seed):
    # loaded through JSON, stakeholders sit in LP column order, every
    # technology has one input and one output, and both sides total the
    # streams exactly rounded, so the column formulas agree bit for bit
    path = tmp_path / "case.json"
    save_instance(generate_waste_case(CaseParams(3, 2, 6, seed=seed, variant=variant)), path)
    inst = load_instance(path)
    sol = clear(inst)
    rep = settle(sol)
    prices, profits, saturation, streams = reference_settlement(sol, inst)
    order = (*inst.suppliers, *inst.consumers, *inst.transporters, *inst.technologies)
    assert list(rep.index.cols) == [x.id for x in order]
    assert rep.price.tolist() == [prices[x.id] for x in order]
    assert rep.profit.tolist() == [profits[x.id] for x in order]
    assert list(rep.saturation) == [saturation[x.id] for x in order]
    assert dataclasses.astuple(rep.streams) == streams


def test_settle_matches_reference_on_random_instances():
    # multi-product technologies and unsorted ids change the summation order
    for seed in range(40):
        inst = random_instance(seed)
        sol = clear(inst)
        rep = settle(sol)
        prices, profits, saturation, streams = reference_settlement(sol, inst)
        assert rep.index.cols == sol.index.cols, f"seed {seed}"
        for who, price, profit, sat in zip(rep.index.cols, rep.price, rep.profit, rep.saturation):
            assert price == pytest.approx(prices[who], rel=1e-12, abs=1e-12), f"seed {seed}"
            assert profit == pytest.approx(profits[who], rel=1e-12, abs=1e-12), f"seed {seed}"
            assert sat is saturation[who], f"seed {seed}"
        scale = 1e-12 * (1.0 + rep.streams.magnitude)
        for got, want in zip(dataclasses.astuple(rep.streams), streams):
            assert abs(got - want) <= scale, f"seed {seed}"


def test_qss_lp_is_the_assembled_restriction():
    """`clear_qss` derives from the cleared LP exactly the LP that assembling
    `restrict_to_qss` gives, and solves it as `solve` does from the same
    start."""
    cases = [
        generate_waste_case(CaseParams(farms, processors, horizon, 7, variant))
        for farms, processors, horizon in ((3, 2, 6), (4, 2, 12))
        for variant in Variant
    ]
    cases += [random_instance(seed) for seed in range(40)]
    streams = set()
    for case, inst in enumerate(cases):
        st = clear(inst)
        qss = clear_qss(st)
        lp, index = assemble_primal(restrict_to_qss(inst))
        got = qss.lp
        assert got.sense == lp.sense and got.A.shape == lp.A.shape, case
        for name in ("c", "b", "lower", "upper"):
            assert np.array_equal(getattr(got, name), getattr(lp, name)), (case, name)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.A.tocsr(), name), getattr(lp.A.tocsr(), name)), case
        assert qss.index == index, case
        ref = solve(lp, st.result.basis)
        for name in ("x", "y", "reduced_costs"):
            assert getattr(qss.result, name).tobytes() == getattr(ref, name).tobytes(), case
        streams |= {s for s, hi in zip(index.streams, st.lp.upper) if hi > 0}
    # every cross-time stream the restriction closes occurs with capacity
    assert {"transport_temporal", "transport_spatiotemporal"} <= streams
