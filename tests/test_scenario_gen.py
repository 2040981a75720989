import dataclasses

import numpy as np
import pytest

from stclear.clearing_lp import assemble_primal
from stclear.market_model import validate
from stclear.scenario_gen import (
    BLOCK_SIZE_MW,
    GENERATOR_BETAS,
    PEAK_HOUR,
    CaseParams,
    InvalidParams,
    Variant,
    build_demand_curve,
    fleet_block_counts,
    generate_waste_case,
    restrict_to_qss,
)
from stclear.settlement import clear
from stclear.simplex_solver import SolverStatus

from _markets import (
    allocation, arc_class, price_at, random_instance, storage_market, transport_market,
)


class TestRestrictToQss:
    def test_storage_market_surplus_collapses(self):
        inst = storage_market()
        assert clear(inst).surplus == pytest.approx(42.5, abs=1e-9)
        qss = restrict_to_qss(inst)
        assert clear(qss).surplus == pytest.approx(0.0, abs=1e-12)
        assert qss.transporters[0].capacity == 0.0

    def test_spatial_only_instance_unchanged(self):
        inst = transport_market()
        assert restrict_to_qss(inst) == inst

    def test_idempotent(self):
        inst = storage_market()
        once = restrict_to_qss(inst)
        assert restrict_to_qss(once) == once

    def test_rows_unchanged_and_sorted(self):
        # `compare` pairs the two markets' row duals by position
        instances = [random_instance(seed) for seed in range(20)]
        instances += [generate_waste_case(CaseParams(3, 2, 6, 7, v)) for v in Variant]
        for inst in instances:
            _, index = assemble_primal(inst)
            assert assemble_primal(restrict_to_qss(inst))[1].rows == index.rows
            keys = [(t, node, p) for node, t, p in index.rows]
            assert keys == sorted(keys)


class TestGenerateWasteCase:
    def test_deterministic(self):
        a = generate_waste_case(CaseParams(farms=8, processors=4, horizon=24, seed=7))
        b = generate_waste_case(CaseParams(farms=8, processors=4, horizon=24, seed=7))
        assert a == b

    def test_seed_changes_instance(self):
        a = generate_waste_case(CaseParams(seed=7))
        b = generate_waste_case(CaseParams(seed=8))
        assert a != b

    def test_validates(self):
        inst = generate_waste_case(CaseParams(farms=5, processors=2, horizon=12, seed=1))
        assert validate(inst).ok

    def test_paper_scale_node_counts(self):
        # full farm roster at a short horizon: 245 CAFOs + hub
        inst = generate_waste_case(CaseParams(farms=245, processors=120, horizon=2, seed=0))
        assert len(inst.graph.nodes) == 246
        assert inst.graph.st_node_count == 492

    def test_default_betas_match_reference(self):
        assert GENERATOR_BETAS == (1.66e-5, 8.31e-6, 4.15e-5)

    def test_block_bids_follow_quadratic(self):
        params = CaseParams(farms=2, processors=1, horizon=1, seed=0)
        inst = generate_waste_case(params)
        b1 = next(x for x in inst.suppliers if x.id == "sup_grid0_b001_t000")
        b7 = next(x for x in inst.suppliers if x.id == "sup_grid0_b007_t000")
        assert b1.bid == pytest.approx(1.66e-5 * 100.0**2)
        assert b7.bid == pytest.approx(1.66e-5 * 700.0**2)
        assert b1.capacity == 100.0

    def test_block_counts_cover_peak_demand(self):
        supply = sum(fleet_block_counts()) * BLOCK_SIZE_MW
        assert supply > max(build_demand_curve(24))

    def test_storage_arcs_span_single_steps_only(self):
        inst = generate_waste_case(CaseParams(farms=3, processors=2, horizon=5, seed=2))
        for x in inst.transporters:
            if arc_class(x.arc) == "temporal":
                assert x.arc.receiving.time == x.arc.base.time + 1

    def test_variant_switches(self):
        base = generate_waste_case(CaseParams(farms=3, processors=2, horizon=4, seed=5))
        nost = generate_waste_case(
            CaseParams(farms=3, processors=2, horizon=4, seed=5, variant=Variant.NO_STORAGE)
        )
        unli = generate_waste_case(
            CaseParams(farms=3, processors=2, horizon=4, seed=5, variant=Variant.UNLIMITED_STORAGE)
        )
        trip = generate_waste_case(
            CaseParams(farms=3, processors=2, horizon=4, seed=5, variant=Variant.TRIPLE_WASTE)
        )
        stor = lambda inst: [x for x in inst.transporters if arc_class(x.arc) == "temporal"]
        assert all(x.capacity == 0.0 for x in stor(nost))
        assert all(x.capacity == 1e9 and x.bid == 0.0 for x in stor(unli))
        base_waste = {x.id: x.capacity for x in base.suppliers if x.product == "waste"}
        trip_waste = {x.id: x.capacity for x in trip.suppliers if x.product == "waste"}
        for k, v in base_waste.items():
            assert trip_waste[k] == pytest.approx(3.0 * v)

    def test_nostorage_equals_qss_of_base(self):
        base = generate_waste_case(CaseParams(farms=3, processors=2, horizon=4, seed=5))
        nost = generate_waste_case(
            CaseParams(farms=3, processors=2, horizon=4, seed=5, variant=Variant.NO_STORAGE)
        )
        qss = restrict_to_qss(base)
        assert {x.id: x.capacity for x in qss.transporters} == {
            x.id: x.capacity for x in nost.transporters
        }

    def test_bad_params(self):
        with pytest.raises(InvalidParams):
            CaseParams(farms=2, processors=3)
        with pytest.raises(InvalidParams):
            CaseParams(horizon=0)
        with pytest.raises(InvalidParams):
            CaseParams(seed=-1)  # numpy's generators take no negative seed


class TestDemandCurve:
    def test_periodic_and_positive(self):
        d = np.array(build_demand_curve(72))
        assert np.all(d > 0)
        assert np.allclose(d[24:], d[:-24])

    def test_peak_at_configured_hour(self):
        assert int(np.argmax(build_demand_curve(24))) == round(PEAK_HOUR)

    def test_mean_matches_annual_total(self):
        mean = float(np.mean(build_demand_curve(24)))
        assert mean == pytest.approx(68.8e6 / 8766.0, rel=1e-6)

    def test_surplus_dominance_on_generated_case(self):
        inst = generate_waste_case(CaseParams(farms=3, processors=2, horizon=8, seed=4))
        st = clear(inst)
        qss = clear(restrict_to_qss(inst))
        assert st.status is SolverStatus.OPTIMAL
        assert st.surplus >= qss.surplus - 1e-6 * (1.0 + abs(qss.surplus))

    def test_nostorage_hub_price_is_merit_order(self):
        # independent dispatch oracle: with storage removed, the hub price at
        # each hour must be the bid of the marginal conventional block serving
        # demand net of the (pass-through) digester output
        from stclear.stgraph import SpaceTimeNode

        params = CaseParams(
            farms=2, processors=1, horizon=24, seed=6, variant=Variant.NO_STORAGE
        )
        inst = generate_waste_case(params)
        sol = clear(inst)
        assert sol.status is SolverStatus.OPTIMAL
        blocks = sorted(
            (x for x in inst.suppliers if x.node.node == "hub" and x.node.time == 0),
            key=lambda x: x.bid,
        )
        for t in range(24):
            hub = SpaceTimeNode("hub", t)
            demand = next(x.capacity for x in inst.consumers if x.node == hub)
            bio = sum(
                allocation(sol, x.id)
                for x in inst.transporters
                if x.arc.receiving == hub and x.product == "electricity"
            )
            residual = demand - bio
            served = 0.0
            marginal = None
            for b in blocks:
                served += b.capacity
                if served >= residual - 1e-6:
                    marginal = b.bid
                    break
            price = price_at(sol, "hub", t, "electricity")
            assert price == pytest.approx(marginal, abs=1e-6), t
