import dataclasses
import functools
import math
import types

import numpy as np
import pytest

from stclear.clearing_lp import assemble_primal
from stclear.cli_io import instance_from_dict, instance_to_dict
from stclear.market_model import (
    COLUMNS,
    TABLES,
    InvalidInstance,
    Table,
    TransportProvider,
    Violation,
    validate,
)
from stclear.scenario_gen import CaseParams, Variant, generate_waste_case
from stclear.settlement import clear
from stclear.stgraph import (
    Arc, BackwardTimeArc, GraphError, SelfLoopArc, SpaceTimeNode, TimeGrid, build_graph,
)

from _markets import empty_market, random_instance, storage_market, tech_market, two_var_market


def codes(instance):
    return sorted(v.code for v in validate(instance).violations)


def test_empty_instance_is_valid():
    assert validate(empty_market()).ok


def test_the_graph_shares_the_market_grid():
    # a graph on a longer grid would hold arcs that the market's file cannot
    inst = storage_market()
    grid = TimeGrid.hourly(5)
    graph = build_graph(["n1"], grid, [Arc(SpaceTimeNode("n1", 0), SpaceTimeNode("n1", 4))])
    with pytest.raises(GraphError, match="time grid"):
        dataclasses.replace(inst, graph=graph)
    assert dataclasses.replace(inst, grid=grid, graph=graph).grid == graph.grid


def test_unknown_product_flagged():
    inst = two_var_market()
    bad = dataclasses.replace(
        inst, suppliers=(dataclasses.replace(inst.suppliers[0], product="nope"),)
    )
    assert "UnknownProduct" in codes(bad)


def test_reference_yield_must_be_one():
    inst = tech_market()
    tec = inst.technologies[0]
    bad_tec = dataclasses.replace(tec, inputs={"waste": 2.0})
    bad = dataclasses.replace(inst, technologies=(bad_tec,))
    assert "ReferenceYieldNotUnity" in codes(bad)


def test_nan_bid_rejected():
    inst = two_var_market()
    bad = dataclasses.replace(
        inst, suppliers=(dataclasses.replace(inst.suppliers[0], bid=math.nan),)
    )
    assert "NonFiniteNumber" in codes(bad)


@pytest.mark.parametrize(
    "field, number", [("capacity", 10**400), ("bid", -10**400)], ids=["capacity", "bid"]
)
def test_an_integer_beyond_the_float_range_is_infinite(field, number):
    # it reads as ±inf, as json reads `1e400`, and validation reports it
    inst = two_var_market()
    bad = dataclasses.replace(
        inst, suppliers=(dataclasses.replace(inst.suppliers[0], **{field: number}),)
    )
    assert getattr(bad.suppliers, field).tolist() == [math.inf if number > 0 else -math.inf]
    assert codes(bad) == ["NonFiniteNumber"]


def test_negative_capacity_rejected():
    inst = two_var_market()
    bad = dataclasses.replace(
        inst, consumers=(dataclasses.replace(inst.consumers[0], capacity=-1.0),)
    )
    assert "NegativeCapacity" in codes(bad)


def test_duplicate_ids_rejected():
    inst = two_var_market()
    bad = dataclasses.replace(
        inst, consumers=(dataclasses.replace(inst.consumers[0], id="i1"),)
    )
    assert "DuplicateId" in codes(bad)


def test_negative_transport_bid_rejected():
    from _markets import storage_market

    inst = storage_market()
    bad = dataclasses.replace(
        inst, transporters=(dataclasses.replace(inst.transporters[0], bid=-0.5),)
    )
    assert "NegativeTransportBid" in codes(bad)


def test_overlapping_tech_products_rejected():
    inst = tech_market()
    tec = inst.technologies[0]
    bad_tec = dataclasses.replace(tec, outputs={"waste": 1.5})
    bad = dataclasses.replace(inst, technologies=(bad_tec,))
    assert "OverlappingProducts" in codes(bad)


def test_random_instances_validate():
    for seed in range(30):
        assert validate(random_instance(seed)).ok, f"seed {seed}"


def test_report_kept_per_instance():
    # computed once per object; `dataclasses.replace` builds a new one
    inst = two_var_market()
    assert validate(inst) is validate(inst)
    bad = dataclasses.replace(
        inst, suppliers=(dataclasses.replace(inst.suppliers[0], capacity=-1.0),)
    )
    assert validate(inst).ok and codes(bad) == ["NegativeCapacity"]


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _known(value, registry) -> bool:
    """Whether `registry` holds `value`; one that cannot be hashed, such as a
    list, is never registered."""
    return _hashable(value) and value in registry


def reference_violations(instance):
    """The per-stakeholder walk that `validate` replaced: every violation of
    `instance`, in check order, read off its row objects."""
    out = []
    add = lambda code, subject, msg: out.append(Violation(code, subject, msg))

    named = [p for p in instance.products if _hashable(p)]
    products = set(named)
    if len(products) != len(named):
        add("DuplicateProduct", "products", "product ids must be unique")
    for p in instance.products:
        if not isinstance(p, str):
            add("NonStringProduct", "products", f"product {p!r} is not a string")
    nodes = set(instance.graph.nodes)
    arcs = set(instance.graph.arcs)  # (base node, base time, receiving node, receiving time)
    n_times = len(instance.grid)

    def check_node(subject, s):
        if not _known(s.node, nodes):
            add("UnknownNode", subject, f"node {s.node!r} not registered")
        if not (0 <= s.time < n_times):
            add("TimeOutOfRange", subject, f"time index {s.time} outside grid")

    def check_numbers(subject, capacity, bid):
        if not _finite(capacity) or not _finite(bid):
            add("NonFiniteNumber", subject, "capacity and bid must be finite floats")
            return
        if capacity < 0:
            add("NegativeCapacity", subject, f"capacity {capacity} < 0")

    seen_ids = set()

    def check_id(subject):
        if not isinstance(subject, str):
            add("NonStringId", subject, f"stakeholder id {subject!r} is not a string")
        if _known(subject, seen_ids):
            add("DuplicateId", subject, "stakeholder id reused")
        if _hashable(subject):
            seen_ids.add(subject)

    for sup in instance.suppliers:
        check_id(sup.id)
        check_node(sup.id, sup.node)
        check_numbers(sup.id, sup.capacity, sup.bid)
        if not _known(sup.product, products):
            add("UnknownProduct", sup.id, f"product {sup.product!r} not registered")
    for con in instance.consumers:
        check_id(con.id)
        check_node(con.id, con.node)
        check_numbers(con.id, con.capacity, con.bid)
        if not _known(con.product, products):
            add("UnknownProduct", con.id, f"product {con.product!r} not registered")
    for tra in instance.transporters:
        check_id(tra.id)
        check_node(tra.id, tra.arc.base)
        check_node(tra.id, tra.arc.receiving)
        check_numbers(tra.id, tra.capacity, tra.bid)
        if not _known(tra.product, products):
            add("UnknownProduct", tra.id, f"product {tra.product!r} not registered")
        base, recv = tra.arc.base, tra.arc.receiving
        if not _known((base.node, base.time, recv.node, recv.time), arcs):
            add("UnknownArc", tra.id, "transporter arc not present in the graph")
        if _finite(tra.bid) and tra.bid < 0:
            add("NegativeTransportBid", tra.id, f"transport bid {tra.bid} < 0")
    for tec in instance.technologies:
        check_id(tec.id)
        check_node(tec.id, tec.node)
        check_numbers(tec.id, tec.capacity, tec.bid)
        if _finite(tec.bid) and tec.bid < 0:
            add("NegativeTechnologyBid", tec.id, f"technology bid {tec.bid} < 0")
        if not tec.inputs or not tec.outputs:
            add("EmptyYieldSet", tec.id, "inputs and outputs must both be non-empty")
        if set(tec.inputs) & set(tec.outputs):
            add("OverlappingProducts", tec.id, "inputs and outputs must be disjoint")
        for p, g in list(tec.inputs.items()) + list(tec.outputs.items()):
            if not _known(p, products):
                add("UnknownProduct", tec.id, f"product {p!r} not registered")
            if not _finite(g) or g <= 0:
                add("NonPositiveYield", tec.id, f"yield for {p!r} must be > 0")
        if not _known(tec.reference, tec.inputs):
            add("ReferenceNotInInputs", tec.id, f"reference {tec.reference!r} not an input")
        elif tec.inputs[tec.reference] != 1.0:
            add(
                "ReferenceYieldNotUnity",
                tec.id,
                f"reference yield is {tec.inputs[tec.reference]}, must be exactly 1",
            )
    return tuple(out)


def _generated():
    return generate_waste_case(CaseParams(3, 2, 3, 5, Variant.BASE))


def _replace_row(inst, key, i, **changes):
    """`inst` with row i of table `key` changed."""
    rows = list(getattr(inst, key))
    rows[i] = dataclasses.replace(rows[i], **changes)
    return dataclasses.replace(inst, **{key: tuple(rows)})


def _tec(inst, i, **changes):
    return _replace_row(inst, "technologies", i, **changes)


# violation code -> a mutation of the generated case that has it; several
# fall on one stakeholder, so that applied together they test the order of a
# stakeholder's violations too
MUTATIONS = {
    "DuplicateProduct": lambda inst: dataclasses.replace(inst, products=inst.products * 2),
    "NonStringProduct": lambda inst: dataclasses.replace(inst, products=inst.products + (2,)),
    "UnknownNode": lambda inst: _replace_row(
        inst, "suppliers", 1, node=SpaceTimeNode("nowhere", 0)
    ),
    "TimeOutOfRange": lambda inst: _replace_row(
        inst, "consumers", -1, node=SpaceTimeNode("hub", 9)
    ),
    "NonFiniteNumber": lambda inst: _replace_row(inst, "transporters", 0, capacity=math.inf),
    "NegativeCapacity": lambda inst: _replace_row(inst, "suppliers", 1, capacity=-2.5),
    "UnknownProduct": lambda inst: _replace_row(inst, "transporters", -1, product="biogas"),
    "DuplicateId": lambda inst: _replace_row(inst, "suppliers", 1, id=inst.suppliers[0].id),
    "NonStringId": lambda inst: _replace_row(inst, "consumers", 0, id=1),
    "UnknownArc": lambda inst: _replace_row(
        inst, "transporters", 0, arc=Arc(SpaceTimeNode("hub", 0), SpaceTimeNode("hub", 2))
    ),
    "NegativeTransportBid": lambda inst: _replace_row(inst, "transporters", 0, bid=-0.25),
    "NegativeTechnologyBid": lambda inst: _tec(inst, 0, bid=-1.0),
    "EmptyYieldSet": lambda inst: _tec(inst, -1, outputs={}),
    "OverlappingProducts": lambda inst: _tec(inst, 2, outputs={"electricity": 0.07, "waste": 0.5}),
    "NonPositiveYield": lambda inst: _tec(inst, 1, outputs={"electricity": 0.0, "heat": math.nan}),
    "ReferenceNotInInputs": lambda inst: _tec(inst, 0, reference="electricity"),
    "ReferenceYieldNotUnity": lambda inst: _tec(inst, 3, inputs={"waste": 2.0}),
}


def test_mutations_cover_every_code():
    assert {v.code for v in reference_violations(_all_mutations())} == set(MUTATIONS)


def _all_mutations():
    return functools.reduce(lambda inst, mutate: mutate(inst), MUTATIONS.values(), _generated())


def _unsorted(inst):
    """`inst` with every table in reverse id order."""
    return dataclasses.replace(
        inst, **{key: tuple(getattr(inst, key))[::-1] for key in TABLES}
    )


@pytest.mark.parametrize("code", list(MUTATIONS))
def test_validate_matches_the_walk_per_code(code):
    for inst in (_generated(), _unsorted(_generated())):
        bad = MUTATIONS[code](inst)
        violations = validate(bad).violations
        assert violations == reference_violations(bad)
        assert code in {v.code for v in violations}


def test_validate_matches_the_walk_on_every_fault_at_once():
    # faults in several tables and several on one technology, in both row orders
    for inst in (_all_mutations(), _unsorted(_all_mutations())):
        assert len(validate(inst).violations) > len(MUTATIONS)
        assert validate(inst).violations == reference_violations(inst)


def test_validate_matches_the_walk_on_random_instances():
    for seed in range(60):
        inst = random_instance(seed)
        assert validate(inst).violations == reference_violations(inst) == ()
        bad = _unsorted(_replace_row(inst, "suppliers", 0, capacity=-1.0, bid=math.nan))
        assert validate(bad).violations == reference_violations(bad) != ()


def test_a_value_that_is_no_number_is_reported_as_the_walk_reports_it():
    # a row constructor given text where a number belongs: its table holds NaN
    inst = _generated()
    rows = {key: list(getattr(inst, key)) for key in TABLES}
    rows["suppliers"][2] = dataclasses.replace(rows["suppliers"][2], bid="1.5")
    rows["technologies"][0] = dataclasses.replace(
        rows["technologies"][0], outputs={"electricity": "0.07"}
    )
    given = types.SimpleNamespace(
        products=inst.products, grid=inst.grid, graph=inst.graph, **rows
    )
    bad = dataclasses.replace(inst, **rows)
    assert validate(bad).violations == reference_violations(given)
    assert [v.code for v in validate(bad).violations] == ["NonFiniteNumber", "NonPositiveYield"]


@pytest.mark.parametrize("time", [1.5, "0", True, [0]])
def test_a_time_that_is_no_integer_is_outside_the_grid(time):
    # a row constructor or `Table.from_columns` may be given any value; the
    # table keeps it as given and validation names it
    bad = _replace_row(two_var_market(), "suppliers", 0, node=SpaceTimeNode("n1", time))
    outside = Violation("TimeOutOfRange", "i1", f"time index {time!r} outside grid")
    assert validate(bad).violations == (outside,)
    inst = storage_market()
    for end in ("base_time", "recv_time"):
        columns = {**inst.transporters.columns, end: (time,)}
        bad = dataclasses.replace(
            inst, transporters=Table.from_columns(TransportProvider, columns)
        )
        outside = Violation("TimeOutOfRange", "l1", f"time index {time!r} outside grid")
        assert outside in validate(bad).violations, end


@pytest.mark.parametrize(
    "base_time, recv_time, faults, rejected",
    [
        ("0", 1, ["TimeOutOfRange", "UnknownArc"], TypeError),
        (1, 0, ["UnknownArc"], BackwardTimeArc),
        (1.5, 1, ["TimeOutOfRange", "UnknownArc"], BackwardTimeArc),
        (0, 0, ["UnknownArc"], SelfLoopArc),
    ],
)
def test_a_transporter_row_reads_back_as_stored(base_time, recv_time, faults, rejected):
    # a table reports a bad arc through validation; reading its row back
    # gives the stored values and never raises, while `Arc` itself rejects it
    inst = storage_market()
    columns = {**inst.transporters.columns, "base_time": (base_time,), "recv_time": (recv_time,)}
    bad = dataclasses.replace(inst, transporters=Table.from_columns(TransportProvider, columns))
    assert codes(bad) == faults
    [row] = list(bad.transporters)
    assert row == bad.transporters[0] == bad.transporters[-1]
    assert (row.arc.base, row.arc.receiving) == (
        SpaceTimeNode("n1", base_time), SpaceTimeNode("n1", recv_time)
    )
    assert row.arc == Arc.stored(row.arc.base, row.arc.receiving)
    with pytest.raises(rejected):
        Arc(row.arc.base, row.arc.receiving)


def test_a_numpy_integer_time_is_an_index():
    inst = _replace_row(two_var_market(), "suppliers", 0, node=SpaceTimeNode("n1", np.int64(0)))
    assert validate(inst).ok
    assert inst.suppliers.time.dtype == np.int64 and inst.suppliers[0] == two_var_market().suppliers[0]


@pytest.mark.parametrize("build", [tech_market, _generated])
def test_every_column_has_one_entry_per_stakeholder(build):
    inst = build()
    for instance in (inst, instance_from_dict(instance_to_dict(inst))):
        for t in instance.tables:
            assert list(t.columns) == list(COLUMNS[t.row])
            assert [len(column) for column in t.columns.values()] == [len(t)] * len(t.columns)


def test_a_table_owns_its_maps():
    # neither the maps given to a row constructor nor those of a row read
    # back are the table's own
    inputs, outputs = {"waste": 1.0}, {"biogas": 2.0}
    inst = _tec(tech_market(), 0, inputs=inputs, outputs=outputs)
    report = validate(inst)
    inputs["waste"], outputs["biogas"] = 2.0, -1.0
    row = inst.technologies[0]
    row.inputs["waste"] = 3.0
    row.outputs.clear()
    row = inst.technologies[0]
    assert (row.inputs, row.outputs) == ({"waste": 1.0}, {"biogas": 2.0})
    lp, index = assemble_primal(inst)  # reads the table's yields
    assert lp.A.toarray()[:, index.col_of["m1"]].tolist() == [2.0, -1.0]
    assert validate(inst) is report and report.ok
    assert validate(dataclasses.replace(inst)).ok  # a new instance over the same tables


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda inst: _replace_row(inst, "suppliers", 0, id=1), "NonStringId"),
        (lambda inst: dataclasses.replace(inst, products=inst.products + (2,)), "NonStringProduct"),
        # a list, which cannot be hashed, where a string belongs
        (lambda inst: _replace_row(inst, "suppliers", 0, id=["x"]), "NonStringId"),
        (
            lambda inst: dataclasses.replace(inst, products=inst.products + (["q"],)),
            "NonStringProduct",
        ),
        (lambda inst: _replace_row(inst, "suppliers", 0, product=["q"]), "UnknownProduct"),
        (
            lambda inst: _replace_row(inst, "suppliers", 0, node=SpaceTimeNode(["n"], 0)),
            "UnknownNode",
        ),
    ],
)
def test_an_id_or_product_that_is_no_string_stops_the_clearing(mutate, code):
    # the clearing sorts each table by id and the products by name, and a
    # sort of a string and an integer raises TypeError
    bad = mutate(_generated())
    assert validate(bad).violations == reference_violations(bad)
    assert [v.code for v in validate(bad).violations] == [code]
    with pytest.raises(InvalidInstance):
        clear(bad)


def test_values_that_cannot_be_hashed_are_reported_together():
    # a list where a string belongs is never known or repeated: here as a
    # supplier's id, product and node, as a product, twice as an id (the
    # two equal, yet no repeat) and as a technology's reference
    bad = _replace_row(
        tech_market(), "suppliers", 0, id=["x"], product=["q"], node=SpaceTimeNode(["n"], 0)
    )
    bad = dataclasses.replace(bad, products=bad.products + (["q"],))
    bad = _replace_row(_tec(bad, 0, reference=["waste"]), "consumers", 0, id=["x"])
    codes = [v.code for v in validate(bad).violations]
    assert codes == [
        "NonStringProduct", "NonStringId", "UnknownNode", "UnknownProduct", "NonStringId",
        "ReferenceNotInInputs",
    ]
    assert validate(bad).violations == reference_violations(bad)
