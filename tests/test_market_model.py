import dataclasses
import math

from stclear.market_model import validate

from _markets import empty_market, random_instance, tech_market, two_var_market


def codes(instance):
    return sorted(v.code for v in validate(instance).violations)


def test_empty_instance_is_valid():
    assert validate(empty_market()).ok


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
