"""Stakeholder declarations, the market instance container, and validation.

Four stakeholder classes participate: suppliers and consumers sit at a
space-time node and offer/request one product; transport providers sit on an
arc and move one product between its endpoints; technology providers sit at a
node and convert input products into output products at fixed yields relative
to a reference input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .stgraph import Arc, Graph, SpaceTimeNode, TimeGrid


@dataclass(frozen=True)
class Supplier:
    id: str
    node: SpaceTimeNode
    product: str
    capacity: float
    bid: float  # may be negative (tipping fee: supplier pays for removal)


@dataclass(frozen=True)
class Consumer:
    id: str
    node: SpaceTimeNode
    product: str
    capacity: float
    bid: float


@dataclass(frozen=True)
class TransportProvider:
    id: str
    arc: Arc
    product: str
    capacity: float
    bid: float  # >= 0; negative transport bids have no practical reading


@dataclass(frozen=True)
class TechnologyProvider:
    """Converts input products into output products.

    `inputs` and `outputs` map product -> yield per unit of the reference
    product; the reference is an input with yield exactly 1.
    """

    id: str
    node: SpaceTimeNode
    inputs: dict[str, float]
    outputs: dict[str, float]
    reference: str
    capacity: float
    bid: float


@dataclass(frozen=True)
class MarketInstance:
    """A market: its products, time grid, graph and stakeholders.

    Immutable by contract: its validation report is computed on first use
    and kept, so an instance must not be mutated in place (build a new one,
    for example with `dataclasses.replace`, which is validated afresh)."""

    products: tuple[str, ...]
    grid: TimeGrid
    graph: Graph
    suppliers: tuple[Supplier, ...]
    consumers: tuple[Consumer, ...]
    transporters: tuple[TransportProvider, ...]
    technologies: tuple[TechnologyProvider, ...]
    metadata: dict = field(default_factory=dict, compare=False, repr=False)

    def stakeholder_count(self) -> int:
        return (
            len(self.suppliers)
            + len(self.consumers)
            + len(self.transporters)
            + len(self.technologies)
        )

    @functools.cached_property
    def _validation(self) -> ValidationReport:
        return ValidationReport(_violations(self))


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidInstance(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(f"{v.code}[{v.subject}]: {v.message}" for v in report.violations)
        super().__init__(f"invalid market instance: {lines}")

    def __reduce__(self):
        # pickled from a `compare --jobs` worker; rebuild from the report
        return type(self), (self.report,)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate(instance: MarketInstance) -> ValidationReport:
    """Check every type invariant, dangling reference, and duplicate id.

    Report-style: returns all violations instead of raising on the first.
    The check runs once per instance object; later calls return its report.
    """
    return instance._validation


def _violations(instance: MarketInstance) -> tuple[Violation, ...]:
    """Every violation of `instance`, in check order."""
    out: list[Violation] = []
    add = lambda code, subject, msg: out.append(Violation(code, subject, msg))

    products = set(instance.products)
    if len(products) != len(instance.products):
        add("DuplicateProduct", "products", "product ids must be unique")
    nodes = set(instance.graph.nodes)
    arcs = set(instance.graph.arcs)
    n_times = len(instance.grid)

    def check_node(subject: str, s: SpaceTimeNode):
        if s.node not in nodes:
            add("UnknownNode", subject, f"node {s.node!r} not registered")
        if not (0 <= s.time < n_times):
            add("TimeOutOfRange", subject, f"time index {s.time} outside grid")

    def check_numbers(subject: str, capacity: float, bid: float):
        if not _finite(capacity) or not _finite(bid):
            add("NonFiniteNumber", subject, "capacity and bid must be finite floats")
            return
        if capacity < 0:
            add("NegativeCapacity", subject, f"capacity {capacity} < 0")

    seen_ids: set[str] = set()

    def check_id(subject: str):
        if subject in seen_ids:
            add("DuplicateId", subject, "stakeholder id reused")
        seen_ids.add(subject)

    for sup in instance.suppliers:
        check_id(sup.id)
        check_node(sup.id, sup.node)
        check_numbers(sup.id, sup.capacity, sup.bid)
        if sup.product not in products:
            add("UnknownProduct", sup.id, f"product {sup.product!r} not registered")
    for con in instance.consumers:
        check_id(con.id)
        check_node(con.id, con.node)
        check_numbers(con.id, con.capacity, con.bid)
        if con.product not in products:
            add("UnknownProduct", con.id, f"product {con.product!r} not registered")
    for tra in instance.transporters:
        check_id(tra.id)
        check_node(tra.id, tra.arc.base)
        check_node(tra.id, tra.arc.receiving)
        check_numbers(tra.id, tra.capacity, tra.bid)
        if tra.product not in products:
            add("UnknownProduct", tra.id, f"product {tra.product!r} not registered")
        if tra.arc not in arcs:
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
            if p not in products:
                add("UnknownProduct", tec.id, f"product {p!r} not registered")
            if not _finite(g) or g <= 0:
                add("NonPositiveYield", tec.id, f"yield for {p!r} must be > 0")
        if tec.reference not in tec.inputs:
            add("ReferenceNotInInputs", tec.id, f"reference {tec.reference!r} not an input")
        elif tec.inputs[tec.reference] != 1.0:
            add(
                "ReferenceYieldNotUnity",
                tec.id,
                f"reference yield is {tec.inputs[tec.reference]}, must be exactly 1",
            )
    return tuple(out)
