"""Shared market fixtures: the three hand-solvable micro-markets plus a seeded
random-instance generator used by the property suites, and readers of a
clearing solution's prices and allocations by label."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from stclear.clearing_lp import LinearProgram, assemble_dual, assemble_primal
from stclear.market_model import (
    Consumer,
    MarketInstance,
    Supplier,
    TechnologyProvider,
    TransportProvider,
)
from stclear.settlement import capacity_duals
from stclear.stgraph import Arc, SpaceTimeNode, TimeGrid, build_graph


def arc_class(arc: Arc) -> str:
    """The class of an arc, written out independently of the clearing LP's:
    spatial if its ends share a time, else temporal (storage) if they share
    a node, else spatiotemporal (transport with a delay)."""
    if arc.base.time == arc.receiving.time:
        return "spatial"
    return "temporal" if arc.base.node == arc.receiving.node else "spatiotemporal"


def _instance(products, grid, nodes, arcs, sup=(), con=(), tra=(), tec=()):
    graph = build_graph(nodes, grid, arcs)
    return MarketInstance(
        products=tuple(products),
        grid=grid,
        graph=graph,
        suppliers=tuple(sup),
        consumers=tuple(con),
        transporters=tuple(tra),
        technologies=tuple(tec),
    )


def two_var_market():
    """Supplier (cap 10, bid 2) and consumer (cap 5, bid 8) at one node."""
    grid = TimeGrid.hourly(1)
    s = SpaceTimeNode("n1", 0)
    return _instance(
        ["p1"],
        grid,
        ["n1"],
        [],
        sup=[Supplier("i1", s, "p1", 10.0, 2.0)],
        con=[Consumer("j1", s, "p1", 5.0, 8.0)],
    )


def storage_market():
    """Supplier at t0 (bid 1, cap 5), consumer at t1 (bid 10, cap 5), storage
    arc t0->t1 (bid 0.5, cap 5)."""
    grid = TimeGrid.hourly(2)
    s0 = SpaceTimeNode("n1", 0)
    s1 = SpaceTimeNode("n1", 1)
    arc = Arc(s0, s1)
    return _instance(
        ["p1"],
        grid,
        ["n1"],
        [arc],
        sup=[Supplier("i1", s0, "p1", 5.0, 1.0)],
        con=[Consumer("j1", s1, "p1", 5.0, 10.0)],
        tra=[TransportProvider("l1", arc, "p1", 5.0, 0.5)],
    )


def transport_market():
    """Two spatial nodes: supplier bid 1 cap 10 at n1, consumer bid 5 cap 4 at
    n2, transporter bid 1 cap 10."""
    grid = TimeGrid.hourly(1)
    s1 = SpaceTimeNode("n1", 0)
    s2 = SpaceTimeNode("n2", 0)
    arc = Arc(s1, s2)
    return _instance(
        ["p1"],
        grid,
        ["n1", "n2"],
        [arc],
        sup=[Supplier("i1", s1, "p1", 10.0, 1.0)],
        con=[Consumer("j1", s2, "p1", 4.0, 5.0)],
        tra=[TransportProvider("l1", arc, "p1", 10.0, 1.0)],
    )


def dry_market():
    """Consumer bid strictly below supplier bid; nothing clears."""
    grid = TimeGrid.hourly(1)
    s = SpaceTimeNode("n1", 0)
    return _instance(
        ["p1"],
        grid,
        ["n1"],
        [],
        sup=[Supplier("i1", s, "p1", 10.0, 6.0)],
        con=[Consumer("j1", s, "p1", 5.0, 2.0)],
    )


def tech_market():
    """Waste supplier with tipping fee feeding a 1 waste -> 2 biogas
    technology and a biogas consumer, all at one node."""
    grid = TimeGrid.hourly(1)
    s = SpaceTimeNode("n1", 0)
    return _instance(
        ["waste", "biogas"],
        grid,
        ["n1"],
        [],
        sup=[Supplier("i1", s, "waste", 6.0, -2.0)],
        con=[Consumer("j1", s, "biogas", 8.0, 3.0)],
        tec=[
            TechnologyProvider(
                "m1", s, inputs={"waste": 1.0}, outputs={"biogas": 2.0},
                reference="waste", capacity=5.0, bid=0.5,
            )
        ],
    )


def empty_market():
    return _instance(["p1"], TimeGrid.hourly(1), ["n1"], [])


def scale_bids(instance: MarketInstance, k: float) -> MarketInstance:
    rep = dataclasses.replace
    return rep(
        instance,
        suppliers=tuple(rep(x, bid=k * x.bid) for x in instance.suppliers),
        consumers=tuple(rep(x, bid=k * x.bid) for x in instance.consumers),
        transporters=tuple(rep(x, bid=k * x.bid) for x in instance.transporters),
        technologies=tuple(rep(x, bid=k * x.bid) for x in instance.technologies),
    )


def restated(doc: dict, product: str, k: float) -> dict:
    """A copy of an instance document with `product` restated in a unit of
    1/k of its own, so that each of its quantities is k times what it was:
    each capacity of that product times k, each bid over k and each yield
    of it times k.  A technology whose reference product it is keeps its
    reference yield at exactly 1: its capacity goes times k, its bid over k
    and its other yields over k.  The market is the same, so its surplus
    and every audit verdict should be too; electricity from MWh in TWh is
    `restated(doc, "electricity", 1e-6)`."""
    doc = copy.deepcopy(doc)
    for key in ("suppliers", "consumers", "transporters"):
        for entry in (e for e in doc[key] if e["product"] == product):
            entry["capacity"] *= k
            entry["bid"] /= k
    for entry in doc["technologies"]:
        reference = entry["reference"] == product
        for yields in (entry["inputs"], entry["outputs"]):
            for p in yields:
                if reference and p != product:
                    yields[p] /= k
                elif not reference and p == product:
                    yields[p] *= k
        if reference:
            entry["capacity"] *= k
            entry["bid"] /= k
    return doc


def random_instance(seed: int) -> MarketInstance:
    """Seeded random market: mixed bid signs, all three arc classes, multi-
    input technologies, occasional zero capacities and dry corners."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(1, 5))
    n_times = int(rng.integers(1, 7))
    n_prods = int(rng.integers(1, 4))
    nodes = [f"n{i}" for i in range(n_nodes)]
    prods = [f"p{i}" for i in range(n_prods)]
    grid = TimeGrid.hourly(n_times)

    def st():
        return SpaceTimeNode(nodes[rng.integers(n_nodes)], int(rng.integers(n_times)))

    def cap():
        return 0.0 if rng.random() < 0.08 else float(np.round(rng.uniform(0.0, 10.0), 3))

    sup = [
        Supplier(f"i{k}", st(), prods[rng.integers(n_prods)], cap(),
                 float(np.round(rng.uniform(-5.0, 10.0), 3)))
        for k in range(int(rng.integers(1, 9)))
    ]
    con = [
        Consumer(f"j{k}", st(), prods[rng.integers(n_prods)], cap(),
                 float(np.round(rng.uniform(-5.0, 15.0), 3)))
        for k in range(int(rng.integers(1, 9)))
    ]
    tra = []
    arcs = []
    for k in range(int(rng.integers(0, 11))):
        base = st()
        kind = rng.integers(3)
        if kind == 0 and n_nodes > 1:  # spatial
            others = [x for x in nodes if x != base.node]
            recv = SpaceTimeNode(others[rng.integers(len(others))], base.time)
        elif kind == 1 and base.time + 1 < n_times:  # temporal
            recv = SpaceTimeNode(base.node, int(rng.integers(base.time + 1, n_times)))
        else:  # spatio-temporal when possible
            if n_nodes > 1 and base.time + 1 < n_times:
                others = [x for x in nodes if x != base.node]
                recv = SpaceTimeNode(
                    others[rng.integers(len(others))],
                    int(rng.integers(base.time + 1, n_times)),
                )
            else:
                continue
        arc = Arc(base, recv)
        arcs.append(arc)
        tra.append(
            TransportProvider(f"l{k}", arc, prods[rng.integers(n_prods)], cap(),
                              float(np.round(rng.uniform(0.0, 3.0), 3)))
        )
    tec = []
    if n_prods >= 2:
        for k in range(int(rng.integers(0, 5))):
            perm = list(rng.permutation(n_prods))
            n_in = int(rng.integers(1, min(2, n_prods - 1) + 1))
            ins = [prods[i] for i in perm[:n_in]]
            outs = [prods[i] for i in perm[n_in: n_in + int(rng.integers(1, n_prods - n_in + 1))]]
            inputs = {p: 1.0 if p == ins[0] else float(np.round(rng.uniform(0.25, 2.0), 3))
                      for p in ins}
            outputs = {p: float(np.round(rng.uniform(0.25, 2.0), 3)) for p in outs}
            tec.append(
                TechnologyProvider(
                    f"m{k}", st(), inputs=inputs, outputs=outputs, reference=ins[0],
                    capacity=cap(), bid=float(np.round(rng.uniform(0.0, 2.0), 3)),
                )
            )
    # a few arcs nobody uses, to exercise unpriced (s, p) pairs downstream
    if n_nodes > 1 and rng.random() < 0.3:
        base = SpaceTimeNode(nodes[0], 0)
        recv = SpaceTimeNode(nodes[1], 0)
        if Arc(base, recv) not in arcs:
            arcs.append(Arc(base, recv))
    return _instance(prods, grid, nodes, arcs, sup=sup, con=con, tra=tra, tec=tec)


def col(solution, who: str) -> int:
    """The LP column of stakeholder `who` in a clearing solution or a
    settlement report, both of which carry the `index`."""
    return solution.index.col_of[who]


def price_at(solution, node: str, t: int, product: str) -> float:
    """The nodal price of `product` at (node, t): y at its clearing row."""
    return float(solution.result.y[solution.index.row_of[(node, t, product)]])


def allocation(solution, who: str) -> float:
    return float(solution.result.x[col(solution, who)])


def capacity_dual(solution, who: str) -> float:
    return float(capacity_duals(solution.lp, solution.result)[col(solution, who)])


def explicit_dual(instance: MarketInstance) -> LinearProgram:
    """`assemble_dual` with one price per row of the instance's primal."""
    return assemble_dual(instance, assemble_primal(instance)[1])
