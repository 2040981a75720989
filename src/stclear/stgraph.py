"""Time-expanded graph: a time grid, space-time nodes and oriented arcs.

A space-time node pairs a spatial location with an index into a uniform time
grid.  Arcs move product between space-time nodes.  The graph holds each arc
as the plain values of its two ends, `(base_node, base_time, recv_node,
recv_time)`; `SpaceTimeNode` and `Arc` are the values that library callers
build arcs from and that a transporter's row reads back as.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class GraphError(ValueError):
    """Base class for graph construction failures."""


class UnknownNode(GraphError):
    pass


class TimeOutOfRange(GraphError):
    pass


class BackwardTimeArc(GraphError):
    pass


class SelfLoopArc(GraphError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite time points with a uniform finite step.

    The step is carried for interpretation only; allocations are per-period
    quantities and the clearing formulation never multiplies by it.
    """

    times: tuple[float, ...]
    step: float = 1.0

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if len(times) < 1:
            raise GraphError("time grid needs at least one entry")
        if not self.step > 0:  # NaN too
            raise GraphError("time step must be positive")
        if self.step == math.inf:
            raise GraphError("time step must be finite")
        if not all(map(math.isfinite, times)):
            raise GraphError("time points must be finite")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise GraphError("time points must be strictly increasing")
            if abs((b - a) - self.step) > 1e-9 * max(1.0, abs(self.step)):
                raise GraphError(
                    f"non-uniform step between {a} and {b}; expected {self.step}"
                )

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def hourly(cls, periods: int) -> "TimeGrid":
        return cls(tuple(float(t) for t in range(periods)), 1.0)


@dataclass(frozen=True)
class SpaceTimeNode:
    """A (spatial node, time index) pair; `time` indexes into a TimeGrid."""

    node: str
    time: int


# the fields of an arc's two ends, named as the instance file's, with their types
ARC = {"base_node": str, "base_time": int, "recv_node": str, "recv_time": int}


def integer(kind: type) -> bool:
    """Whether `kind` is an integer type, Python's or numpy's, but not bool:
    the types of a time index."""
    return issubclass(kind, (int, np.integer)) and kind is not bool


@dataclass(frozen=True)
class Arc:
    """Oriented arc from a base to a receiving space-time node.

    Backward-in-time arcs are rejected outright: the formulation permits them
    syntactically but they have no physical reading, so failing fast here
    catches modeling errors.  Bidirectional transport is modeled by adding the
    reverse arc explicitly.
    """

    base: SpaceTimeNode
    receiving: SpaceTimeNode

    def __post_init__(self):
        self.check(self.base, self.receiving)

    @staticmethod
    def check(base: SpaceTimeNode, receiving: SpaceTimeNode) -> None:
        """Raise if the arc from `base` to `receiving` moves backward in time
        or loops, without building it."""
        if receiving.time < base.time:
            raise BackwardTimeArc(f"arc {base} -> {receiving} moves backward in time")
        if base == receiving:
            raise SelfLoopArc(f"self-loop arc at {base}")

    @classmethod
    def stored(cls, base: SpaceTimeNode, receiving: SpaceTimeNode) -> Arc:
        """The arc between two nodes as a table stores it, unchecked: a
        table keeps what it was given, and validation reports its faults."""
        arc = object.__new__(cls)
        object.__setattr__(arc, "base", base)
        object.__setattr__(arc, "receiving", receiving)
        return arc

    @property
    def ends(self) -> tuple:
        """The arc as the graph holds it, its values in `ARC` order."""
        return (self.base.node, self.base.time, self.receiving.node, self.receiving.time)


@dataclass(frozen=True)
class Graph:
    """Immutable space-time graph: sorted nodes, a time grid, and its arcs,
    each a tuple of its end values in `ARC` order, in input order without
    repeats.  Built by `graph_of` (or `build_graph`), which checks the ends.

    Safe to share read-only across workers; nothing mutates after build.
    """

    nodes: tuple[str, ...]
    grid: TimeGrid
    arcs: tuple[tuple[str, int, str, int], ...]

    @property
    def st_node_count(self) -> int:
        return len(self.nodes) * len(self.grid)


def graph_of(nodes: Iterable[str], grid: TimeGrid, ends: Iterable[tuple]) -> Graph:
    """The graph of `nodes`, `grid` and one arc per tuple of end values in
    `ARC` order.  Each end must name a node of `nodes` and index the grid,
    checked arc by arc, base end first, node before time; an arc given
    again is dropped, the first kept.  A time that is no integer is named
    by its `repr`, so the string "0" does not read as the index 0."""
    node_tuple = tuple(sorted(set(nodes)))
    known, n = set(node_tuple), len(grid)
    arcs = {}
    for base_node, base_time, recv_node, recv_time in ends:
        for node, time in ((base_node, base_time), (recv_node, recv_time)):
            if node not in known:
                raise UnknownNode(f"arc endpoint references unregistered node {node!r}")
            if not (integer(type(time)) and 0 <= time < n):
                shown = time if integer(type(time)) else repr(time)
                raise TimeOutOfRange(f"time index {shown} outside grid of length {n}")
        arcs.setdefault((base_node, int(base_time), recv_node, int(recv_time)), None)
    return Graph(nodes=node_tuple, grid=grid, arcs=tuple(arcs))


def build_graph(nodes: Iterable[str], grid: TimeGrid, arcs: Iterable[Arc]) -> Graph:
    """`graph_of` with its arcs given as `Arc` values."""
    return graph_of(nodes, grid, (arc.ends for arc in arcs))
