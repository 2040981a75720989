"""Time-expanded graph: space-time nodes, oriented arcs, and arc classification.

A space-time node pairs a spatial location with an index into a uniform time
grid.  Arcs move product between space-time nodes and fall into exactly one of
three classes: spatial (same time), temporal (same location, i.e. storage), or
spatio-temporal (both coordinates differ, i.e. transport with a delay).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


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
    """Strictly increasing time points with a uniform step.

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
        if not self.step > 0:
            raise GraphError("time step must be positive")
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
        if self.receiving.time < self.base.time:
            raise BackwardTimeArc(f"arc {self.base} -> {self.receiving} moves backward in time")
        if self.base == self.receiving:
            raise SelfLoopArc(f"self-loop arc at {self.base}")

    @classmethod
    def stored(cls, base: SpaceTimeNode, receiving: SpaceTimeNode) -> Arc:
        """The arc between two nodes as a table stores it, unchecked: a
        table keeps what it was given, and validation reports its faults."""
        arc = object.__new__(cls)
        object.__setattr__(arc, "base", base)
        object.__setattr__(arc, "receiving", receiving)
        return arc


class ArcClass(Enum):
    SPATIAL = "spatial"
    TEMPORAL = "temporal"
    SPATIO_TEMPORAL = "spatiotemporal"


def classify_arc(arc: Arc) -> ArcClass:
    """Classify an arc; the three classes partition all valid arcs."""
    same_time = arc.base.time == arc.receiving.time
    same_node = arc.base.node == arc.receiving.node
    if same_time:
        return ArcClass.SPATIAL
    if same_node:
        return ArcClass.TEMPORAL
    return ArcClass.SPATIO_TEMPORAL


@dataclass(frozen=True)
class Graph:
    """Immutable space-time graph: sorted nodes, a time grid, deduplicated arcs.

    Safe to share read-only across workers; nothing mutates after build.
    """

    nodes: tuple[str, ...]
    grid: TimeGrid
    arcs: tuple[Arc, ...]

    @property
    def st_node_count(self) -> int:
        return len(self.nodes) * len(self.grid)


def build_graph(nodes: Iterable[str], grid: TimeGrid, arcs: Iterable[Arc]) -> Graph:
    """Validate arc endpoints against the node set and grid; deduplicate arcs."""
    node_tuple = tuple(sorted(set(nodes)))
    node_set = set(node_tuple)
    seen: dict[Arc, None] = {}
    for arc in arcs:
        for end in (arc.base, arc.receiving):
            if end.node not in node_set:
                raise UnknownNode(f"arc endpoint references unregistered node {end.node!r}")
            if not (0 <= end.time < len(grid)):
                raise TimeOutOfRange(
                    f"time index {end.time} outside grid of length {len(grid)}"
                )
        seen.setdefault(arc, None)
    return Graph(nodes=node_tuple, grid=grid, arcs=tuple(seen))
