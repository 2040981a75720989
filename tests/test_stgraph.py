import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from stclear.stgraph import (
    Arc,
    BackwardTimeArc,
    Graph,
    GraphError,
    SelfLoopArc,
    SpaceTimeNode,
    TimeGrid,
    TimeOutOfRange,
    UnknownNode,
    build_graph,
    graph_of,
    integer,
)


def st(n, t):
    return SpaceTimeNode(n, t)


class TestTimeGrid:
    def test_minimal(self):
        g = TimeGrid((0.0,), 1.0)
        assert len(g) == 1

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            TimeGrid((), 1.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(GraphError):
            TimeGrid((0.0, 0.0), 1.0)

    def test_rejects_non_uniform(self):
        with pytest.raises(GraphError):
            TimeGrid((0.0, 1.0, 3.0), 1.0)
        # the allowed gap is relative to the step, also below a step of 1
        times = (0.0, 1e-10, 5e-10, 6e-10, 7e-10, 8e-10)
        with pytest.raises(GraphError, match="between 1e-10 and 5e-10; expected 1e-10$"):
            TimeGrid(times, 1e-10)

    def test_accepts_uniform_small_step(self):
        g = TimeGrid(tuple(k * 1e-10 for k in range(24)), 1e-10)
        assert len(g) == 24

    @pytest.mark.parametrize(
        "step,text",
        [
            (-1.0, "positive"),
            (0.0, "positive"),
            (math.nan, "positive"),
            # an infinite step would pass the uniform-step check for any times
            (math.inf, "finite"),
        ],
    )
    def test_rejects_bad_step(self, step, text):
        with pytest.raises(GraphError, match=f"^time step must be {text}$"):
            TimeGrid((0.0, 1.0, 5.0), step)

    @pytest.mark.parametrize(
        "times", [(math.inf,), (math.nan,), (-math.inf,), (0.0, math.inf)]
    )
    def test_rejects_non_finite_time(self, times):
        with pytest.raises(GraphError, match="^time points must be finite$"):
            TimeGrid(times, 1.0)


@given(
    hst.sampled_from(["a", "b", "c"]),
    hst.integers(0, 5),
    hst.sampled_from(["a", "b", "c"]),
    hst.integers(0, 5),
)
def test_arc_rejects_exactly_backward_arcs_and_self_loops(nb, tb, nr, tr):
    if tr < tb or (nb == nr and tb == tr):
        with pytest.raises((BackwardTimeArc, SelfLoopArc)) as refused:
            Arc(st(nb, tb), st(nr, tr))
        # `graph_of` refuses the same arc with the same error and text
        with pytest.raises(refused.type) as e:
            graph_of("abc", TimeGrid.hourly(6), [(nb, tb, nr, tr)])
        assert str(e.value) == str(refused.value)
        return
    arc = Arc(st(nb, tb), st(nr, tr))
    assert build_graph("abc", TimeGrid.hourly(6), [arc]).arcs == ((nb, tb, nr, tr),)


@pytest.mark.parametrize(
    "ends, error, message",
    [
        (
            ("a", 1, "a", 0), BackwardTimeArc,
            "arc SpaceTimeNode(node='a', time=1) -> SpaceTimeNode(node='a', time=0)"
            " moves backward in time",
        ),
        (
            ("a", np.int64(1), "b", np.int32(0)), BackwardTimeArc,
            "arc SpaceTimeNode(node='a', time=1) -> SpaceTimeNode(node='b', time=0)"
            " moves backward in time",
        ),
        (("a", 0, "a", 0), SelfLoopArc, "self-loop arc at SpaceTimeNode(node='a', time=0)"),
        # the ends are checked before the direction
        (("a", 3, "a", 2), TimeOutOfRange, "time index 3 outside grid of length 2"),
        (("a", 1, "z", 0), UnknownNode, "arc endpoint references unregistered node 'z'"),
    ],
)
def test_graph_of_refuses_backward_arcs_and_self_loops(ends, error, message):
    with pytest.raises(error) as e:
        graph_of(["a", "b"], TimeGrid.hourly(2), [("a", 0, "a", 1), ends])
    assert str(e.value) == message


def test_arc_rejects_backward_time():
    with pytest.raises(BackwardTimeArc):
        Arc(st("n1", 4), st("n1", 3))


def test_arc_rejects_self_loop():
    with pytest.raises(SelfLoopArc):
        Arc(st("n1", 3), st("n1", 3))


class TestBuildGraph:
    def test_smallest_instance(self):
        g = build_graph({"n1"}, TimeGrid.hourly(1), [])
        assert g.st_node_count == 1
        assert g.arcs == ()

    def test_counting(self):
        grid = TimeGrid.hourly(2)
        arcs = [Arc(st("n1", 0), st("n2", 0)), Arc(st("n1", 0), st("n1", 1))]
        g = build_graph({"n1", "n2"}, grid, arcs)
        assert g.st_node_count == 4
        assert g.arcs == (("n1", 0, "n2", 0), ("n1", 0, "n1", 1))

    def test_case_study_scale_node_count(self):
        # 245 CAFOs + hub over a week of hourly periods
        g = build_graph([f"n{i}" for i in range(246)], TimeGrid.hourly(168), [])
        assert g.st_node_count == 41_328

    def test_deduplicates_arcs(self):
        grid = TimeGrid.hourly(2)
        a = Arc(st("n1", 0), st("n1", 1))
        g = build_graph({"n1"}, grid, [a, Arc(st("n1", 0), st("n1", 1))])
        assert len(g.arcs) == 1

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            build_graph({"n1"}, TimeGrid.hourly(2), [Arc(st("n1", 0), st("n2", 0))])

    def test_time_out_of_range(self):
        with pytest.raises(TimeOutOfRange):
            build_graph({"n1", "n2"}, TimeGrid.hourly(1), [Arc(st("n1", 0), st("n2", 1))])

    @pytest.mark.parametrize(
        "ends, error, message",
        [
            (("n9", 0.5, "n8", 0), UnknownNode, "arc endpoint references unregistered node 'n9'"),
            (("n1", 2, "n8", 0), TimeOutOfRange, "time index 2 outside grid of length 2"),
            (("n1", 0, "n8", 5), UnknownNode, "arc endpoint references unregistered node 'n8'"),
            (("n1", 0, "n1", 2), TimeOutOfRange, "time index 2 outside grid of length 2"),
        ],
    )
    def test_first_bad_end_in_arc_order(self, ends, error, message):
        # each arc's base node, base time, receiving node, receiving time,
        # arc by arc: the later bad arc is never reached
        with pytest.raises(error) as e:
            graph_of({"n1"}, TimeGrid.hourly(2), [("n1", 0, "n1", 1), ends, ("n7", 9, "n7", 9)])
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "time, shown",
        [
            (0.5, "0.5"), (True, "True"), ("0", "'0'"), (1.0, "1.0"), (None, "None"),
            (2, "2"), (np.int64(-1), "-1"),
        ],
    )
    def test_a_time_is_an_integer_index(self, time, shown):
        # a time index is an integer, Python's or numpy's, never a bool.  A
        # bad time that is no integer is named by its repr, so the string "0"
        # does not read as the valid index 0; an integer keeps its plain text
        with pytest.raises(TimeOutOfRange) as e:
            build_graph(["n1"], TimeGrid.hourly(2), [Arc.stored(st("n1", 0), st("n1", time))])
        assert str(e.value) == f"time index {shown} outside grid of length 2"

    def test_numpy_integer_times_are_stored_as_int(self):
        g = graph_of(["n1"], TimeGrid.hourly(2), [("n1", np.int64(0), "n1", np.int32(1))])
        assert g.arcs == (("n1", 0, "n1", 1),)
        assert {type(t) for arc in g.arcs for t in arc[1::2]} == {int}


def walked_graph_of(nodes, grid, ends):
    """The reference for `graph_of`: each arc checked in turn, base end
    first, node before time, then its direction, and kept unless given
    before."""
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
        base_time, recv_time = int(base_time), int(recv_time)
        Arc.check(SpaceTimeNode(base_node, base_time), SpaceTimeNode(recv_node, recv_time))
        arcs.setdefault((base_node, base_time, recv_node, recv_time), None)
    return Graph(nodes=node_tuple, grid=grid, arcs=tuple(arcs))


_NODES = ["a", "b", "c"]
_BAD_NODES = ["z", "", ["a"]]  # unknown, and one that cannot be hashed
_BAD_TIMES = [True, False, "0", "1", 0.0, 1.0, 2.5, -1, 4, 10**20, np.int64(-1), np.uint8(4)]
_NUMPY_INTS = [np.int64, np.int32, np.uint8, np.intp]


@hst.composite
def arc_lists(draw):
    """Valid arcs over nodes a-c and a grid of 4 times, some of them then
    mutated: a bad node or time, a numpy integer time, a backward arc, a
    self-loop or an arc given again."""
    arcs = []
    for _ in range(draw(hst.integers(0, 6))):
        base, recv = draw(hst.sampled_from(_NODES)), draw(hst.sampled_from(_NODES))
        t = draw(hst.integers(0, 3))
        u = draw(hst.integers(t, 3))
        if (base, t) == (recv, u):
            recv = _NODES[(_NODES.index(base) + 1) % 3]
        arcs.append([base, t, recv, u])
    for _ in range(draw(hst.integers(0, 3)) if arcs else 0):
        arc = draw(hst.sampled_from(arcs))
        kind = draw(hst.sampled_from(["node", "time", "numpy", "backward", "loop", "repeat"]))
        if kind == "node":
            arc[draw(hst.sampled_from([0, 2]))] = draw(hst.sampled_from(_BAD_NODES))
        elif kind == "time":
            arc[draw(hst.sampled_from([1, 3]))] = draw(hst.sampled_from(_BAD_TIMES))
        elif kind == "numpy":
            k = draw(hst.sampled_from([1, 3]))
            if arc[k] in range(4):
                arc[k] = draw(hst.sampled_from(_NUMPY_INTS))(arc[k])
        elif kind == "backward":
            arc[1], arc[3] = arc[3], arc[1]
        elif kind == "loop":
            arc[2:] = arc[:2]
        else:
            arcs.insert(draw(hst.integers(0, len(arcs))), list(arc))
    return [tuple(arc) for arc in arcs]


def _outcome(build, ends):
    """The graph's nodes, arcs and time types, or the class and text of the
    error that refuses the arcs."""
    try:
        g = build(_NODES, TimeGrid.hourly(4), iter(ends))
    except (GraphError, TypeError) as e:
        return type(e), str(e)
    return g.nodes, g.arcs, [type(t) for arc in g.arcs for t in arc[1::2]]


@settings(max_examples=300)
@given(arc_lists())
@example([("a", 0, "b", 1), ("a", np.int64(0), "b", 1)])
@example([("a", np.int64(-1), "b", 1)])
@example([("a", 0, "b", np.uint8(4))])
@example([("a", 0, "b", True)])
@example([("a", 1.0, "b", 1), (["a"], 0, "b", 1)])
def test_the_column_check_refuses_what_the_walk_refuses(ends):
    assert _outcome(graph_of, ends) == _outcome(walked_graph_of, ends)
