import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from stclear.stgraph import (
    Arc,
    BackwardTimeArc,
    GraphError,
    SelfLoopArc,
    SpaceTimeNode,
    TimeGrid,
    TimeOutOfRange,
    UnknownNode,
    build_graph,
    graph_of,
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
        with pytest.raises((BackwardTimeArc, SelfLoopArc)):
            Arc(st(nb, tb), st(nr, tr))
        return
    arc = Arc(st(nb, tb), st(nr, tr))
    assert build_graph("abc", TimeGrid.hourly(6), [arc]).arcs == ((nb, tb, nr, tr),)


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
