import pytest
from hypothesis import given
from hypothesis import strategies as hst

from stclear.stgraph import (
    Arc,
    ArcClass,
    BackwardTimeArc,
    GraphError,
    SelfLoopArc,
    SpaceTimeNode,
    TimeGrid,
    TimeOutOfRange,
    UnknownNode,
    build_graph,
    classify_arc,
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

    def test_rejects_bad_step(self):
        with pytest.raises(GraphError):
            TimeGrid((0.0, 1.0), -1.0)


@pytest.mark.parametrize(
    "arc,expected",
    [
        (Arc(st("n1", 3), st("n2", 3)), ArcClass.SPATIAL),
        (Arc(st("n1", 3), st("n1", 4)), ArcClass.TEMPORAL),
        (Arc(st("n1", 3), st("n2", 5)), ArcClass.SPATIO_TEMPORAL),
    ],
)
def test_classify_arc(arc, expected):
    assert classify_arc(arc) == expected


@given(
    hst.sampled_from(["a", "b", "c"]),
    hst.integers(0, 5),
    hst.sampled_from(["a", "b", "c"]),
    hst.integers(0, 5),
)
def test_classification_is_total_and_exclusive(nb, tb, nr, tr):
    if tr < tb or (nb == nr and tb == tr):
        with pytest.raises((BackwardTimeArc, SelfLoopArc)):
            Arc(st(nb, tb), st(nr, tr))
        return
    cls = classify_arc(Arc(st(nb, tb), st(nr, tr)))
    expected = (
        ArcClass.SPATIAL if tb == tr
        else ArcClass.TEMPORAL if nb == nr
        else ArcClass.SPATIO_TEMPORAL
    )
    assert cls is expected


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
        classes = sorted(classify_arc(a).value for a in g.arcs)
        assert classes == ["spatial", "temporal"]

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

    def test_partition_is_disjoint_union(self):
        grid = TimeGrid.hourly(4)
        nodes = ["a", "b"]
        arcs = [
            Arc(st("a", 0), st("b", 0)),
            Arc(st("a", 1), st("a", 2)),
            Arc(st("b", 0), st("a", 3)),
        ]
        g = build_graph(nodes, grid, arcs)
        buckets = {cls: [] for cls in ArcClass}
        for a in g.arcs:
            buckets[classify_arc(a)].append(a)
        assert sum(len(v) for v in buckets.values()) == len(g.arcs)
