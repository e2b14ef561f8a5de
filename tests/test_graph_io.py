"""Unit tests for .graph format I/O."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.io import (
    GraphFormatError,
    graph_from_edge_list,
    load_graph,
    loads_graph,
    save_graph,
    saves_graph,
)

SAMPLE = """\
t 3 2
v 0 10 1
v 1 20 2
v 2 10 1
e 0 1
e 1 2
"""


class TestParsing:
    def test_loads_basic(self):
        g = loads_graph(SAMPLE)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.labels == (10, 20, 10)
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n% other\n" + SAMPLE
        assert loads_graph(text).num_vertices == 3

    def test_string_labels(self):
        text = "t 2 1\nv 0 foo 1\nv 1 bar 1\ne 0 1\n"
        g = loads_graph(text)
        assert g.labels == ("foo", "bar")

    def test_duplicate_edges_deduped(self):
        text = "t 2 1\nv 0 0 1\nv 1 0 1\ne 0 1\ne 1 0\n"
        assert loads_graph(text).num_edges == 1

    def test_strict_checks_counts(self):
        bad = SAMPLE.replace("t 3 2", "t 3 7")
        loads_graph(bad)  # lenient mode passes
        with pytest.raises(GraphFormatError, match="declares 7 edges"):
            loads_graph(bad, strict=True)

    def test_strict_checks_degrees(self):
        bad = SAMPLE.replace("v 1 20 2", "v 1 20 9")
        with pytest.raises(GraphFormatError, match="degree"):
            loads_graph(bad, strict=True)

    def test_rejects_noncontiguous_ids(self):
        text = "t 2 0\nv 0 0 0\nv 5 0 0\n"
        with pytest.raises(GraphFormatError, match="0 .. n-1"):
            loads_graph(text)

    def test_rejects_duplicate_vertex(self):
        text = "t 2 0\nv 0 0 0\nv 0 1 0\n"
        with pytest.raises(GraphFormatError, match="duplicate vertex"):
            loads_graph(text)

    def test_rejects_unknown_record(self):
        with pytest.raises(GraphFormatError, match="unknown record"):
            loads_graph("x 1 2\n")

    def test_rejects_dangling_edge(self):
        text = "t 1 1\nv 0 0 1\ne 0 3\n"
        with pytest.raises(GraphFormatError, match="unknown vertex"):
            loads_graph(text)


class TestRoundTrip:
    def test_saves_then_loads(self):
        g = loads_graph(SAMPLE)
        assert loads_graph(saves_graph(g)) == g

    def test_file_roundtrip(self, tmp_path):
        g = loads_graph(SAMPLE)
        path = tmp_path / "g.graph"
        save_graph(g, path)
        assert load_graph(path, strict=True) == g

    def test_saved_header_is_consistent(self):
        g = loads_graph(SAMPLE)
        first = saves_graph(g).splitlines()[0]
        assert first == "t 3 2"


class TestEdgeList:
    def test_default_labels(self):
        g = graph_from_edge_list([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.labels == (0, 0, 0)

    def test_dict_labels_with_isolated(self):
        g = graph_from_edge_list([(0, 1)], labels={0: "A", 1: "B", 2: "C"})
        assert g.num_vertices == 3
        assert g.degree(2) == 0

    def test_list_labels_must_cover(self):
        with pytest.raises(ValueError):
            graph_from_edge_list([(0, 2)], labels=["A", "B"])


def builder_path(text):
    """The graph ``text`` describes, every record through GraphBuilder
    (``loads_graph`` used to call ``add_edge`` once per edge)."""
    builder = GraphBuilder()
    vertices = {}
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            label = parts[2]
            vertices[int(parts[1])] = int(label) if label.lstrip("-").isdigit() else label
        elif parts and parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    builder.add_vertices(vertices[v] for v in range(len(vertices)))
    builder.add_edges(edges)
    return builder.build()


class TestBuilderEquivalence:
    @pytest.mark.parametrize("name", ["yeast", "human", "wordnet"])
    def test_bundled_datasets(self, name):
        from repro.workload.datasets import load_dataset

        text = saves_graph(load_dataset(name, scale=0.1, seed=3))
        assert loads_graph(text) == builder_path(text)

    def test_duplicate_edges(self):
        text = SAMPLE + "e 1 0\ne 0 1\ne 2 1\n"
        graph = loads_graph(text)
        assert graph == builder_path(text) == loads_graph(SAMPLE)
        assert graph.neighbors(1) == (0, 2)

    def test_self_loop_error_matches_builder(self):
        text = SAMPLE + "e 2 2\n"
        with pytest.raises(ValueError) as builder_error:
            builder_path(text)
        with pytest.raises(ValueError) as parse_error:
            loads_graph(text)
        assert type(parse_error.value) is type(builder_error.value) is ValueError
        assert str(parse_error.value) == str(builder_error.value)
        assert str(parse_error.value) == "self-loop at vertex 2 is not allowed"

    def test_dangling_edge_is_a_format_error(self):
        with pytest.raises(GraphFormatError) as error:
            loads_graph(SAMPLE + "e 0 3\n")
        assert str(error.value) == "edge (0, 3) references unknown vertex"
