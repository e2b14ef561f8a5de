"""Fig. 3-style search-tree reconstruction and rendering.

The paper's Fig. 3 draws the backtracking search as a tree: one node per
recursion (labelled with the data vertex assigned), an ``X`` mark per
conflicting extension, and shading for subtrees GuP prunes.  This module
rebuilds that tree from a :class:`~repro.analysis.trace.TraceRecorder`
event stream and renders it as indented text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.trace import TraceRecorder
from repro.core.backtrack import GuPSearch
from repro.core.config import GuPConfig
from repro.core.gcs import build_gcs
from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.utils.bitset import bits_of

_CONFLICT_MARKS = {
    "injectivity": "X inj",
    "reservation": "X R",
    "nogood_vertex": "X NV",
    "no_candidate": "X empty",
}


@dataclass
class TreeNode:
    """One search-tree node (a recursion) or conflict leaf."""

    depth: int
    vertex: Optional[int]       # data vertex assigned (None for the root)
    node_id: Optional[int]
    conflict: str = ""          # nonempty for conflict leaves
    found: bool = False
    mask: int = 0
    is_embedding_leaf: bool = False
    backjumped_after: bool = False
    children: List["TreeNode"] = field(default_factory=list)

    def count_recursions(self) -> int:
        own = 0 if self.conflict else 1
        return own + sum(c.count_recursions() for c in self.children)

    def count_conflicts(self) -> int:
        own = 1 if self.conflict else 0
        return own + sum(c.count_conflicts() for c in self.children)


@dataclass
class SearchTree:
    """The reconstructed tree plus run-level context."""

    root: TreeNode
    embeddings: List[tuple]
    query: Graph

    def num_recursions(self) -> int:
        return self.root.count_recursions()

    def num_conflicts(self) -> int:
        return self.root.count_conflicts()


def build_tree(recorder: TraceRecorder, query: Graph) -> SearchTree:
    """Fold the DFS event stream back into a tree."""
    root = TreeNode(depth=-1, vertex=None, node_id=0)
    stack = [root]
    embeddings: List[tuple] = []

    for event in recorder.events:
        top = stack[-1]
        if event.kind == "conflict":
            top.children.append(
                TreeNode(
                    depth=event.depth,
                    vertex=event.vertex,
                    node_id=None,
                    conflict=event.conflict,
                    mask=event.mask,
                )
            )
        elif event.kind == "descend":
            node = TreeNode(
                depth=event.depth,
                vertex=event.vertex,
                node_id=event.node_id,
            )
            top.children.append(node)
            stack.append(node)
        elif event.kind == "return":
            node = stack.pop()
            node.found = bool(event.found)
            node.mask = event.mask
        elif event.kind == "embedding":
            embeddings.append(event.embedding)
            top.is_embedding_leaf = True
            top.found = True
        elif event.kind == "backjump":
            top.backjumped_after = True
    return SearchTree(root=root, embeddings=embeddings, query=query)


def _render_node(node: TreeNode, lines: List[str], prefix: str, query: Graph) -> None:
    for i, child in enumerate(node.children):
        last = i == len(node.children) - 1
        branch = "`- " if last else "|- "
        label = f"u{child.depth}=v{child.vertex}"
        if child.conflict:
            mark = _CONFLICT_MARKS.get(child.conflict, "X")
            detail = ""
            if child.mask:
                detail = " mask={" + ",".join(f"u{b}" for b in bits_of(child.mask)) + "}"
            lines.append(f"{prefix}{branch}{label}  [{mark}{detail}]")
        else:
            suffix = ""
            if child.is_embedding_leaf:
                suffix = "  [FULL EMBEDDING]"
            elif not child.found:
                mask_txt = ",".join(f"u{b}" for b in bits_of(child.mask))
                suffix = f"  [deadend mask={{{mask_txt}}}]"
            if child.backjumped_after:
                suffix += "  <backjump>"
            lines.append(f"{prefix}{branch}{label}{suffix}")
            _render_node(
                child, lines, prefix + ("   " if last else "|  "), query
            )


def render_tree(tree: SearchTree) -> str:
    """Indented text rendering (the textual Fig. 3)."""
    lines = [
        f"search tree: {tree.num_recursions()} recursions, "
        f"{tree.num_conflicts()} conflicts, "
        f"{len(tree.embeddings)} embeddings"
    ]
    _render_node(tree.root, lines, "", tree.query)
    return "\n".join(lines)


def trace_search(
    query: Graph,
    data: Graph,
    config: Optional[GuPConfig] = None,
    limits: Optional[SearchLimits] = None,
    reorder: bool = True,
) -> SearchTree:
    """Run GuP under a recorder and return the reconstructed tree.

    With ``reorder=False`` the query's own vertex order is used as the
    matching order (what the paper's Fig. 3 does for its example).
    """
    config = config or GuPConfig()
    if reorder:
        gcs = build_gcs(query, data, config)
    else:
        from repro.core.gcs import GuardedCandidateSpace
        from repro.core.reservation import generate_reservation_guards
        from repro.filtering.candidate_space import build_candidate_space
        from repro.graph.algorithms import two_core_edges

        cs = build_candidate_space(query, data, method=config.filter_method)
        reservations = (
            generate_reservation_guards(cs, config.reservation_limit)
            if config.use_reservation
            else []
        )
        gcs = GuardedCandidateSpace(
            original_query=query,
            query=query,
            data=data,
            order=list(query.vertices()),
            cs=cs,
            reservations=reservations,
            two_core=frozenset(two_core_edges(query)),
        )
    recorder = TraceRecorder()
    search = GuPSearch(gcs, config=config, limits=limits, observer=recorder)
    search.run()
    return build_tree(recorder, gcs.query)


def render_search_tree(
    query: Graph,
    data: Graph,
    config: Optional[GuPConfig] = None,
    limits: Optional[SearchLimits] = None,
    reorder: bool = True,
) -> str:
    """One-call text rendering of a traced search."""
    return render_tree(trace_search(query, data, config, limits, reorder))
