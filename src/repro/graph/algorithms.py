"""Classical graph algorithms used as substrates by the matchers.

* k-core decomposition — GuP restricts nogood guards on edges to the 2-core
  of the query graph (§3.3.3): the part of the query outside the 2-core is a
  forest, where edge guards cannot capture cycle conflicts.
* BFS orders/levels — query DAG construction for DAG-graph DP filtering.
* connected components / connectivity — query generators must emit
  connected queries; matching orders must be *connected orders* (§2.2).
* degeneracy order — used by the RI-style matching order.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

from repro.graph.graph import Graph


def bfs_order(graph: Graph, root: int) -> List[int]:
    """Vertices in BFS order from ``root`` (only the reachable ones)."""
    seen = [False] * graph.num_vertices
    seen[root] = True
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if not seen[w]:
                seen[w] = True
                order.append(w)
                queue.append(w)
    return order


def bfs_levels(graph: Graph, root: int) -> Dict[int, int]:
    """Map from reachable vertex to its BFS depth from ``root``."""
    levels = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w not in levels:
                levels[w] = levels[u] + 1
                queue.append(w)
    return levels


def connected_components(graph: Graph) -> List[List[int]]:
    """Connected components as sorted vertex lists, largest first."""
    seen = [False] * graph.num_vertices
    components: List[List[int]] = []
    for start in graph.vertices():
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
                    queue.append(w)
        components.append(sorted(component))
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if graph.num_vertices == 0:
        return True
    return len(bfs_order(graph, 0)) == graph.num_vertices


def core_numbers(graph: Graph) -> List[int]:
    """Core number of every vertex (Batagelj–Zaversnik peeling, O(V + E)).

    The core number of ``v`` is the largest ``k`` such that ``v`` belongs
    to the k-core (maximal subgraph of minimum degree ``k``).
    """
    n = graph.num_vertices
    if n == 0:
        return []
    degree = [graph.degree(v) for v in range(n)]
    max_degree = max(degree)

    # Vertices sorted by degree via counting sort, with position tracking
    # so a vertex can be swapped toward the front when its degree drops.
    bin_start = [0] * (max_degree + 2)
    for d in degree:
        bin_start[d + 1] += 1
    for d in range(1, max_degree + 2):
        bin_start[d] += bin_start[d - 1]
    next_free = list(bin_start[: max_degree + 1])
    position = [0] * n
    ordered = [0] * n
    for v in range(n):
        position[v] = next_free[degree[v]]
        ordered[position[v]] = v
        next_free[degree[v]] += 1

    core = list(degree)
    for i in range(n):
        v = ordered[i]
        for w in graph.neighbors(v):
            if core[w] > core[v]:
                # Swap w with the first vertex of its degree bucket, then
                # shrink w's bucket boundary and decrement its degree.
                dw = core[w]
                pw = position[w]
                ps = bin_start[dw]
                s = ordered[ps]
                if s != w:
                    ordered[pw], ordered[ps] = s, w
                    position[w], position[s] = ps, pw
                bin_start[dw] += 1
                core[w] -= 1
    return core


def k_core_vertices(graph: Graph, k: int) -> Set[int]:
    """Vertices of the k-core (possibly empty)."""
    return {v for v, c in enumerate(core_numbers(graph)) if c >= k}


def two_core_edges(graph: Graph) -> Set[Tuple[int, int]]:
    """Edges with both endpoints in the 2-core, as ``(min, max)`` pairs.

    GuP generates nogood guards only for candidate edges whose query edge
    lies in the 2-core (§3.3.3); everything outside is a forest.
    """
    core = k_core_vertices(graph, 2)
    return {(u, v) for u, v in graph.edges() if u in core and v in core}


def degeneracy_order(graph: Graph) -> List[int]:
    """Vertices in degeneracy (smallest-last) order.

    Repeatedly removes a vertex of minimum remaining degree; the reverse
    of the removal order is returned, so vertices that survive longest
    (densest region) come first.
    """
    n = graph.num_vertices
    degree = [graph.degree(v) for v in range(n)]
    removed = [False] * n
    removal: List[int] = []
    for _ in range(n):
        v = min(
            (u for u in range(n) if not removed[u]),
            key=lambda u: (degree[u], u),
        )
        removed[v] = True
        removal.append(v)
        for w in graph.neighbors(v):
            if not removed[w]:
                degree[w] -= 1
    removal.reverse()
    return removal


def triangle_count(graph: Graph) -> int:
    """Total number of triangles (used by workload statistics)."""
    count = 0
    for u, v in graph.edges():
        smaller, larger = (u, v) if graph.degree(u) <= graph.degree(v) else (v, u)
        larger_nbrs = graph.neighbor_set(larger)
        for w in graph.neighbors(smaller):
            if w > v and w in larger_nbrs:
                count += 1
    return count
