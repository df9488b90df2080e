"""Seeded inputs: fixed graph structures, relabeled and reordered by the seed.

The seed never chooses a structure.  It permutes vertex ids and shuffles
the edge order, so the program sees different bytes on every seed while
the work it has to do stays the same (the enumeration counters repeat
exactly across relabelings); letting the seed pick the structure swings
the cost far beyond any usable bound.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.graph.generators import web_graph
from repro.graph.graph import Graph

Edge = Tuple[int, int]


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"{seed}:{purpose}")


def canonical_edges(graph: Graph) -> List[Edge]:
    """The structure's edges in one fixed order, smaller endpoint first."""
    return sorted((min(u, v), max(u, v)) for u, v in graph.edges())


class Relabeled:
    """A structure under seeded vertex labels and a seeded edge order.

    Labels are a random injection into ``[0, 8n)``.  The edge order is
    shuffled under one constraint: every vertex first appears at the
    same rank as in :func:`canonical_edges`.  Ingest interns labels in
    order of first appearance, so the program's internal vertex ids -
    and with them every traversal order and counter - are the same for
    every seed, while the bytes it parses differ.
    """

    def __init__(self, graph: Graph, seed: int, purpose: str) -> None:
        rng = rng_for(seed, purpose)
        introducing: List[Edge] = []
        rank: Dict[int, int] = {}
        rest: List[Edge] = []
        for u, v in canonical_edges(graph):
            if u in rank and v in rank:
                rest.append((u, v))
                continue
            for w in (u, v):
                rank.setdefault(w, len(introducing))
            introducing.append((u, v))
        slots: List[List[Edge]] = [[] for _ in introducing]
        for u, v in rest:
            slot = rng.randint(max(rank[u], rank[v]), len(introducing) - 1)
            slots[slot].append((u, v) if rng.random() < 0.5 else (v, u))
        vertices = sorted(rank, key=rank.__getitem__)
        labels = rng.sample(range(8 * len(vertices)), len(vertices))
        self.forward: Dict[int, int] = dict(zip(vertices, labels))
        self.backward: Dict[int, int] = dict(zip(labels, vertices))
        edges: List[Edge] = []
        for edge, extra in zip(introducing, slots):
            rng.shuffle(extra)
            edges.append(edge)
            edges.extend(extra)
        self.edges: List[Edge] = [
            (self.forward[u], self.forward[v]) for u, v in edges
        ]

    def write(self, path) -> None:
        """Write the relabeled edge list as whitespace-separated text."""
        write_edges(self.edges, path)


def write_edges(edges, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write("".join(f"{u} {v}\n" for u, v in edges))


def community_graph(
    communities: int, size: int, out_degree: int, cross_per_community: int
) -> Tuple[Graph, List[range]]:
    """Copying-model communities joined into one connected component.

    A ring of cross edges guarantees a single component (an insert then
    re-enumerates the whole parent component, which is what makes a
    write cost what it does); a few more cross edges per community add
    the thin, irregular joins of real networks.  The structure is fixed:
    every generator seed below is a constant.
    """
    g = Graph()
    blocks = []
    for c in range(communities):
        part = web_graph(size, out_degree=out_degree, seed=7919 + c)
        offset = c * size
        for v in part.vertices():
            g.add_vertex(v + offset)
        for u, v in part.edges():
            g.add_edge(u + offset, v + offset)
        blocks.append(range(offset, offset + size))
    rng = random.Random(104729)
    for c in range(communities):
        nxt = blocks[(c + 1) % communities]
        g.add_edge(rng.choice(blocks[c]), rng.choice(nxt))
    added, want = 0, (cross_per_community - 1) * communities
    while added < want:
        a, b = rng.sample(range(communities), 2)
        u, v = rng.choice(blocks[a]), rng.choice(blocks[b])
        if not g.has_edge(u, v):
            g.add_edge(u, v)
            added += 1
    return g, blocks


def edge_digest(pairs) -> Tuple[int, int]:
    """(count, order-free sum of edge hashes): compares edge multisets
    without sorting or holding them."""
    count = total = 0
    for u, v in pairs:
        count += 1
        total = (total + hash((u, v) if u < v else (v, u))) & (2**64 - 1)
    return count, total


def write_build_inputs(seed: int, out_dir: str) -> dict:
    """The ``build`` workload's two edge lists, written to ``out_dir``."""
    import os

    big = Relabeled(
        web_graph(INGEST_PAGES, out_degree=INGEST_LINKS, seed=11),
        seed, "build:ingest",
    )
    big.write(os.path.join(out_dir, "ingest.txt"))
    structure, _ = community_graph(*BUILD_COMMUNITIES)
    Relabeled(structure, seed, "build:community").write(
        os.path.join(out_dir, "community.txt"))
    count, total = edge_digest(big.edges)
    return {"ingest_edges": count, "ingest_digest": total}


#: The ingest graph: copying model, 30k pages, 10 links each (~300k edges).
INGEST_PAGES, INGEST_LINKS = 30_000, 10
#: The build graph: four 50-vertex communities of 6-link pages, 3 cross
#: edges per community, one component (n=200).
BUILD_COMMUNITIES = (4, 50, 6, 3)


if __name__ == "__main__":
    # ``python3 inputs.py SEED DIR``: the build workload generates its
    # inputs in a child process, so the generator's memory never counts
    # toward the peak RSS of the process doing the measured work.
    import json
    import sys

    print(json.dumps(write_build_inputs(int(sys.argv[1]), sys.argv[2])))
