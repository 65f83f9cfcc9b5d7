"""Seeded inputs for the benchmark workloads.

The benchmark makes its own graphs from ``random.Random(seed)`` instead of
the package's ``generate``, so that a change to the package's generators
never changes what is measured.  Every graph of a workload has the same
vertex and edge counts; a new seed changes the structure, not the size.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"verify"`` (one op = one ``edge-ricci verify`` call on a
    generated file) or ``"selftest"`` (one op = one pass of the eleven
    acceptance criteria).  A run does ``round(seconds / op_s)`` ops, at
    least one; ``op_s`` is an op's time at the commit the benchmark was defined
    on, so the work per run is fixed and a faster program runs shorter.
    """

    name: str
    kind: str
    op_s: float
    n: int = 0
    m: int = 0
    weighted: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-exact", "verify", 3.85, n=12, m=40),
        Workload("sparse-spectral", "verify", 3.1, n=50, m=56),
        Workload("weighted-float", "verify", 1.8, n=14, m=36, weighted=True),
        Workload("selftest", "selftest", 8.5),
    )
}

# Weights are drawn from the acceptance gate's range [0.5, 2).
_W_LO, _W_SPAN = 0.5, 1.5


@dataclass(frozen=True)
class GraphInput:
    """A generated graph as the benchmark knows it (independent of the package)."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    vertex_weights: tuple[float, ...] | None = None
    edge_weights: tuple[float, ...] | None = None

    def text(self) -> str:
        """The file the program reads: an edge list, or weighted JSON."""
        if self.edge_weights is None:
            return "".join(f"{self.labels[u]} {self.labels[v]}\n" for u, v in self.edges)
        doc = {
            "edges": [[self.labels[u], self.labels[v], w]
                      for (u, v), w in zip(self.edges, self.edge_weights)],
            "vertex_weights": dict(zip(self.labels, self.vertex_weights)),
        }
        return json.dumps(doc) + "\n"


def random_graph(rng: random.Random, n: int, m: int, weighted: bool) -> GraphInput:
    """A random spanning tree over v0..v{n-1} plus uniform extra edges up to m."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph has n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    present = set()
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        edges.append((u, v))
        present.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in present:
            edges.append((u, v))
            present.add(key)
    labels = tuple(f"v{i}" for i in range(n))
    if not weighted:
        return GraphInput(labels, tuple(edges))
    vw = tuple(_W_LO + _W_SPAN * rng.random() for _ in range(n))
    ew = tuple(_W_LO + _W_SPAN * rng.random() for _ in range(m))
    return GraphInput(labels, tuple(edges), vw, ew)


def graphs(workload: Workload, seed: int, count: int) -> list[GraphInput]:
    """The first ``count`` graphs of a verify workload's stream at ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [random_graph(rng, workload.n, workload.m, workload.weighted)
            for _ in range(count)]


def selftest_seeds(seed: int, count: int) -> list[int]:
    """Acceptance seeds of a selftest run's passes: distinct per workload seed,
    so that repeated passes average over corpora instead of repeating one."""
    return [1000 * seed + p for p in range(count)]


def op_count(workload: Workload, seconds: float) -> int:
    """Ops in one run of ``seconds``."""
    return max(1, round(seconds / workload.op_s))
