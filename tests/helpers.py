"""Helpers shared by the test modules."""

import random

from turanlab import SimpleGraph


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> SimpleGraph:
    edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
    return SimpleGraph(n, edges)


def random_forest(rng: random.Random, n: int, p: float = 0.85) -> SimpleGraph:
    """Each vertex after the first hangs, with probability p, off a random
    vertex of the first half of those before it: the leaves gather on a few
    hubs, where they are twins."""
    edges = [(rng.randrange(v // 2 + 1), v) for v in range(1, n) if rng.random() < p]
    return SimpleGraph(n, edges)
