"""Helpers shared by the test modules."""

import random

from turanlab import SimpleGraph


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> SimpleGraph:
    edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
    return SimpleGraph(n, edges)
