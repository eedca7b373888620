#!/usr/bin/env python3
"""Cross-check the two equivalence decision routes on random graph pairs.

Route one searches every map pair for a two-sided homotopy inverse by
brute force, with homotopy classes found by breadth-first search over
one-step neighbours and no folds; route two folds both graphs and compares
stiff subgraphs.  The two verdicts must always agree.
"""

import argparse
import random
from collections import deque

from xhomotopy.generators import random_graph
from xhomotopy.homotopy import graphs_equivalent, one_step_neighbors
from xhomotopy.search import enumerate_homs


def component_index(G) -> dict:
    """The homotopy class of each endomorphism of G, named by the image
    tuple (over sorted vertices) of its first member: one breadth-first
    search over one-step neighbours per class."""
    order = G.sorted_vertices
    index: dict = {}
    for h in enumerate_homs(G, G):
        start = tuple(h(v) for v in order)
        if start in index:
            continue
        index[start] = start
        queue = deque([h])
        while queue:
            for n in one_step_neighbors(queue.popleft()):
                key = tuple(n(v) for v in order)
                if key not in index:
                    index[key] = start
                    queue.append(n)
    return index


def exists_equivalence(a, b) -> bool:
    order_a, order_b = a.sorted_vertices, b.sorted_vertices
    homs_ab = enumerate_homs(a, b)
    homs_ba = enumerate_homs(b, a)
    if not homs_ab or not homs_ba:
        return a.order == 0 and b.order == 0
    class_a, class_b = component_index(a), component_index(b)
    for f in (m.mapping for m in homs_ab):
        for g in (m.mapping for m in homs_ba):
            gf = tuple(g[f[v]] for v in order_a)
            fg = tuple(f[g[v]] for v in order_b)
            if class_a[gf] == class_a[order_a] and class_b[fg] == class_b[order_b]:
                return True
    return False


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=100)
    parser.add_argument("--max-vertices", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    equivalent = 0
    for index in range(args.pairs):
        a = random_graph(rng, rng.randint(0, args.max_vertices), prefix="a")
        b = random_graph(rng, rng.randint(0, args.max_vertices), prefix="b")
        brute = exists_equivalence(a, b)
        folded = graphs_equivalent(a, b).equivalent
        if brute != folded:
            raise SystemExit(f"disagreement on pair #{index}: brute={brute} folded={folded}")
        equivalent += brute
    print(f"{args.pairs} pairs checked, {equivalent} equivalent, 0 disagreements")


if __name__ == "__main__":
    main()
