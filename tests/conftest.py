import os
import random
from collections import deque
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from xhomotopy.core import BudgetExceeded
from xhomotopy.generators import random_graph
from xhomotopy.homotopy import DEFAULT_HOM_BUDGET, one_step_neighbors
from xhomotopy.search import enumerate_homs

# pyproject's pytest ``pythonpath`` puts src/ on this process's path only;
# child interpreters (the console entry point, the determinism runs) get
# it through the environment, so they too run this checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def seeded_graphs(max_vertices=5, min_vertices=0, edge_prob=0.4, loop_prob=0.3):
    """Strategy producing seeded random graphs (reproducible via the seed)."""

    def build(params):
        seed, n = params
        return random_graph(random.Random(seed), n, edge_prob, loop_prob)

    return st.tuples(
        st.integers(0, 10**9), st.integers(min_vertices, max_vertices)
    ).map(build)


def bfs_classes(A, B, budget=None):
    """Fold-free reference for ``homotopy_classes``: a breadth-first search
    over the public ``one_step_neighbors`` from each hom not yet visited.

    It stops where the search over the whole hom set stopped: in the hom
    enumeration, in an expansion's own hom search, or on a visit count past
    the budget, checked before each expansion and after the last.
    """
    limit = DEFAULT_HOM_BUDGET if budget is None else budget
    homs = enumerate_homs(A, B, budget)
    rank = {h.assignment: k for k, h in enumerate(homs)}
    seen = set()
    classes = []
    for h in homs:
        if h.assignment in seen:
            continue
        seen.add(h.assignment)
        component, queue = [h], deque([h])
        while len(seen) <= limit:
            if not queue:
                break
            for n in one_step_neighbors(queue.popleft(), limit):
                if n.assignment not in seen:
                    seen.add(n.assignment)
                    component.append(n)
                    queue.append(n)
        else:
            raise BudgetExceeded(limit, "homotopy search")
        classes.append(sorted(component, key=lambda m: rank[m.assignment]))
    return classes


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
