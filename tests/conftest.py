import os
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from xhomotopy.generators import random_graph

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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
