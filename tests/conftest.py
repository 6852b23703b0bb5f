import numpy as np
import pytest
from hypothesis import settings

from replicator4 import boundary_prediction, canonical_matrix

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def MI():
    return canonical_matrix("I")


@pytest.fixture(scope="session")
def MII():
    return canonical_matrix("II")


@pytest.fixture(scope="session")
def MIII():
    return canonical_matrix("III")


@pytest.fixture(scope="session")
def MIV():
    return canonical_matrix("IV")


@pytest.fixture(scope="session")
def MV():
    return canonical_matrix("V")


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def doctored_IV(MIV):
    """Canonical IV's boundary prediction with one edge's vertex swapped,
    and the region that the swap makes wrong."""
    pred = boundary_prediction(MIV)
    edges = list(pred.edges)
    k = next(i for i, e in enumerate(edges) if e.kind == "vertex")
    wrong = edges[k].__class__(edge=edges[k].edge, kind="vertex",
                               vertex=edges[k].edge[0]
                               if edges[k].vertex != edges[k].edge[0]
                               else edges[k].edge[1])
    edges[k] = wrong
    doctored = pred.__class__(edges=tuple(edges), faces=pred.faces,
                              equilibria=pred.equilibria,
                              unstable_vertices=pred.unstable_vertices)
    return doctored, f"edge:{wrong.edge[0]}-{wrong.edge[1]}"
