import numpy as np
import pytest

from fullerwalk import (
    Spectrum,
    adjacency,
    build_c60_blocked,
    build_tube_fullerene,
    eigendecompose,
    graph_spectrum,
    spectral,
)


@pytest.fixture(scope="session")
def c60():
    return build_c60_blocked()


@pytest.fixture(scope="session")
def c60_spectrum(c60):
    return eigendecompose(adjacency(c60))


@pytest.fixture(scope="session")
def c60_sym_spectrum(c60):
    return graph_spectrum(c60)


@pytest.fixture(scope="session")
def f30():
    return build_tube_fullerene(30)


@pytest.fixture(scope="session")
def f30_spectrum(f30):
    return eigendecompose(adjacency(f30))


@pytest.fixture
def eigh_calls(monkeypatch):
    """The arguments of every solve graph_spectrum makes on a miss
    (spectral._sectored_eigh), one tuple per call, with its kept spectrum
    cleared first."""
    calls = []
    solve = spectral._sectored_eigh

    def counted(*args):
        calls.append(args)
        return solve(*args)

    spectral._solve.cache_clear()
    monkeypatch.setattr(spectral, "_sectored_eigh", counted)
    return calls


@pytest.fixture
def n_row_sums(monkeypatch):
    """The shape of every 2-D input with N rows that Spectrum.cluster_sums
    sums, such as V * V[x-1], whose sums B hold <y|P_j|x> for every node y."""
    shapes = []
    sums = Spectrum.cluster_sums

    def recorded(s, x):
        if np.ndim(x) == 2 and len(x) == s.n:
            shapes.append(np.shape(x))
        return sums(s, x)

    monkeypatch.setattr(Spectrum, "cluster_sums", recorded)
    return shapes
