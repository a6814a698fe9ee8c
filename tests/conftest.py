import pytest

from fullerwalk import (
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
