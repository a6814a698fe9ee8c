import pytest

from fullerwalk import (
    adjacency,
    build_c60_blocked,
    build_tube_fullerene,
    eigendecompose,
    spectral,
    symmetry_adapted_c60_basis,
)


@pytest.fixture(scope="session")
def c60():
    return build_c60_blocked()


@pytest.fixture(scope="session")
def c60_spectrum(c60):
    return eigendecompose(adjacency(c60))


@pytest.fixture(scope="session")
def c60_sym_spectrum():
    return symmetry_adapted_c60_basis()


@pytest.fixture(scope="session")
def f30():
    return build_tube_fullerene(30)


@pytest.fixture(scope="session")
def f30_spectrum(f30):
    return eigendecompose(adjacency(f30))


@pytest.fixture
def eigh_calls(monkeypatch):
    """The arguments of every spectral.eigendecompose call the test makes,
    one tuple per call, with graph_spectrum's kept spectrum cleared first."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eigendecompose(*args, **kwargs)

    monkeypatch.setattr(spectral, "_last", None)
    monkeypatch.setattr(spectral, "eigendecompose", counted)
    return calls
