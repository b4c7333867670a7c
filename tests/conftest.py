import pytest

from xspectra import PotentialModel, X1Family


@pytest.fixture
def radial_figure() -> PotentialModel:
    """Non-Hermitian radial oscillator at the parameters used for the tables."""
    return PotentialModel("radial_extended", a=2.0, k=1.75, eps=1.2)


@pytest.fixture
def radial_hermitian() -> PotentialModel:
    return PotentialModel("radial_extended", a=2.0, k=1.75, eps=0.0)


@pytest.fixture
def scarf_figure() -> PotentialModel:
    return PotentialModel("scarf_extended", a=1.75, b=3.0, k=1.25, eps=1.0)


@pytest.fixture
def scarf_hermitian() -> PotentialModel:
    return PotentialModel("scarf_extended", a=1.75, b=3.0, k=1.25, eps=0.0)


@pytest.fixture
def laguerre_family() -> X1Family:
    return X1Family("laguerre", 2.0)


@pytest.fixture
def jacobi_family() -> X1Family:
    return X1Family("jacobi", 1.75, 3.0)
