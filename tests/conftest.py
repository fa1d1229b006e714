import numpy as np
import pytest

from golden import regen
from qptkit import backend, builtin_backend


def pytest_addoption(parser):
    parser.addoption("--golden-strict", action="store_true",
                     help="fail a golden test that differs from its manifest under "
                          "versions other than the manifest's, instead of skipping it")


@pytest.fixture(scope="session")
def golden_strict(request):
    """Whether a golden difference fails under any versions (``--golden-strict``)."""
    return request.config.getoption("--golden-strict")


@pytest.fixture(scope="session")
def qx4():
    return builtin_backend("qx4")


@pytest.fixture(scope="session")
def qx4_quiet(qx4):
    return qx4.with_noise(False)


@pytest.fixture(scope="session")
def qx2():
    return builtin_backend("qx2")


def clear_maps():
    """Empty the cache of fused maps and the per-model tables built of them."""
    backend._superoperator.cache_clear()
    backend._MAPS.clear()
    backend._SETTING_MAPS.clear()


@pytest.fixture
def fresh_maps():
    """Empty caches of fused maps and of their per-model tables, emptied
    again after the test, so a map built from patched inputs neither comes
    from nor stays in them."""
    clear_maps()
    yield
    clear_maps()


@pytest.fixture(scope="session")
def golden_count_stacks():
    """``regen.count_stacks()`` drawn once for both golden manifests."""
    return list(regen.count_stacks())


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())
