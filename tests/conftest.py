import numpy as np
import pytest

from drlqr.ambiguity import MomentAmbiguity
from drlqr.matcore import SymMatrix
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem

TS = 0.02


@pytest.fixture
def sys6():
    """Double integrator with multiplicative noise on the damping and input."""
    return MultNoiseSystem(
        A0=np.array([[1.0, TS], [0.0, 1.0 - 0.4 * TS]]),
        A=(np.array([[0.0, 0.0], [0.0, -TS]]), np.zeros((2, 2))),
        B0=np.array([[0.0], [TS]]),
        B=(np.zeros((2, 1)), np.array([[0.0], [TS]])),
    )


@pytest.fixture
def cost6():
    return CostWeights(Q=np.diag([10.0, 1.0]), R=np.array([[0.01]]))


@pytest.fixture
def moments6():
    return DisturbanceMoments(mu=np.zeros(2), sigma=SymMatrix(np.eye(2)))


@pytest.fixture
def amb6():
    """Canonical ambiguity record at the radii implied by M=1000, beta=0.05."""
    return MomentAmbiguity(
        mu_hat=np.zeros(2),
        sigma_hat=SymMatrix(np.eye(2)),
        rho_mu=0.046539840986736844,
        rho_sigma=3.1424255622586936,
    )


@pytest.fixture
def scalar_sys():
    """x+ = (0.75 + w) x + u."""
    return MultNoiseSystem(
        A0=np.array([[0.75]]),
        A=(np.array([[1.0]]),),
        B0=np.array([[1.0]]),
        B=(np.array([[0.0]]),),
    )


@pytest.fixture
def scalar_cost():
    return CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0e4]]))


@pytest.fixture
def scalar_moments():
    return DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(0.5 * np.eye(1)))


def scalar_p_star(q: float = 1.0, r: float = 1.0e4, s2: float = 0.5) -> float:
    """Positive root of (s2 - 1) p^2 + (q + (s2 - 0.4375) r) p + q r = 0."""
    lin = q + (s2 - 0.4375) * r
    return (lin + np.sqrt(lin * lin + 4.0 * (1.0 - s2) * q * r)) / (2.0 * (1.0 - s2))
