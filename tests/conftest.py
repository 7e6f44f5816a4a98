import os

# one BLAS thread unless the environment says otherwise: the oracle's
# N-length BLAS calls in the polish and the tridiagonal solve run slower
# threaded; this must precede the first numpy import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pathlib
import warnings

import pytest

from bandres import PeriodicPotential, PerturbationProfile, band_edges

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="session")
def mathieu():
    return PeriodicPotential(0.0, (2.0,))


@pytest.fixture(scope="session")
def mathieu_bands(mathieu):
    return band_edges(mathieu, 45.0)


@pytest.fixture(scope="session")
def free_bands():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # closed-gap genericity warning
        return band_edges(PeriodicPotential.free(), 160.0)


@pytest.fixture(scope="session")
def bound_profile():
    # raised bump over a flat background: compact well, both sides empty
    return PerturbationProfile(0.0, 0.0, ((4.0, 0.0, 1.0),))


@pytest.fixture(scope="session")
def wall_profile():
    # descending step with a tall thin bump: one-well with a right barrier
    return PerturbationProfile(2.75, -2.75, ((6.0, 1.2, 0.3),))


@pytest.fixture(scope="session")
def drift_profile():
    # pure descending step across a full band: delta_kappa = +1 well
    return PerturbationProfile(5.5, -5.5, ())


@pytest.fixture(scope="session")
def step_profile():
    # pure descending step, one edge crossing: monotone transition
    return PerturbationProfile(2.75, -2.75, ())


@pytest.fixture(scope="session")
def configs_dir():
    return CONFIG_DIR
