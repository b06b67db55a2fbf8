import numpy as np
import pytest

from capillary_minkowski import CapSpec, ExponentPair, PolarGrid, cap_chart


THETA = np.pi / 3.0


@pytest.fixture(scope="session")
def spec():
    return CapSpec(theta=THETA)


@pytest.fixture(scope="session")
def grid32(spec):
    return PolarGrid(spec, 32, 32)


@pytest.fixture(scope="session")
def grid48(spec):
    return PolarGrid(spec, 48, 48)


@pytest.fixture(scope="session")
def pq31():
    return ExponentPair(p=3.0, q=1.0)


@pytest.fixture
def apply_calls(monkeypatch):
    """Counts of the frame-operator passes (FrameOps.apply) and single-operator
    products (PolarGrid.apply) made after the fixture is set up."""
    calls = {"FrameOps": 0, "PolarGrid": 0}
    for cls in (cap_chart.FrameOps, cap_chart.PolarGrid):
        def apply(*args, _inner=cls.apply, _name=cls.__name__):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(cls, "apply", apply)
    return calls


def smooth_field(grid, rng, modes=4, radial_powers=3, normalize=True):
    """Random smooth-on-the-cap field: trig polynomial in the ambient coordinates.

    Scaled to max-norm 1 on ``grid`` unless ``normalize`` is false, in which
    case one rng state gives the same function on every grid.
    """
    R = grid.r[:, None]
    PHI = grid.phi[None, :]
    sin_t = grid.spec.sin_theta
    out = np.zeros(grid.shape)
    for m in range(modes):
        for k in range(radial_powers):
            a, b = rng.normal(size=2)
            rad = (np.sin(R) / sin_t) ** m * np.cos(R) ** k
            term = rad * a * np.cos(m * PHI)
            if m > 0:
                term = term + rad * b * np.sin(m * PHI)
            out = out + term
    return out / np.abs(out).max() if normalize else out
