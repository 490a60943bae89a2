"""Node dynamics: gamma and the sector condition."""

import numpy as np
import pytest

from signet.edgefn import GridSpec
from signet.errors import ValidationError
from signet.nodes import Identity, Saturating, SignPower, sector_check

GRID = GridSpec(10.0, 1001)


def test_drift_examples():
    assert Identity().gamma(2.5) == 2.5
    assert SignPower(1.0, 0.5).gamma(4.0) == 2.0
    for d in (Identity(), SignPower(2.0, 0.7), Saturating(1.0, 1.0)):
        assert d.gamma(0.0) == 0.0


def test_sector_check():
    assert sector_check(Identity(), GRID)
    assert sector_check(Saturating(1.0, 1.0), GRID)
    assert sector_check(SignPower(3.0, 0.3), GRID)
    assert not sector_check(lambda u: -u, GRID)
    assert not sector_check(lambda u: 0.0, GRID)


def test_gamma_is_odd():
    rng = np.random.default_rng(2)
    for d in (Identity(), SignPower(2.0, 0.4), Saturating(3.0, 0.5)):
        for u in rng.uniform(0.01, 20.0, size=50):
            assert d.gamma(-u) == pytest.approx(-d.gamma(u), rel=1e-12)


def test_batch_gamma_matches_scalar():
    # numpy's vectorized power and tanh may differ from its scalar path by
    # up to two ulps.
    u = np.linspace(-5, 5, 41)
    for d in (Identity(), SignPower(2.0, 0.4), Saturating(3.0, 0.5)):
        scalar = [d.gamma(float(v)) for v in u]
        np.testing.assert_array_max_ulp(d.gamma(u), scalar, maxulp=2)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        SignPower(-1.0, 0.5)
    with pytest.raises(ValidationError):
        SignPower(1.0, 1.5)
    with pytest.raises(ValidationError):
        Saturating(1.0, 0.0)


@pytest.mark.parametrize("make, message", [
    (lambda: SignPower(-1.0, 0.5), "gain c must be > 0, got -1.0"),
    (lambda: SignPower(0.0, 1.5), "gain c must be > 0, got 0.0"),
    (lambda: SignPower(2.0, 1.5), "exponent beta must be in (0, 1], got 1.5"),
    (lambda: SignPower(2.0, 0.0), "exponent beta must be in (0, 1], got 0.0"),
    (lambda: Saturating(0.0, 1.0), "saturating dynamics need c > 0 and s > 0"),
    (lambda: Saturating(1.0, -2.0), "saturating dynamics need c > 0 and s > 0"),
    # Finiteness is checked first, on every field, then the bounds.
    (lambda: SignPower(-1.0, float("nan")), "SignPower.beta must be finite, got nan"),
    (lambda: SignPower(float("nan"), 0.5), "SignPower.c must be finite, got nan"),
    (lambda: Saturating(0.0, float("nan")), "Saturating.s must be finite, got nan"),
    (lambda: Saturating(float("inf"), 1.0), "Saturating.c must be finite, got inf"),
])
def test_parameter_messages(make, message):
    with pytest.raises(ValidationError) as caught:
        make()
    assert str(caught.value) == message
