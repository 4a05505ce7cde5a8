"""Tests for the SINRModel parameter bundle."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.sinr.model import SINRModel


class TestValidation:
    def test_defaults_valid(self):
        m = SINRModel()
        assert m.alpha > 2 and m.beta > 0

    def test_rejects_alpha_at_most_two(self):
        with pytest.raises(ConfigurationError):
            SINRModel(alpha=2.0)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ConfigurationError):
            SINRModel(beta=0.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            SINRModel(noise=-1.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ConfigurationError):
            SINRModel(epsilon=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "noise", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, value):
        """NaN fails every range comparison, so it used to pass them."""
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            SINRModel(**{field: value})

    @pytest.mark.parametrize("field", ["alpha", "beta", "noise", "epsilon"])
    @pytest.mark.parametrize("value", ["3", True, None])
    def test_rejects_non_numbers(self, field, value):
        """A numeric string or a bool used to be coerced; None raised a
        bare TypeError."""
        with pytest.raises(ConfigurationError, match=f"{field} must be a real number"):
            SINRModel(**{field: value})


class TestDerived:
    def test_noiseless_flag(self):
        assert SINRModel(noise=0.0).noiseless
        assert not SINRModel(noise=1e-9).noiseless

    def test_with_beta(self):
        m = SINRModel(beta=1.0)
        m2 = m.with_beta(2.0)
        assert m2.beta == 2.0 and m.beta == 1.0
        assert m2.alpha == m.alpha

    def test_with_noise(self):
        m = SINRModel().with_noise(1e-3)
        assert m.noise == 1e-3

    def test_min_power_noiseless_zero(self):
        assert SINRModel(noise=0.0).min_power(10.0) == 0.0

    def test_min_power_scales_with_length(self):
        m = SINRModel(alpha=3.0, beta=1.0, noise=1.0, epsilon=0.5)
        assert m.min_power(2.0) == pytest.approx(1.5 * 8.0)
        assert m.min_power(4.0) / m.min_power(2.0) == pytest.approx(8.0)

    def test_strong_beta(self):
        assert SINRModel(alpha=3.0).strong_beta() == pytest.approx(27.0)

    def test_frozen(self):
        m = SINRModel()
        with pytest.raises(AttributeError):
            m.alpha = 4.0
