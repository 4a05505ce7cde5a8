"""The physical-model parameter bundle.

A :class:`SINRModel` carries the path-loss exponent ``alpha``, decoding
threshold ``beta``, ambient noise ``N`` and interference-limitation
margin ``eps`` (Section 2).  It is the single source of truth passed to
every feasibility oracle, power solver and scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.constants import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_NOISE,
)
from repro.errors import ConfigurationError
from repro.util.validation import check_finite

__all__ = ["SINRModel"]


@dataclass(frozen=True)
class SINRModel:
    """Physical-model parameters.

    Attributes
    ----------
    alpha:
        Path-loss exponent; the paper requires ``alpha > 2`` (planar
        instances) for the conflict-graph machinery to apply.
    beta:
        Minimum SINR for successful decoding (``> 0``).
    noise:
        Ambient noise power ``N >= 0``.  The interference-limited
        assumption lets analysis use ``N = 0``.
    epsilon:
        Margin of the interference-limited assumption: senders must use
        power at least ``(1 + epsilon) * beta * N * l^alpha``.
    """

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    noise: float = DEFAULT_NOISE
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        # NaN fails every comparison, so it would pass the range checks
        # below; an infinite parameter makes SINRs 0 or NaN.
        for name in ("alpha", "beta", "noise", "epsilon"):
            check_finite(name, getattr(self, name))
        if self.alpha <= 2:
            raise ConfigurationError(
                f"alpha must exceed 2 for planar instances, got {self.alpha}"
            )
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.noise < 0:
            raise ConfigurationError(f"noise must be non-negative, got {self.noise}")
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def noiseless(self) -> bool:
        """Whether the model ignores ambient noise."""
        return self.noise == 0.0

    def with_beta(self, beta: float) -> "SINRModel":
        """A copy with a different SINR threshold."""
        return replace(self, beta=beta)

    def with_noise(self, noise: float) -> "SINRModel":
        """A copy with a different noise floor."""
        return replace(self, noise=noise)

    def min_power(self, length: float) -> float:
        """Minimum admissible power for a link of the given length under
        the interference-limited assumption:
        ``(1 + eps) * beta * N * l^alpha`` (zero in noiseless models)."""
        if self.noiseless:
            return 0.0
        return (1.0 + self.epsilon) * self.beta * self.noise * length**self.alpha

    def strong_beta(self) -> float:
        """The strengthened threshold ``beta' = 3^alpha`` used by the
        lower-bound arguments (Theorem 3 / Section 5)."""
        return 3.0**self.alpha
