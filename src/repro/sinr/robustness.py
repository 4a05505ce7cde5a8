"""Temporal variability and fading (§3.1 "Robustness and temporal
variability").

The paper argues sporadic random fluctuations are absorbed by an
acknowledgment/retransmission mechanism, and cites [4] for Rayleigh
fading costing only constant factors.  This module makes that claim
executable: a per-slot stochastic channel (lognormal noise jitter or
Rayleigh-faded signal power) plus a retransmission wrapper measuring
the effective rate degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, LinkError
from repro.geometry.distances import cross_distances
from repro.links.linkset import LinkSet
from repro.scheduling.schedule import Schedule
from repro.sinr.model import SINRModel
from repro.util.rng import RngLike, as_generator
from repro.util.validation import check_distinct_links, check_link_indices, check_positive

__all__ = ["FadingChannel", "RetransmissionReport", "measure_retransmissions"]


@dataclass(frozen=True)
class FadingChannel:
    """A stochastic per-slot channel.

    Attributes
    ----------
    rayleigh:
        When true, every received power (signal and interference) is
        multiplied by an independent Exp(1) fading coefficient per slot
        — the Rayleigh power model of [4].
    noise_sigma:
        Standard deviation of multiplicative lognormal noise jitter
        (0 disables it; needs a noisy model to matter).
    """

    rayleigh: bool = True
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        check_positive("noise_sigma", self.noise_sigma, strict=False)

    def slot_success(
        self,
        links: LinkSet,
        powers: np.ndarray,
        active: Sequence[int],
        model: SINRModel,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Boolean success per active link for one slot realisation;
        ``active`` names one or more distinct links (else a LinkError)."""
        idx = check_link_indices(active, len(links))
        if idx.size == 0:
            raise LinkError("a slot must contain at least one link")
        check_distinct_links(idx)
        p = np.asarray(powers, dtype=float)
        if p.shape == (len(links),):
            p = p[idx]
        dist = cross_distances(links.senders[idx], links.receivers[idx])
        with np.errstate(divide="ignore", over="ignore"):
            gain = p[:, None] / dist**model.alpha
        if self.rayleigh:
            gain = gain * rng.exponential(1.0, size=gain.shape)
        signal = np.diag(gain).copy()
        interference = gain.sum(axis=0) - signal
        noise = model.noise
        if self.noise_sigma > 0 and noise > 0:
            noise = noise * rng.lognormal(0.0, self.noise_sigma, size=len(idx))
        denom = interference + noise
        with np.errstate(divide="ignore", invalid="ignore"):
            sinr = np.where(denom > 0, signal / denom, np.inf)
        return sinr >= model.beta


@dataclass
class RetransmissionReport:
    """Outcome of running a schedule over a fading channel."""

    attempts: int
    successes: int
    slots_used: int
    periods_used: int
    clean_periods: int

    @property
    def success_rate(self) -> float:
        """Fraction of transmissions decoded on the first try."""
        return self.successes / self.attempts if self.attempts else 1.0

    @property
    def effective_slowdown(self) -> float:
        """Extra periods needed per clean period (1.0 = no loss)."""
        return self.periods_used / max(1, self.clean_periods)


def measure_retransmissions(
    schedule: Schedule,
    channel: FadingChannel,
    *,
    periods: int = 50,
    rng: RngLike = 0,
) -> RetransmissionReport:
    """Run the periodic schedule over the stochastic channel with
    per-link acknowledgments: a failed transmission is retried in the
    link's slot of the next period.  Measures how many periods it takes
    to get every link through once, ``periods`` times over.

    The paper's claim (constant-factor impact) corresponds to
    ``effective_slowdown`` staying O(1).
    """
    gen = as_generator(rng)
    links = schedule.links
    attempts = successes = slots_used = periods_used = 0
    clean = 0
    for _round in range(periods):
        pending = set(range(len(links)))
        clean += 1
        while pending:
            periods_used += 1
            for slot in schedule.slots:
                slots_used += 1
                active = [i for i in slot.link_indices if i in pending]
                if not active:
                    continue
                powers = np.asarray(
                    [slot.powers[slot.link_indices.index(i)] for i in active]
                )
                ok = channel.slot_success(links, powers, active, schedule.model, gen)
                attempts += len(active)
                successes += int(ok.sum())
                for i, success in zip(active, ok):
                    if success:
                        pending.discard(i)
            if periods_used > periods * 64:
                raise ConfigurationError(
                    "channel too lossy: retransmissions are not converging"
                )
    return RetransmissionReport(
        attempts=attempts,
        successes=successes,
        slots_used=slots_used,
        periods_used=periods_used,
        clean_periods=clean,
    )
