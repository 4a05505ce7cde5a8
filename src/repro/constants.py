"""Model-wide default constants.

The defaults follow common practice in the SINR-scheduling literature
and the assumptions of the paper (path-loss exponent ``alpha > 2``,
SINR threshold ``beta >= 1`` for the analysis sections).
"""

from __future__ import annotations

#: Default path-loss exponent (the paper requires ``alpha > 2``).
DEFAULT_ALPHA: float = 3.0

#: Default SINR decoding threshold.
DEFAULT_BETA: float = 1.0

#: Default ambient-noise power.  The paper's interference-limited
#: assumption lets analysis set ``N = 0``; simulations may use ``N > 0``.
DEFAULT_NOISE: float = 0.0

#: Interference-limitation margin ``eps``: senders use power at least
#: ``(1 + eps) * beta * N * l^alpha`` (Section 2 of the paper).
DEFAULT_EPSILON: float = 0.5

#: Default conflict-graph gamma for the constant-threshold graph ``G1``.
#: The paper's Theorem 2 uses gamma = 1 (adjacency iff
#: ``d(i, j) <= min(l_i, l_j)``).
DEFAULT_GAMMA: float = 1.0

#: Default exponent ``tau`` for the oblivious power scheme ``P_tau``.
#: ``tau = 1/2`` ("mean" power) is the canonical choice in [13].
DEFAULT_TAU: float = 0.5

#: Default ``delta`` exponent of the oblivious conflict graph
#: ``G_obl = G^delta_gamma`` with ``f(x) = gamma * x^delta``.
DEFAULT_DELTA: float = 0.25

#: Numerical safety margin used when certifying strict inequalities
#: (e.g. spectral radius strictly below one).
FEASIBILITY_MARGIN: float = 1e-9

#: Relative guard band of the Collatz-Wielandt bounds that decide
#: global-power feasibility (:mod:`repro.sinr.powercontrol`): a bound
#: settles ``rho(A) < 1 - FEASIBILITY_MARGIN`` only when it clears the
#: limit by this factor; a spectral radius inside the band is left to
#: ``eigvals``, so every verdict equals the ``eigvals`` verdict.
PERRON_GUARD: float = 1e-6

#: Power-iteration steps the bounds get before ``eigvals`` decides.
PERRON_MAX_STEPS: int = 64

#: Largest magnitude we allow for generated coordinates before the
#: doubly-exponential constructions switch to log-space verification.
MAX_SAFE_COORDINATE: float = 1e300

#: Largest link count for which the interference kernel layer
#: (:mod:`repro.sinr.kernels`) sums and tiles a query in one block.
#: Above this the cache streams row blocks and never materialises an
#: n-by-n float64 array.
KERNEL_MAX_DENSE_LINKS: int = 4096

#: Default row-block size for chunked kernel evaluation.
KERNEL_BLOCK_SIZE: int = 1024

#: Total bytes of memoized dense additive matrices one cache may
#: retain; least-recently-used matrices are evicted beyond this.
KERNEL_DENSE_BUDGET_BYTES: int = 512 * 2**20
