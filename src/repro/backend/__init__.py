"""The numeric backend: kernel block math plus one ``sparse`` bit.

The SINR compute layer's inner math is a set of plain functions: gap and
sender-receiver distance blocks, gap distances of aligned pairs, and the
additive, relative and affectance kernel blocks
(:mod:`repro.backend.blocks`).
:class:`~repro.sinr.kernels.KernelCache` keeps the orchestration around
them — the additive memo, chunking, index checks, statistics — and the
one switch a backend name selects, ``KernelCache.sparse``.  It matters
only for link sets of up to ``KERNEL_MAX_DENSE_LINKS`` links; larger
ones are chunked under either name.  Conflict graphs are CSR under
both (:class:`~repro.conflict.graph.ConflictGraph`).

``dense-numpy``
    The default: link sets of up to ``KERNEL_MAX_DENSE_LINKS`` links
    sum each query in one block.
``blocked-sparse``
    ``sparse = True``: streams column sums in row blocks at every ``n``
    (no ``n x n`` intermediate, so ``dense_builds == 0`` unless a caller
    asks for the full additive matrix).

Both run the same block functions, so schedules, slot assignments and
measurements never depend on the name.  That is why it never splits a
store key (:mod:`repro.store.keys`) and sweep rows stay comparable
across backends.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "SPARSE_BACKEND",
    "check_backend",
]

#: Name of the default backend.
DEFAULT_BACKEND = "dense-numpy"
#: Name of the backend that sets ``KernelCache.sparse``.
SPARSE_BACKEND = "blocked-sparse"
#: Every backend name, the default first.
BACKENDS = (DEFAULT_BACKEND, SPARSE_BACKEND)


def check_backend(name: str) -> str:
    """``name`` if it names a backend; otherwise a
    :class:`~repro.errors.ConfigurationError` listing the valid names."""
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown numeric backend {name!r}; available: {', '.join(BACKENDS)}"
        )
    return name
