"""Compressible aggregation functions.

The paper assumes a fully compressible aggregate: combining any number
of partial values yields a single packet-sized value.  An
:class:`AggregationFunction` is a commutative, associative monoid
``(lift, combine, identity)`` — enough structure for in-network
aggregation along any tree to compute the same result as a centralised
evaluation (a property the tests verify).

The built-ins also carry a *whole-array form* (``lift_array``,
``combine_array``): the same lift and combine applied elementwise to
numpy carriers whose last axis is the frame, so the frame simulator can
fold one row per node covering every frame instead of calling
``combine`` once per frame.  Elementwise, the array form makes the same
IEEE operations as the scalar form, so the values are bit-identical.
MAX and MIN therefore combine with Python's own rule,
``b if b > a else a`` (``<`` for MIN), not ``np.maximum``/``np.minimum``,
which may return either zero of a ``0.0``/``-0.0`` tie.  User-defined
aggregates need no array form; the simulator folds them frame by frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.errors import SimulationError

__all__ = ["AggregationFunction", "SUM", "MAX", "MIN", "COUNT", "MEAN"]


@dataclass(frozen=True)
class AggregationFunction:
    """A compressible aggregate as a commutative monoid.

    Attributes
    ----------
    name:
        Human-readable identifier.
    lift:
        Maps a raw sensor reading to the monoid carrier.
    combine:
        Associative, commutative binary operation on the carrier.
    finalize:
        Maps the combined carrier value to the user-facing result
        (identity for sum/max; division for mean).
    lift_array, combine_array:
        The optional whole-array form.  ``lift_array`` maps a float
        array of readings to a carrier array whose last axis is the
        frame (a carrier component, such as MEAN's sum and count, goes
        on the axis before it); ``combine_array`` combines two carriers
        elementwise, and may be a numpy ufunc.  Elementwise they must
        compute exactly what ``lift`` and ``combine`` compute, so the
        simulator's values do not depend on which form it uses: a
        :func:`dataclasses.replace` of ``lift`` or ``combine`` must
        clear both (``None``) or replace them too.  Give both or
        neither.
    """

    name: str
    lift: Callable[[float], object]
    combine: Callable[[object, object], object]
    finalize: Callable[[object], float] = staticmethod(lambda v: v)  # type: ignore[assignment]
    lift_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    combine_array: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if (self.lift_array is None) != (self.combine_array is None):
            raise SimulationError(
                f"aggregate {self.name!r}: give both lift_array and combine_array, or neither"
            )

    def aggregate(self, readings: Iterable[float]) -> float:
        """Centralised reference evaluation (for verification)."""
        iterator = iter(readings)
        try:
            acc = self.lift(next(iterator))
        except StopIteration:
            raise SimulationError("cannot aggregate zero readings") from None
        for r in iterator:
            acc = self.combine(acc, self.lift(r))
        return self.finalize(acc)

    def aggregate_frames(self, readings: np.ndarray) -> List[object]:
        """:meth:`aggregate` of each row of a ``(frames, nodes)`` float
        readings matrix, equal to it value for value and type for type.

        With the array form, every frame's readings are folded at once,
        in node order: a left fold, so each frame sees the same IEEE
        operations in the same order as :meth:`aggregate`.  A ufunc
        folds with ``accumulate``, never ``reduce``, whose pairwise
        summation (on some memory layouts) reorders the additions.
        """
        lift, combine = self.lift_array, self.combine_array
        if lift is None or combine is None:
            return [self.aggregate(row) for row in np.asarray(readings).tolist()]
        readings = np.asarray(readings, dtype=float)
        if readings.shape[-1] == 0:
            raise SimulationError("cannot aggregate zero readings")
        columns = lift(readings.T)
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(combine, np.ufunc):
                carrier = combine.accumulate(columns, axis=0)[-1]
            else:
                carrier = functools.reduce(combine, columns)
        return [self.finalize(v) for v in np.moveaxis(carrier, -1, 0).tolist()]

    def __repr__(self) -> str:
        return f"AggregationFunction({self.name})"


def _floats(readings: np.ndarray) -> np.ndarray:
    return np.asarray(readings, dtype=float)


def _first_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``max(a, b)``: ``a`` unless ``b > a``."""
    return np.where(b > a, b, a)


def _first_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``min(a, b)``: ``a`` unless ``b < a``."""
    return np.where(b < a, b, a)


SUM = AggregationFunction(
    "sum", lift=float, combine=lambda a, b: a + b, lift_array=_floats, combine_array=np.add
)

MAX = AggregationFunction(
    "max", lift=float, combine=max, lift_array=_floats, combine_array=_first_max
)

MIN = AggregationFunction(
    "min", lift=float, combine=min, lift_array=_floats, combine_array=_first_min
)

COUNT = AggregationFunction(
    "count",
    lift=lambda _r: 1,
    combine=lambda a, b: a + b,
    lift_array=lambda r: np.ones(np.shape(r), dtype=np.int64),
    combine_array=np.add,
)

MEAN = AggregationFunction(
    "mean",
    lift=lambda r: (float(r), 1),
    combine=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    finalize=lambda v: v[0] / v[1],
    lift_array=lambda r: np.stack([_floats(r), np.ones(np.shape(r))], axis=-2),
    combine_array=np.add,
)


def threshold_count(threshold: float) -> AggregationFunction:
    """Counting aggregate "how many readings exceed ``threshold``" — the
    building block of the median computation (Section 3.1).  The
    threshold is compared as a float."""
    threshold = float(threshold)
    return AggregationFunction(
        f"count>{threshold:g}",
        lift=lambda r: 1 if r > threshold else 0,
        combine=lambda a, b: a + b,
        lift_array=lambda r: (_floats(r) > threshold).astype(np.int64),
        combine_array=np.add,
    )
