"""Typed per-cell records, JSONL persistence and aggregation.

One sweep cell produces one :class:`CellResult` — either ``status ==
"ok"`` with the measured quantities, or ``status == "error"`` with the
failure message (error isolation: a failed cell is a *row*, not a dead
sweep).  Records round-trip through JSON dicts, one per line, so sweep
outputs are streamable, appendable (resume) and greppable.

``wall_time_s`` is the only non-deterministic field: two runs of the
same spec produce byte-identical JSONL after dropping the
:data:`TIMING_FIELDS`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.theory import predicted_slots, predicted_slots_cor1
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import CellSpec

__all__ = [
    "CellResult",
    "TIMING_FIELDS",
    "read_results",
    "write_results",
    "append_result",
    "attach_predictions",
    "completed_cell_ids",
    "group_summary",
    "summary_table",
]

#: Fields excluded from determinism comparisons (and from nothing else).
TIMING_FIELDS = ("wall_time_s",)


@dataclass
class CellResult:
    """Measurements from one sweep cell.

    Schedule fields are ``None`` when the cell failed or the spec did
    not request the ``schedule`` measurement; likewise the Theorem-2
    fields for ``g1`` and the simulation fields for ``num_frames == 0``.
    Dynamic cells (a non-``static`` scenario, or ``epochs > 1``)
    additionally carry one ``epoch_metrics`` dict per epoch plus the
    aggregate ``degradation`` metrics; their headline schedule fields
    describe the *static baseline*, so rows stay comparable across
    scenarios.
    """

    cell_id: str
    topology: str
    n: int
    mode: str
    alpha: float
    beta: float
    seed: int
    tree: str = "mst"
    scheduler: str = "certified"
    status: str = "ok"
    # -- schedule measurement ------------------------------------------
    slots: Optional[int] = None
    rate: Optional[float] = None
    initial_colors: Optional[int] = None
    split_classes: Optional[int] = None
    diversity: Optional[float] = None
    predicted_slots: Optional[float] = None
    predicted_slots_cor1: Optional[float] = None
    # -- Theorem-2 measurement -----------------------------------------
    g1_colors: Optional[int] = None
    refine_t: Optional[int] = None
    # -- simulation (num_frames > 0) -----------------------------------
    frames_injected: Optional[int] = None
    frames_completed: Optional[int] = None
    mean_latency: Optional[float] = None
    max_latency: Optional[int] = None
    stable: Optional[bool] = None
    # -- dynamic scenario (scenario != static or epochs > 1) -----------
    scenario: str = "static"
    scenario_epochs: Optional[int] = None
    epoch_metrics: Optional[List[Dict]] = None
    degradation: Optional[Dict] = None
    # -- bookkeeping ----------------------------------------------------
    wall_time_s: float = 0.0
    error: Optional[str] = None

    @classmethod
    def for_cell(cls, cell: "CellSpec", **values: Any) -> "CellResult":
        """A record with ``cell``'s identity fields, plus ``values``."""
        return cls(
            cell_id=cell.cell_id,
            topology=cell.topology,
            n=cell.n,
            mode=cell.mode,
            alpha=cell.alpha,
            beta=cell.beta,
            seed=cell.seed,
            tree=cell.tree,
            scheduler=cell.scheduler,
            scenario=cell.scenario,
            scenario_epochs=cell.epochs if cell.is_dynamic else None,
            **values,
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def slots_vs_prediction(self) -> Optional[float]:
        """Measured / predicted ratio (the big-O "constant")."""
        if self.slots is None or not self.predicted_slots:
            return None
        return self.slots / self.predicted_slots

    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: Dict) -> "CellResult":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown CellResult fields: {sorted(unknown)}; "
                f"valid fields: {sorted(known)}"
            )
        return cls(**data)


# ----------------------------------------------------------------------
# JSONL persistence
# ----------------------------------------------------------------------
def append_result(path: Union[str, Path], result: CellResult) -> None:
    """Append one record; the unit of crash-safety is the line."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result.to_json_dict(), sort_keys=True) + "\n")


def write_results(path: Union[str, Path], results: Iterable[CellResult]) -> None:
    """Write (truncate) a whole result file."""
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(result.to_json_dict(), sort_keys=True) + "\n")


def read_results(path: Union[str, Path]) -> List[CellResult]:
    """Load every record of a sweep output file.

    A malformed *final* line is tolerated (a crash mid-append leaves a
    truncated record; resume simply re-runs that cell).  A malformed
    interior line means the file is not a sweep output and raises
    :class:`ConfigurationError`.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    out: List[CellResult] = []
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(CellResult.from_json_dict(json.loads(line)))
        except (json.JSONDecodeError, TypeError):
            if index == len(lines) - 1:
                break  # truncated trailing append from a crashed run
            raise ConfigurationError(
                f"{path}:{index + 1}: not a sweep result record"
            ) from None
    return out


def completed_cell_ids(path: Union[str, Path]) -> Set[str]:
    """Cell ids recorded as ``ok`` — the resume manifest.

    Failed cells are deliberately *not* in the manifest so a resumed
    sweep retries them.
    """
    path = Path(path)
    if not path.exists():
        return set()
    return {r.cell_id for r in read_results(path) if r.ok}


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def attach_predictions(result: CellResult) -> CellResult:
    """Fill the THM1/COR1 prediction fields from :mod:`repro.core.theory`."""
    if result.diversity is not None:
        result.predicted_slots = predicted_slots(result.mode, result.diversity, result.n)
    result.predicted_slots_cor1 = predicted_slots_cor1(result.mode, result.n)
    return result


def group_summary(
    results: Sequence[CellResult],
    keys: Tuple[str, ...] = ("topology", "n", "mode"),
) -> List[Dict]:
    """Group-by summary over the ``ok`` rows.

    Returns one dict per group (in first-seen order) with the group key
    plus count, mean slots, mean measured/THM1-predicted ratio and the
    COR1 per-``n`` reference — the tables Theorem 1 / Corollary 1 are
    checked against.
    """
    valid_keys = {f.name for f in fields(CellResult)}
    for key in keys:
        if key not in valid_keys:
            raise ConfigurationError(
                f"unknown group-by key {key!r}; valid keys: {sorted(valid_keys)}"
            )
    groups: Dict[Tuple, Dict] = {}
    for r in results:
        if not r.ok or r.slots is None:
            continue
        gk = tuple(getattr(r, k) for k in keys)
        g = groups.setdefault(
            gk,
            {
                **dict(zip(keys, gk)),
                "cells": 0,
                "_slots": [],
                "_ratios": [],
                "_cor1": [],
            },
        )
        g["cells"] += 1
        g["_slots"].append(r.slots)
        if r.slots_vs_prediction is not None:
            g["_ratios"].append(r.slots_vs_prediction)
        if r.predicted_slots_cor1 is not None:
            g["_cor1"].append(r.predicted_slots_cor1)
    out = []
    for g in groups.values():
        slots = g.pop("_slots")
        ratios = g.pop("_ratios")
        cor1 = g.pop("_cor1")
        g["mean_slots"] = sum(slots) / len(slots)
        g["max_slots"] = max(slots)
        g["mean_ratio"] = sum(ratios) / len(ratios) if ratios else None
        g["cor1_predicted"] = sum(cor1) / len(cor1) if cor1 else None
        out.append(g)
    return out


def summary_table(
    results: Sequence[CellResult],
    keys: Tuple[str, ...] = ("topology", "n", "mode"),
) -> str:
    """Human-readable group-by table of a sweep's results."""
    rows = group_summary(results, keys)
    lines = []
    if not rows:
        lines.append("(no successful cells)")
    else:
        lines.append(
            "".join(f"{k:>12}" for k in keys)
            + f"{'cells':>7}{'slots':>8}{'max':>6}{'meas/thm1':>11}{'cor1':>7}"
        )
    for row in rows:
        ratio = row["mean_ratio"]
        cor1 = row["cor1_predicted"]
        lines.append(
            "".join(f"{str(row[k]):>12}" for k in keys)
            + f"{row['cells']:>7}{row['mean_slots']:>8.1f}{row['max_slots']:>6}"
            + (f"{ratio:>11.2f}" if ratio is not None else f"{'-':>11}")
            + (f"{cor1:>7.1f}" if cor1 is not None else f"{'-':>7}")
        )
    errors = sum(1 for r in results if not r.ok)
    if errors:
        lines.append(f"({errors} failed cell{'s' if errors != 1 else ''})")
    return "\n".join(lines)
