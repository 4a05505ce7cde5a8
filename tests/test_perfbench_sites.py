"""perfbench's import sites stay alive.

``perfbench/workloads.install_layer_spans`` wraps program functions at
the import sites their callers use (``repro.scheduling.builder``'s
split passes and power-control oracles among them).  A renamed or
dropped name only fails there when someone runs ``--trace 1``; this
test installs the spans, checks every site was wrapped, and checks that
``untrace`` puts every original back.  It only reads ``perfbench/``.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_layer_spans_install_and_untrace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import hooks
    import workloads

    import repro.scheduling.builder as builder

    names = ("split_into_feasible_slots", "is_feasible_some_power", "feasible_power_assignment")
    before = {name: getattr(builder, name) for name in names}
    rec = hooks.Recorder()
    try:
        workloads.install_layer_spans(rec)
        sites = list(rec._traced)
        assert sites
        for owner, attr, raw in sites:
            assert _current(owner, attr) is not raw, (owner, attr)
        for name in names:
            assert getattr(builder, name) is not before[name], name
    finally:
        rec.untrace()
    for owner, attr, raw in sites:
        assert _current(owner, attr) is raw, (owner, attr)
    for name in names:
        assert getattr(builder, name) is before[name], name
