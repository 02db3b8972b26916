"""Batched scheme/baseline sessions equal their scalar references.

``run_scheme_session`` and ``run_baseline_session`` assemble events in
structure-of-arrays form and account energy through the append-only
:class:`~repro.soc.energy.ColumnarMeter`; the ``*_reference`` runners
are the seed implementations kept verbatim. Reports, traces, events,
and the schemes' short-circuit statistics must be exactly equal —
no tolerances.
"""

from __future__ import annotations

import pytest

from repro.schemes import (
    BaselineScheme,
    MaxCpuScheme,
    MaxIpScheme,
    NoOverheadsScheme,
    SnipScheme,
)
from repro.schemes.base import run_scheme_session, run_scheme_session_reference
from repro.users.sessions import (
    run_baseline_session,
    run_baseline_session_reference,
)

SCHEME_CLASSES = (
    BaselineScheme,
    SnipScheme,
    MaxCpuScheme,
    MaxIpScheme,
    NoOverheadsScheme,
)


@pytest.mark.parametrize(
    "scheme_cls", SCHEME_CLASSES, ids=[cls.__name__ for cls in SCHEME_CLASSES]
)
def test_scheme_session_matches_reference(scheme_cls):
    batched_scheme = scheme_cls()
    reference_scheme = scheme_cls()
    batched_scheme.prepare("candy_crush")
    reference_scheme.prepare("candy_crush")
    batched = run_scheme_session(
        batched_scheme, "candy_crush", seed=3, duration_s=5.0
    )
    reference = run_scheme_session_reference(
        reference_scheme, "candy_crush", seed=3, duration_s=5.0
    )
    assert batched.report == reference.report
    assert batched.coverage == reference.coverage
    assert batched.hit_rate == reference.hit_rate
    assert batched.scheme_name == reference.scheme_name


def test_baseline_session_matches_reference():
    batched = run_baseline_session("greenwall", seed=5, duration_s=4.0)
    reference = run_baseline_session_reference(
        "greenwall", seed=5, duration_s=4.0
    )
    assert batched.report == reference.report
    assert batched.events == reference.events
    assert batched.traces == reference.traces
    assert batched.average_watts == reference.average_watts
    assert batched.battery_hours == reference.battery_hours
    assert batched.useless_user_fraction == reference.useless_user_fraction
    assert batched.wasted_energy_fraction == reference.wasted_energy_fraction
