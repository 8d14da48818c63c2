"""Causality layer tests: canonical timetables and the relativity audit."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relcommit.spacetime import (
    SCHEMES,
    Actor,
    Message,
    PhaseTimes,
    Schedule,
    SpacetimeEvent,
    Topology,
    audit,
    canonical_topology,
    light_travel_time,
    standard_schedule,
)


class TestLightTravelTime:
    def test_examples(self):
        assert light_travel_time(0.0, 1.0, 1.0) == 1.0
        assert light_travel_time(2.0, 0.0, 2.0) == 1.0
        assert light_travel_time(5.0, 5.0, 3.0) == 0.0

    def test_symmetric(self):
        assert light_travel_time(0.0, 3.0, 1.5) == light_travel_time(3.0, 0.0, 1.5)

    def test_bad_speed(self):
        with pytest.raises(ValueError):
            light_travel_time(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            light_travel_time(0.0, 1.0, -2.0)


class TestTopology:
    def test_canonical_two_party_layout(self):
        topo = canonical_topology("single", 1.0, 1.0)
        assert topo.position_of("bob") == 0.0
        assert topo.position_of("b0") == 1.0
        assert topo.position_of("alice") == 2.0

    def test_canonical_multi_layout(self):
        topo = canonical_topology("multi", 2.0, 1.0)
        assert topo.position_of("alice") == 0.0
        assert topo.position_of("center") == 2.0
        assert topo.position_of("bob") == 4.0

    def test_unknown_actor(self):
        topo = canonical_topology("single", 1.0, 1.0)
        with pytest.raises(ValueError):
            topo.position_of("mallory")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Topology((Actor("a", 0.0), Actor("a", 1.0)), 1.0, 1.0)

    def test_bad_speed_rejected(self):
        with pytest.raises(ValueError):
            Topology((Actor("a", 0.0),), 0.0, 1.0)


class TestStandardSchedule:
    def test_phase_times(self):
        sched = standard_schedule(1.0, 1.0, 10.0, "single")
        assert sched.phase_times == PhaseTimes(0.0, 1.0, 2.0, 10.0)

    def test_scaled_phase_times(self):
        sched = standard_schedule(3.0, 2.0, 100.0, "multi")
        assert sched.phase_times == PhaseTimes(0.0, 1.5, 3.0, 100.0)

    def test_reveal_before_storage_rejected(self):
        with pytest.raises(ValueError):
            standard_schedule(1.0, 1.0, 1.5, "single")

    def test_reveal_exactly_at_storage_allowed(self):
        sched = standard_schedule(1.0, 1.0, 2.0, "single")
        assert sched.phase_times.reveal == 2.0

    def test_degenerate_colocated(self):
        sched = standard_schedule(0.0, 1.0, 0.0, "single")
        assert sched.phase_times == PhaseTimes(0.0, 0.0, 0.0, 0.0)
        assert audit(sched).ok

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            standard_schedule(1.0, 1.0, 10.0, "tripartite")

    @pytest.mark.parametrize("x,T,message", [
        (5e307, None, "default reveal time 10x/c must be finite, got inf"),
        (1e307, 1.7e308, "validation time T + x/c must be finite, got inf"),
    ])
    def test_overflowing_derived_time_names_its_quantity(self, x, T, message):
        with pytest.raises(ValueError, match=f"^{message}$".replace("+", r"\+")):
            standard_schedule(x, 1.0, T, "single")

    def test_largest_finite_times_accepted(self):
        assert standard_schedule(1.5e307, 1.0, None, "single").phase_times.reveal == 1.5e308
        sched = standard_schedule(1e300, 1.0, 1.7e308, "multi")
        assert audit(sched).ok

    def test_message_arrival_precedes_send_rejected(self):
        with pytest.raises(ValueError):
            Message("a", "b", 1.0, 0.5, "classical")


class TestAuditCanonicalSchedules:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("T_factor", [2.0, 1e3, 1e9])
    def test_standard_schedules_are_clean(self, scheme, T_factor):
        sched = standard_schedule(1.0, 1.0, T_factor * 1.0, scheme)
        report = audit(sched)
        assert report.ok, report.violations

    @given(
        x=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        slack=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        scheme=st.sampled_from(SCHEMES),
    )
    @settings(max_examples=60, deadline=None)
    @example(x=2.2250738585e-313, c=198.0, slack=0.0, scheme="single")  # subnormal times
    def test_standard_schedules_clean_for_any_geometry(self, x, c, slack, scheme):
        T = 2 * x / c + slack
        report = audit(standard_schedule(x, c, T, scheme))
        assert report.ok, report.violations


class TestAuditViolations:
    def test_superluminal_message_from_explicit_schedule(self):
        # qubit sent at t=1 from position 2 arrives position 1 at t=1.5; needs t>=2
        sched = Schedule(
            scheme="single",
            x=1.0,
            c=1.0,
            phase_times=PhaseTimes(0.0, 1.0, 2.0, 10.0),
            events=(),
            messages=(Message("alice", "b0", 1.0, 1.5, "quantum"),),
        )
        report = audit(sched)
        assert len(report.violations) == 1
        assert report.violations[0].kind == "superluminal"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_shrinking_any_arrival_yields_exactly_one_violation(self, scheme):
        base = standard_schedule(1.0, 1.0, 10.0, scheme)
        for idx, msg in enumerate(base.messages):
            if msg.arrival_time == msg.send_time:
                continue  # colocated messages have no slack to remove
            tampered = list(base.messages)
            tampered[idx] = dataclasses.replace(
                msg, arrival_time=msg.send_time + 0.6 * (msg.arrival_time - msg.send_time)
            )
            report = audit(dataclasses.replace(base, messages=tuple(tampered)))
            assert len(report.violations) == 1, (idx, report.violations)
            assert report.violations[0].kind == "superluminal"

    def test_validate_before_announcement_is_dependency_violation(self):
        base = standard_schedule(1.0, 1.0, 10.0, "single")
        events = []
        for event in base.events:
            if event.kind == "validate":
                event = dataclasses.replace(event, time=5.0)  # before reveal at t=10
            events.append(event)
        report = audit(dataclasses.replace(base, events=tuple(events)))
        assert len(report.violations) == 1
        assert report.violations[0].kind == "dependency"
        assert "alice_announcement" in report.violations[0].detail

    def test_missing_producer_flagged(self):
        sched = Schedule(
            scheme="single",
            x=1.0,
            c=1.0,
            phase_times=PhaseTimes(0.0, 1.0, 2.0, 10.0),
            events=(SpacetimeEvent("b0", 1.0, "receive", "ghost_payload"),),
            messages=(),
        )
        report = audit(sched)
        assert [v.kind for v in report.violations] == ["missing_producer"]

    def test_lightlike_timing_passes_within_tolerance(self):
        base = standard_schedule(1.0, 1.0, 10.0, "single")
        # nudge one arrival earlier by far less than tol = 1e-9 * (x/c)
        tampered = list(base.messages)
        tampered[0] = dataclasses.replace(
            tampered[0], arrival_time=tampered[0].arrival_time - 1e-12
        )
        assert audit(dataclasses.replace(base, messages=tuple(tampered))).ok

    def test_unknown_actor_raises(self):
        sched = Schedule(
            scheme="single",
            x=1.0,
            c=1.0,
            phase_times=PhaseTimes(0.0, 1.0, 2.0, 10.0),
            events=(),
            messages=(Message("alice", "mallory", 0.0, 5.0, "classical"),),
        )
        with pytest.raises(ValueError):
            audit(sched)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_storage_phase_overflow_raises(self, scheme):
        # x/c overflows, so the slack 1e-9 * x/c would be inf, every bound
        # minus it -inf or nan, and no violation could be found
        sched = dataclasses.replace(standard_schedule(1.0, 1.0, 10.0, scheme), c=1e-320)
        with pytest.raises(ValueError, match=r"^storage phase 2x/c must be finite, got inf$"):
            audit(sched)

    @pytest.mark.parametrize("c", [1e-3, 1.2e-308], ids=["1e-3", "near-overflow"])
    def test_timetable_too_early_for_a_slower_signal_flagged(self, c):
        # with 2x/c finite, a timetable for c = 1 breaks the light bounds of a
        # far slower signal, up to the slowest whose 2x/c is still finite
        assert math.isfinite(2 * 1.0 / c)
        report = audit(dataclasses.replace(standard_schedule(1.0, 1.0, 10.0, "single"), c=c))
        assert len(report.violations) == 15
