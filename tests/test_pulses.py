"""Pulse-schedule generation, validation, compilation, serialization."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chainqc.constants import TWO_PI
from chainqc.errors import ConfigError, SequenceValidationError
from chainqc import lattice, pulses, spinsys
from chainqc.pulses import (
    PHASE_MX,
    PHASE_MY,
    PHASE_X,
    PHASE_Y,
    PulseEvent,
    Sequence,
)
from chainqc.spinsys import QuantumState, SpinSystem

from test_spinsys import fidelity


FAP = lattice.get_preset("fluorapatite")


class TestSequenceValidation:
    def test_events_sorted(self):
        e1 = PulseEvent(2e-6, 0.0, math.pi, PHASE_X, 0)
        e2 = PulseEvent(1e-6, 0.0, math.pi, PHASE_X, 0)
        seq = Sequence((e1, e2), cycle_time=3e-6)
        assert seq.events[0].t_start == 1e-6

    def test_same_target_overlap_rejected(self):
        e1 = PulseEvent(0.0, 2e-6, math.pi, PHASE_X, 0)
        e2 = PulseEvent(1e-6, 2e-6, math.pi, PHASE_X, 0)
        with pytest.raises(SequenceValidationError) as exc:
            Sequence((e1, e2), cycle_time=5e-6)
        assert len(exc.value.offenders) == 1

    def test_distinct_targets_may_overlap(self):
        e1 = PulseEvent(0.0, 2e-6, math.pi, PHASE_X, 0)
        e2 = PulseEvent(1e-6, 2e-6, math.pi, PHASE_X, 1)
        Sequence((e1, e2), cycle_time=5e-6)

    @pytest.mark.parametrize("first, second", [
        (("broadband", 1.0e-6), (0, 1.1e-6)),
        ((0, 1.0e-6), ("broadband", 1.1e-6))])
    def test_overlap_with_broadband_rejected(self, first, second):
        # a broadband pulse acts on every plane, so it overlaps a selective
        # pulse on any of them
        events = [PulseEvent(t, 0.2e-6, math.pi, PHASE_X, target)
                  for target, t in (first, second)]
        with pytest.raises(SequenceValidationError) as exc:
            Sequence(tuple(events), cycle_time=2e-6)
        assert exc.value.offenders == [events[1]]
        text = json.dumps({"schema_version": 1, "cycle_time": 2e-6,
                           "events": [e._asdict() for e in events]})
        with pytest.raises(SequenceValidationError):
            pulses.sequence_from_json(text)

    def test_past_cycle_time_rejected(self):
        e = PulseEvent(4e-6, 2e-6, math.pi, PHASE_X, 0)
        with pytest.raises(SequenceValidationError):
            Sequence((e,), cycle_time=5e-6)

    def test_offender_listed_once(self):
        # the second pulse both overlaps the first and runs past the cycle
        events = (PulseEvent(0.0, 2e-6, math.pi, PHASE_X, 0),
                  PulseEvent(1e-6, 5e-6, math.pi, PHASE_X, 0))
        with pytest.raises(SequenceValidationError) as exc:
            Sequence(events, cycle_time=3e-6)
        assert exc.value.offenders == [events[1]]

    def test_event_field_validation(self):
        with pytest.raises(ConfigError):
            PulseEvent(-1.0, 0.0, math.pi, PHASE_X, 0)
        with pytest.raises(ConfigError):
            PulseEvent(0.0, 0.0, 0.0, PHASE_X, 0)
        with pytest.raises(ConfigError):
            PulseEvent(0.0, 0.0, math.pi, PHASE_X, "plane3")

    @pytest.mark.parametrize("field", ["t_start", "duration", "phase"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_event_field_rejected(self, field, value):
        args = dict(t_start=0.0, duration=0.0, flip_angle=math.pi,
                    phase=PHASE_X, target=0)
        args[field] = value
        with pytest.raises(ConfigError):
            PulseEvent(**args)

    @pytest.mark.parametrize("target", [True, False, -1, 1.7])
    def test_target_must_be_plane_index(self, target):
        with pytest.raises(ConfigError):
            PulseEvent(0.0, 0.0, math.pi, PHASE_X, target)

    @pytest.mark.parametrize("cycle_time", [math.nan, math.inf, -1e-6])
    def test_cycle_time_must_be_finite_non_negative(self, cycle_time):
        with pytest.raises(ConfigError):
            Sequence((), cycle_time=cycle_time)

    def test_zero_cycle_time_valid(self):
        assert Sequence((), cycle_time=0.0).events == ()

    def test_schedule_records(self):
        # fields compare and hash as a tuple's would, the repr is the one
        # the CLI prints for an offender, and a changed or copied record is
        # checked again
        ev = PulseEvent(1e-6, 0.0, math.pi, PHASE_X, 0)
        seq = Sequence((ev,), cycle_time=2e-6, label="x")
        same = PulseEvent(1e-6, 0.0, math.pi, PHASE_X, 0)
        assert ev == same and hash(ev) == hash(same)
        assert ev != ev._replace(target=1)
        assert repr(ev) == ("PulseEvent(t_start=1e-06, duration=0.0, "
                            "flip_angle=3.141592653589793, phase=0.0, "
                            "target=0)")
        assert list(ev._asdict()) == ["t_start", "duration", "flip_angle",
                                      "phase", "target"]
        with pytest.raises(AttributeError):
            seq.label = "y"
        with pytest.raises(ConfigError):
            ev._replace(t_start=-1.0)
        with pytest.raises(SequenceValidationError):
            seq._replace(cycle_time=5e-7)
        assert copy.deepcopy(seq) == seq


class TestWahuha:
    def test_structure(self):
        seq = pulses.wahuha(1e-6)
        assert seq.cycle_time == pytest.approx(6e-6)
        assert len(seq.events) == 4
        assert [e.t_start for e in seq.events] == pytest.approx(
            [1e-6, 2e-6, 4e-6, 5e-6])
        assert [e.phase for e in seq.events] == [PHASE_MX, PHASE_Y,
                                                 PHASE_MY, PHASE_X]
        assert all(e.target == "broadband" for e in seq.events)
        assert all(e.flip_angle == pytest.approx(math.pi / 2)
                   for e in seq.events)

    def test_finite_width_centered(self):
        w = 2e-7
        seq = pulses.wahuha(1e-6, pulse_width=w)
        assert seq.events[0].t_start == pytest.approx(1e-6 - w / 2)
        assert seq.events[0].duration == w

    def test_width_bound(self):
        with pytest.raises(ConfigError):
            pulses.wahuha(1e-6, pulse_width=1e-6)


class TestHadamard:
    def test_orders(self):
        assert pulses.hadamard_sign_matrix(2).k == 2
        assert pulses.hadamard_sign_matrix(3).k == 4
        assert pulses.hadamard_sign_matrix(5).k == 8
        assert pulses.hadamard_sign_matrix(8).k == 8

    def test_order_4_rows(self):
        assert pulses.hadamard_sign_matrix(4).rows == (
            (1, 1, 1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, 1),
        )
        assert pulses.hadamard_sign_matrix(3).rows == (
            (1, 1, 1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
        )

    def test_rows_orthogonal(self):
        for n in (2, 3, 4, 5, 8):
            assert np.array_equal(pulses.hadamard_sign_matrix(n).scales,
                                  np.eye(n))
        m = pulses.hadamard_sign_matrix(4)
        assert not np.array_equal(pulses.recouple(m, (0, 3)).matrix.scales,
                                  np.eye(4))

    def test_effective_scale(self):
        m = pulses.hadamard_sign_matrix(4)
        for i in range(4):
            for j in range(i + 1, 4):
                assert m.scales[i][j] == 0.0

    def test_recouple(self):
        m = pulses.hadamard_sign_matrix(3)
        res = pulses.recouple(m, (1, 2))
        assert res.matrix.scales[1][2] == 1.0
        assert res.matrix.scales[0][1] == 0.0
        assert res.matrix.scales[0][2] == 0.0
        assert res.degraded_pairs == ()

    def test_sign_matrix_validation(self):
        with pytest.raises(ConfigError):
            pulses.SignMatrix(((1, 0), (1, 1)))


class TestDecouplingSchedule:
    def test_sign_pattern_reconstruction(self):
        m = pulses.hadamard_sign_matrix(4)
        slot = 1e-6
        seq = pulses.decoupling_schedule(m, slot)
        # replay the pi pulses per plane and recover each sign row
        for plane, row in enumerate(m.rows):
            flips = sorted(e.t_start for e in seq.events
                           if e.target == plane)
            frame = 1
            recovered = []
            for col in range(m.k):
                t = col * slot
                frame *= (-1) ** sum(1 for f in flips
                                     if t - 1e-15 < f <= t + 1e-15)
                recovered.append(frame)
            assert tuple(recovered) == row
            # trailing reset: even number of pulses per plane per cycle
            assert len(flips) % 2 == 0

    def test_pi_width_bound(self):
        m = pulses.hadamard_sign_matrix(2)
        with pytest.raises(ConfigError):
            pulses.decoupling_schedule(m, 1e-6, pi_width=0.3e-6)

    def test_cycle_propagator_z_only(self):
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        m = pulses.hadamard_sign_matrix(3)
        seq = pulses.decoupling_schedule(m, 2e-6)
        U = spinsys.propagator(sys, seq).matrix
        fid, _ = spinsys.diagonal_z_fidelity(U)
        assert 1.0 - fid < 1e-12

    def test_recoupled_pair_evolves_at_full_strength(self):
        # the recoupled pair accrues exactly the free-evolution zz phase
        # while all couplings to spectators average out
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        res = pulses.recouple(pulses.hadamard_sign_matrix(3), (0, 1))
        slot = 2e-6
        seq = pulses.decoupling_schedule(res.matrix, slot)
        U = spinsys.propagator(sys, seq).matrix
        J = [c.coeff for c in sys.couplings if {c.i, c.j} == {0, 1}][0]
        # compare zz phase pattern on the (0,1) pair: strip single-spin z
        # phases, then the residual diagonal must match exp(-i J T IzIz)
        T = seq.cycle_time
        n = sys.total_spins
        Iz0 = spinsys.single_spin_op(n, 0, spinsys.SZ)
        Iz1 = spinsys.single_spin_op(n, 1, spinsys.SZ)
        ref = np.diag(np.exp(-1j * J * T * np.diag(Iz0 @ Iz1).real))
        fid, phases = spinsys.diagonal_z_fidelity(U @ ref.conj().T)
        assert 1.0 - fid < 1e-12


class TestInterleave:
    def test_merged_event_count_and_validity(self):
        bb = pulses.wahuha(1e-6)
        m = pulses.hadamard_sign_matrix(3)
        sel = pulses.decoupling_schedule(m, 6e-6)
        merged = pulses.interleave(bb, sel)
        assert merged.cycle_time == pytest.approx(sel.cycle_time)
        n_bb = round(sel.cycle_time / bb.cycle_time) * len(bb.events)
        assert len(merged.events) == n_bb + len(sel.events)

    def test_selective_order_preserved(self):
        bb = pulses.wahuha(1e-6)
        m = pulses.hadamard_sign_matrix(3)
        sel = pulses.decoupling_schedule(m, 6e-6, pi_width=2e-7)
        merged = pulses.interleave(bb, sel)
        for plane in range(3):
            orig = [e.t_start for e in sel.events if e.target == plane]
            new = [e.t_start for e in merged.events if e.target == plane]
            assert len(orig) == len(new)
            assert new == sorted(new)

    def test_wide_pulse_rejected_with_offenders(self):
        bb = pulses.wahuha(1e-6)  # smallest free window = 1 us
        m = pulses.hadamard_sign_matrix(2)
        sel = pulses.decoupling_schedule(m, 8e-6, pi_width=1.5e-6)
        with pytest.raises(SequenceValidationError) as exc:
            pulses.interleave(bb, sel)
        assert len(exc.value.offenders) >= 1

    def test_unplaceable_pulse_listed(self):
        # Each width fits the 1 us windows, but the first two pulses take
        # [4, 4.9] and [5, 5.9] tau, so the third finds no room before 6 tau.
        tau = 1e-6
        sel = Sequence(tuple(
            PulseEvent(t * tau, w * tau, math.pi, PHASE_X, 0)
            for t, w in ((3.9, 0.9), (4.8, 0.9), (5.7, 0.25))),
            cycle_time=6 * tau)
        with pytest.raises(SequenceValidationError,
                           match="do not fit the broadband free windows") \
                as exc:
            pulses.interleave(pulses.wahuha(tau), sel)
        assert exc.value.offenders == [sel.events[2]]


class TestCompileCnot:
    @staticmethod
    def _basis_state(bits):
        """Spin s down where bits[s] is 1; spin 0 is the leading bit."""
        vec = np.zeros(2 ** len(bits))
        vec[int("".join(map(str, bits)), 2)] = 1.0
        return QuantumState.pure(vec)

    def test_truth_table(self):
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
        seq, target = pulses.compile_cnot(sys, 0, 1)
        U = spinsys.propagator(sys, seq).matrix
        # control = plane 0 (first bit); flips target when control is down
        for cbit in (0, 1):
            for tbit in (0, 1):
                st = self._basis_state((cbit, tbit))
                out_state = st.apply(U)
                want = (cbit, tbit ^ cbit)
                expect = self._basis_state(want)
                assert fidelity(out_state, expect) == pytest.approx(
                    1.0, abs=1e-9)

    def test_fidelity_isolated(self):
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
        seq, target = pulses.compile_cnot(sys, 0, 1)
        entries = spinsys.propagator_entries(sys, seq, target)
        assert spinsys.gate_fidelity(entries) > 1 - 1e-9

    def test_reverse_direction(self):
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
        seq, target = pulses.compile_cnot(sys, 1, 0)
        entries = spinsys.propagator_entries(sys, seq, target)
        assert spinsys.gate_fidelity(entries) > 1 - 1e-9

    def test_spectator_plane_offset_compensated(self):
        # three planes but only the (1,2) coupling present: the compiled
        # gate must undo the spectator plane's offset precession exactly
        full = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        pair = {full.spin_index(1, 0), full.spin_index(2, 0)}
        sys = SpinSystem(
            n_planes=3,
            n_chains=1,
            offsets=full.offsets,
            couplings=tuple(c for c in full.couplings
                            if {c.i, c.j} == pair),
        )
        seq, target = pulses.compile_cnot(sys, 1, 2)
        entries = spinsys.propagator_entries(sys, seq, target)
        assert spinsys.gate_fidelity(entries) > 1 - 1e-9

    def test_z_rotation_dropped_only_at_a_whole_turn(self):
        # a 1e-12 rad rotation is still a rotation; 0 and 2 pi are none
        events = pulses._z_rotation_events(1, 1e-12, 2e-6)
        assert [ev.flip_angle for ev in events] == [
            0.5 * math.pi, 1e-12, 0.5 * math.pi]
        assert pulses._z_rotation_events(1, TWO_PI, 2e-6) == []
        assert pulses._z_rotation_events(1, 0.0, 2e-6) == []

    def test_non_adjacent_rejected(self):
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        with pytest.raises(ConfigError):
            pulses.compile_cnot(sys, 0, 2)

    @pytest.mark.parametrize("control, target, bad", [
        (2, 3, 3), (3, 2, 3), (-1, 0, -1)])
    def test_plane_out_of_range_rejected(self, control, target, bad):
        sys = spinsys.build_system(FAP, 3, [(0.0, 0.0)], 1.4e6)
        with pytest.raises(ConfigError, match=f"plane {bad} out of range"):
            pulses.compile_cnot(sys, control, target)

    def test_spectator_chain_infidelity_bounded(self):
        lam = 9.367e-10 / FAP.a
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0), (lam, 0.0)], 1.4e6)
        seq, target = pulses.compile_cnot(sys, 0, 1)
        entries = spinsys.propagator_entries(sys, seq, target)
        infid = 1.0 - spinsys.gate_fidelity(entries)
        sigma = lattice.sigma_over_delta(FAP).sigma_over_delta
        assert infid > 0.0
        assert infid <= 4.0 * sigma**2


class TestSerialization:
    def test_round_trip(self):
        sys = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
        seq, _ = pulses.compile_cnot(sys, 0, 1)
        text = pulses.sequence_to_json(seq)
        back = pulses.sequence_from_json(text)
        assert back.cycle_time == seq.cycle_time
        assert back.events == seq.events
        assert pulses.sequence_to_json(back) == text

    def test_canonical_bytes(self):
        seq = pulses.wahuha(1e-6)
        a = pulses.sequence_to_json(seq)
        b = pulses.sequence_to_json(pulses.wahuha(1e-6))
        assert a == b
        obj = json.loads(a)
        assert obj["schema_version"] == pulses.SCHEDULE_SCHEMA_VERSION

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError):
            pulses.sequence_from_json("{not json")
        with pytest.raises(ConfigError):
            pulses.sequence_from_json('{"schema_version": 99}')

    @staticmethod
    def _edited(edit):
        obj = json.loads(pulses.sequence_to_json(pulses.wahuha(1e-6)))
        edit(obj)
        return json.dumps(obj)

    def test_nan_t_start_rejected(self):
        text = self._edited(lambda o: o["events"][0].update(t_start=math.nan))
        assert "NaN" in text
        with pytest.raises(ConfigError):
            pulses.sequence_from_json(text)

    @pytest.mark.parametrize("target", [1.7, True])
    def test_non_integer_target_rejected(self, target):
        text = self._edited(lambda o: o["events"][0].update(target=target))
        with pytest.raises(ConfigError):
            pulses.sequence_from_json(text)

    def test_infinite_cycle_time_rejected(self):
        text = self._edited(lambda o: o.update(cycle_time=math.inf))
        assert "Infinity" in text
        with pytest.raises(ConfigError):
            pulses.sequence_from_json(text)

    def test_missing_phase_rejected(self):
        text = self._edited(lambda o: o["events"][0].pop("phase"))
        with pytest.raises(ConfigError):
            pulses.sequence_from_json(text)

    def test_non_list_events_rejected(self):
        text = self._edited(lambda o: o.update(events=5))
        with pytest.raises(ConfigError):
            pulses.sequence_from_json(text)

    def test_top_level_list_rejected(self):
        with pytest.raises(ConfigError):
            pulses.sequence_from_json("[]")

    @pytest.mark.parametrize("edit", [
        lambda o: o["events"][0].update(flip_angle="1.5707963267948966"),
        lambda o: o["events"][0].update(duration="0"),
        lambda o: o.update(cycle_time="6e-6"),
        lambda o: o["events"][0].update(t_start=True),
        lambda o: o.update(cycle_time=int("9" * 400)),
        lambda o: o.update(schema_version=True),
        lambda o: o.update(schema_version=1.0),
        lambda o: o.update(label={"name": "wahuha"}),
    ], ids=["str-flip", "str-duration", "str-cycle", "bool-t_start",
            "400-digit-cycle", "bool-version", "float-version",
            "object-label"])
    def test_only_json_numbers_and_typed_fields(self, edit):
        with pytest.raises(ConfigError):
            pulses.sequence_from_json(self._edited(edit))

    def test_integer_past_digit_limit_rejected(self):
        text = self._edited(lambda o: o.update(cycle_time=0)).replace(
            '"cycle_time": 0', '"cycle_time": ' + "9" * 5000)
        with pytest.raises(ConfigError):
            pulses.sequence_from_json(text)

    def test_csv_rows(self):
        seq = pulses.wahuha(1e-6)
        rows = pulses.sequence_to_csv_rows(seq)
        assert rows[0] == ["t_start_s", "duration_s", "flip_angle_rad",
                           "phase_rad", "target"]
        assert len(rows) == 5
        # raw cell values, rendered by whoever writes the table
        e = seq.events[0]
        assert rows[1] == [e.t_start, e.duration, e.flip_angle, e.phase,
                           "broadband"]


# --- properties -----------------------------------------------------------------

PROPS = settings(max_examples=60, deadline=None)


@st.composite
def sequences(draw):
    """Valid schedules: zero- or finite-width pulses inside one cycle, the
    targets mixed.  A plane's pulse starts after its plane's last pulse and
    the last broadband pulse ends; a broadband pulse, after every pulse."""
    cycle = draw(st.floats(1e-7, 1e-3))
    events = []
    cursor = {}
    for _ in range(draw(st.integers(0, 12))):
        target = draw(st.one_of(st.just("broadband"), st.integers(0, 3)))
        waits = cursor if target == "broadband" else (target, "broadband")
        start = (max([0.0] + [cursor.get(k, 0.0) for k in waits])
                 + draw(st.floats(0.0, 0.2)) * cycle)
        width = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2))) * cycle
        if start + width > cycle:
            break
        events.append(PulseEvent(
            start, width, draw(st.floats(0.0, TWO_PI, exclude_min=True)),
            draw(st.floats(-10.0, 10.0)), target))
        cursor[target] = start + width
    return Sequence(tuple(events), cycle_time=cycle, label=draw(st.text()))


@PROPS
@given(sequences())
def test_json_round_trip(seq):
    text = pulses.sequence_to_json(seq)
    back = pulses.sequence_from_json(text)
    assert back == seq
    assert pulses.sequence_to_json(back) == text


@PROPS
@given(sequences())
def test_segments_tile_the_timeline(seq):
    try:
        segs = list(seq.segments())
    except SequenceValidationError as exc:
        (bad,) = exc.offenders
        i = next(i for i, e in enumerate(seq.events) if e is bad)
        assert i > 0 and bad.t_start < seq.events[i - 1].t_end
        return
    assert segs[0][0] == 0.0
    for (_, a1, _), (b0, _, _) in zip(segs, segs[1:]):
        assert b0 == a1
    pulses_seen = [ev for _, _, ev in segs if ev is not None]
    assert len(pulses_seen) == len(seq.events)
    assert all(a is b for a, b in zip(pulses_seen, seq.events))
    for t0, t1, ev in segs:
        if ev is None:
            assert t1 > t0
        else:
            assert (t0, t1) == (ev.t_start, ev.t_end)
    assert segs[-1][1] == max([seq.cycle_time]
                              + [e.t_end for e in seq.events])


@pytest.mark.parametrize("t_start", [0.5e-6, math.nextafter(1e-6, 0.0)],
                         ids=["inside", "one-ulp-before-end"])
def test_sampled_walk_rejects_pulse_inside_finite_pulse(t_start):
    sys = spinsys.build_system(FAP, 2, [(0.0, 0.0)], 1.4e6)
    seq = Sequence((PulseEvent(0.0, 1e-6, math.pi, PHASE_X, 0),
                    PulseEvent(t_start, 0.0, math.pi, PHASE_X, 1)),
                   cycle_time=2e-6)
    with pytest.raises(SequenceValidationError):
        spinsys.propagator(sys, seq, mode="sampled")
    with pytest.raises(SequenceValidationError):
        spinsys.evolve(sys, seq, QuantumState.all_up(2), mode="sampled")


def _free_windows(bb_events, total):
    t, out = 0.0, []
    for e in bb_events:
        out.append((t, e.t_start))
        t = e.t_end
    return out + [(t, total)]


@PROPS
@given(tau=st.floats(0.5e-6, 2e-6), bb_frac=st.floats(0.0, 0.9),
       n=st.integers(1, 6), slot=st.floats(1e-6, 2e-5),
       sel_frac=st.floats(0.0, 0.25), finite=st.booleans())
# A pulse placed at the end of its window, where b - width rounds up.
@example(tau=2e-6, bb_frac=0.828125, n=2, slot=1e-6,
         sel_frac=0.10701658831953378, finite=True)
def test_interleave_invariants(tau, bb_frac, n, slot, sel_frac, finite):
    bb = pulses.wahuha(tau, bb_frac * tau if finite else 0.0)
    sel = pulses.decoupling_schedule(pulses.hadamard_sign_matrix(n), slot,
                                     sel_frac * slot if finite else 0.0)
    try:
        merged = pulses.interleave(bb, sel)
    except SequenceValidationError as exc:
        assert len(exc.offenders) >= 1
        return
    reps = round(merged.cycle_time / bb.cycle_time)
    shifted = [e.t_start + r * bb.cycle_time
               for r in range(reps) for e in bb.events]
    bb_out = [e for e in merged.events if e.target == "broadband"]
    assert [e.t_start for e in bb_out] == sorted(shifted)
    assert len(merged.events) == reps * len(bb.events) + len(sel.events)
    windows = _free_windows(bb_out, merged.cycle_time)
    for plane in range(n):
        before = [e for e in sel.events if e.target == plane]
        after = [e for e in merged.events if e.target == plane]
        assert [(e.duration, e.flip_angle, e.phase) for e in after] == [
            (e.duration, e.flip_angle, e.phase) for e in before]
        for prev, e in zip(after, after[1:]):
            assert prev.t_end <= e.t_start
        for e in after:
            assert any(a <= e.t_start and e.t_end <= b for a, b in windows)


# --- sign-matrix references -------------------------------------------------------
# The per-pair code that SignMatrix.scales and the flip table replaced, kept
# as oracles: one dot product per pair, a scan over every spectator pair, and
# a walk of each row's frame column by column.

def reference_scale(m, i, j):
    a = np.array(m.rows, dtype=int)
    return float(np.dot(a[i], a[j])) / m.k


def reference_degraded(m, pair):
    i, j = pair
    degraded = []
    for p in range(m.n):
        for q in range(p + 1, m.n):
            if (p, q) == (min(i, j), max(i, j)):
                continue
            s = reference_scale(m, p, q)
            if s != 0.0:
                degraded.append((p, q, s))
    return tuple(degraded)


def reference_decoupling_events(m, slot, pi_width):
    events = []
    for plane, row in enumerate(m.rows):
        frame = 1
        for col in range(m.k):
            if row[col] != frame:
                t_start = max(0.0, col * slot - pi_width / 2)
                events.append((t_start, pi_width, math.pi, PHASE_X, plane))
                frame = row[col]
        if frame == -1:
            events.append((m.k * slot - pi_width, pi_width, math.pi,
                           PHASE_X, plane))
    return sorted(events, key=lambda e: e[0])


@st.composite
def sign_matrices(draw):
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    row = st.tuples(*[st.sampled_from((-1, 1))] * k)
    return pulses.SignMatrix(tuple(draw(row) for _ in range(n)))


@PROPS
@given(m=sign_matrices(), slot=st.floats(1e-7, 1e-4),
       width_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.25)),
       pair=st.tuples(st.integers(0, 11), st.integers(0, 11)))
def test_sign_matrix_reads_match_references(m, slot, width_frac, pair):
    assert [list(r) for r in m.scales] == [
        [reference_scale(m, i, j) for j in range(m.n)] for i in range(m.n)]
    assert all(m.scales[i][i] == 1.0 for i in range(m.n))
    i, j = pair[0] % m.n, pair[1] % m.n
    if i != j:
        res = pulses.recouple(m, (i, j))
        assert res.degraded_pairs == reference_degraded(res.matrix, (i, j))
        assert all(type(p) is int and type(q) is int and type(s) is float
                   for p, q, s in res.degraded_pairs)
    seq = pulses.decoupling_schedule(m, slot, width_frac * slot)
    got = [(e.t_start, e.duration, e.flip_angle, e.phase, e.target)
           for e in seq.events]
    assert got == reference_decoupling_events(m, slot, width_frac * slot)
    assert all(type(e.t_start) is float for e in seq.events)


# The numpy formulas that SignMatrix.scales and decoupling_schedule used
# before pulses stopped importing numpy, kept as oracles.

def numpy_scales(m):
    a = np.array(m.rows, dtype=int).reshape(m.n, m.k)
    return (a @ a.T / m.k).tolist()


def numpy_decoupling_events(m, slot, pi_width):
    a = np.array(m.rows, dtype=int).reshape(m.n, m.k)
    flips = np.diff(np.pad(a, ((0, 0), (1, 1)), constant_values=1))
    events = []
    for plane, col in np.argwhere(flips).tolist():
        t = col * slot
        t_start = t - pi_width if col == m.k else max(0.0, t - pi_width / 2)
        events.append(PulseEvent(t_start, pi_width, math.pi, PHASE_X, plane))
    return Sequence(tuple(events), cycle_time=m.k * slot).events


def test_sign_matrix_reads_match_numpy_formulas():
    # every size up to the 64-plane config cap, one recoupled pair and one
    # pulse width per size (the hypothesis test above draws widths freely)
    slot = 6e-6
    for n in range(1, 65):
        m = pulses.hadamard_sign_matrix(n)
        i, j = ((0, n - 1), (n - 1, n // 3), (n // 2, 0))[n % 3]
        recoupled = [pulses.recouple(m, (i, j)).matrix] if i != j else []
        width = (0.0, slot / 7, slot / 4)[n % 3]
        for mat in [m, *recoupled]:
            assert [list(r) for r in mat.scales] == numpy_scales(mat)
            got = pulses.decoupling_schedule(mat, slot, width).events
            assert got == numpy_decoupling_events(mat, slot, width)
            assert all(type(e.target) is int for e in got)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 16))
def test_recouple_checks_every_pair(n):
    # ConfigError exactly for an index outside range(n) or an equal pair;
    # otherwise the distinct Hadamard rows leave no degraded pair
    m = pulses.hadamard_sign_matrix(n)
    for i in range(-n, 2 * n):
        for j in range(-n, 2 * n):
            if not (0 <= i < n and 0 <= j < n) or i == j:
                with pytest.raises(ConfigError, match="invalid for n="):
                    pulses.recouple(m, (i, j))
            else:
                res = pulses.recouple(m, (i, j))
                assert res.matrix.scales[i][j] == 1.0
                assert res.degraded_pairs == ()
