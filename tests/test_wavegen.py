"""Waveform generator tests: segment kinds, merging, fixtures."""

import re

import numpy as np
import pytest

from amscheck import TraceError, generate, load_spec
from amscheck.wavegen import fixture_spec, fixture_trace


def spec_of(**signals):
    return {"signals": signals}


class TestSegments:
    def test_pwl(self):
        tr = generate(spec_of(v={"segments": [
            {"type": "pwl", "points": [[0, 0], [1, 2], [2, 0]]},
        ]}))
        assert tr.value_at("v", 0.5) == pytest.approx(1.0)
        assert (tr.domain.lo, tr.domain.hi) == (0.0, 2.0)

    def test_ramp(self):
        tr = generate(spec_of(v={"segments": [
            {"type": "ramp", "t0": 0.0, "t1": 2.0, "v0": 1.0, "v1": 3.0},
        ]}))
        assert tr.value_at("v", 1.0) == pytest.approx(2.0)

    def test_exp_settles_toward_target(self):
        tr = generate(spec_of(v={"segments": [
            {"type": "exp", "t0": 0.0, "t1": 5.0, "v0": 0.0, "target": 1.0, "tau": 0.5},
        ]}))
        assert tr.value_at("v", 0.0) == pytest.approx(0.0)
        assert tr.value_at("v", 5.0) == pytest.approx(1.0, abs=1e-4)
        # monotone rise
        v = tr.values("v")
        assert np.all(np.diff(v) >= -1e-12)

    def test_square_wave(self):
        tr = generate(spec_of(d={"kind": "boolean", "segments": [
            {"type": "square", "t0": 0.0, "t1": 4.0, "period": 2.0, "duty": 0.5},
        ]}))
        assert tr.value_at("d", 0.5) == 1.0
        assert tr.value_at("d", 1.5) == 0.0
        assert tr.value_at("d", 2.5) == 1.0

    def test_square_on_analog_rejected(self):
        with pytest.raises(TraceError):
            generate(spec_of(v={"segments": [
                {"type": "square", "t0": 0, "t1": 4, "period": 2},
            ]}))

    def test_multi_signal_time_merge(self):
        """Knots of one signal become samples of the other; linear shapes
        are preserved exactly."""
        tr = generate(spec_of(
            a={"segments": [{"type": "pwl", "points": [[0, 0], [4, 4]]}]},
            b={"segments": [{"type": "pwl", "points": [[0, 1], [1, 0], [4, 3]]}]},
        ))
        assert 1.0 in tr.times()
        assert tr.value_at("a", 1.0) == pytest.approx(1.0)

    def test_t_end_clips(self):
        tr = generate({
            "t_end": 1.5,
            "signals": {"v": {"segments": [
                {"type": "pwl", "points": [[0, 0], [1, 1], [2, 2]]},
            ]}},
        })
        assert tr.domain.hi == pytest.approx(1.5)


class TestErrors:
    @pytest.mark.parametrize("bad", [
        {},
        {"signals": {}},
        {"signals": {"v": {"segments": []}}},
        {"signals": {"v": {"segments": [{"type": "blob"}]}}},
        {"signals": {"v": {"segments": [{"type": "pwl", "points": []}]}}},
        {"signals": {"v": {"segments": [{"type": "pwl", "points": [[0, 0], [0, 1]]}]}}},
        {"signals": {"v": {"kind": "digital", "segments": [
            {"type": "pwl", "points": [[0, 0], [1, 1]]}]}}},
        {"signals": {"v": {"segments": [{"type": "ramp", "t0": 0, "t1": 1}]}}},
        {"signals": {"v": {"segments": [
            {"type": "exp", "t0": 0, "t1": 1, "v0": 0, "target": 1, "tau": -1}]}}},
        # malformed shapes: the wrong type where a mapping, list or number belongs
        {"signals": {"x": 5}},
        {"signals": {"v": {"segments": [{"type": "pwl", "points": [["a", 1], [1, 2]]}]}}},
        {"signals": {"v": {"segments": 7}}},
        {"signals": {"v": {"segments": [7]}}},
        {"signals": {"v": {"segments": [{"type": "square", "t0": 0, "t1": 1, "period": 0.5, "duty": [1]}]}}},
        {"t_end": "z", "signals": {"v": {"segments": [{"type": "pwl", "points": [[0, 0], [1, 1]]}]}}},
    ])
    def test_malformed_specs(self, bad):
        with pytest.raises(TraceError):
            generate(bad)

    def test_malformed_spec_names_the_signal(self):
        with pytest.raises(TraceError, match=r"^signal 'v': malformed spec: missing key 'v1'$"):
            generate({"signals": {"v": {"segments": [{"type": "ramp", "t0": 0, "t1": 1, "v0": 0}]}}})
        with pytest.raises(TraceError, match=r"^signal 'x': malformed spec: 'int' object has no attribute 'get'$"):
            generate({"signals": {"x": 5}})


    @pytest.mark.parametrize("point", [[1, 2, 3], 5, "ab"])
    def test_pwl_point_needs_two_numbers(self, point):
        with pytest.raises(TraceError, match=r"^pwl point must be \[t, v\]: " + re.escape(repr(point)) + "$"):
            generate({"signals": {"v": {"segments": [{"type": "pwl", "points": [[0, 0], point]}]}}})

    @pytest.mark.parametrize("bad", [{"period": 0}, {"duty": 1}, {"duty": 0}, {"t1": 0}])
    def test_square_parameters(self, bad):
        seg = {"type": "square", "t0": 0, "t1": 1, "period": 0.5, **bad}
        with pytest.raises(TraceError, match=r"^square segment needs period > 0, 0 < duty < 1, t1 > t0$"):
            generate({"signals": {"d": {"kind": "boolean", "segments": [seg]}}})

    def test_spec_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"signals": {"v": }}')
        with pytest.raises(TraceError, match=r"^bad waveform spec .*spec\.json: Expecting value: line 1 column 19"):
            load_spec(str(path))


class TestDeterminism:
    def test_same_spec_same_trace(self):
        spec = fixture_spec("settling")
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.times(), b.times())
        for name in a.signals:
            assert np.array_equal(a.values(name), b.values(name))


class TestFixtures:
    def test_settling_shape(self):
        tr = fixture_trace("settling")
        assert tr.signals == ("Vout",)
        assert tr.domain.hi == pytest.approx(8e-3)
        # trigger crossing of 10% rated output sits exactly on a sample
        assert 0.7e-3 in tr.times()

    def test_escape_shape(self):
        tr = fixture_trace("delay-escape")
        assert set(tr.signals) == {"Vin", "Vout"}
        assert tr.value_at("Vin", 1e-5) == pytest.approx(3.0)

    def test_unknown_fixture(self):
        with pytest.raises(TraceError):
            fixture_trace("nope")
