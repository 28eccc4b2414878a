"""Trace container, interpolation, and CSV round-trip tests."""

import numpy as np
import pytest

from amscheck import Trace, TraceError, UnknownSignalError, load_csv, save_csv
from amscheck.wavegen import fixture_trace


def ramp_trace():
    return Trace([0.0, 1.0, 2.0], {"v": [0.0, 2.0, 0.0]})


class TestConstruction:
    def test_domain(self):
        tr = ramp_trace()
        assert (tr.domain.lo, tr.domain.hi) == (0.0, 2.0)
        assert tr.domain.lo_closed and tr.domain.hi_closed

    def test_time_must_increase(self):
        with pytest.raises(TraceError):
            Trace([0.0, 1.0, 0.5], {"v": [0, 1, 2]})
        with pytest.raises(TraceError):
            Trace([0.0, 1.0, 1.0], {"v": [0, 1, 2]})

    def test_length_mismatch(self):
        with pytest.raises(TraceError):
            Trace([0.0, 1.0], {"v": [0.0]})

    def test_too_short(self):
        with pytest.raises(TraceError):
            Trace([0.0], {"v": [1.0]})

    def test_unknown_kind(self):
        with pytest.raises(TraceError):
            Trace([0, 1], {"v": [0, 1]}, kinds={"v": "digital"})

    def test_boolean_values_checked(self):
        with pytest.raises(TraceError):
            Trace([0, 1], {"d": [0.0, 0.5]}, kinds={"d": "boolean"})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(TraceError, match="non-finite"):
            Trace([0, 1, 2, 3], {"x": [0.0, bad, 1.0, 0.0]})
        with pytest.raises(TraceError, match="non-finite"):
            Trace([0.0, 1.0, bad], {"x": [0.0, 1.0, 0.0]})

    def test_finite_values_whose_sum_overflows_accepted(self):
        tr = Trace([0.0, 1.0], {"x": [1e308, 1e308]})
        assert tr.value_at("x", 0.5) == 1e308


class TestLookup:
    def test_linear_interpolation(self):
        tr = ramp_trace()
        assert tr.value_at("v", 0.5) == pytest.approx(1.0)
        assert tr.value_at("v", 1.5) == pytest.approx(1.0)

    def test_exact_sample(self):
        tr = ramp_trace()
        assert tr.value_at("v", 1.0) == pytest.approx(2.0)

    def test_boolean_holds_last_value(self):
        tr = Trace([0.0, 1.0, 2.0], {"d": [0.0, 1.0, 1.0]}, kinds={"d": "boolean"})
        assert tr.value_at("d", 0.5) == 0.0
        assert tr.value_at("d", 1.0) == 1.0
        assert tr.value_at("d", 1.7) == 1.0

    def test_out_of_domain(self):
        tr = ramp_trace()
        with pytest.raises(TraceError):
            tr.value_at("v", -0.1)
        with pytest.raises(TraceError):
            tr.value_at("v", 2.1)

    def test_unknown_signal(self):
        with pytest.raises(UnknownSignalError):
            ramp_trace().value_at("w", 0.5)

    def test_sample_row(self):
        t, vals = ramp_trace().sample(1)
        assert t == 1.0
        assert vals == {"v": 2.0}


class TestAppend:
    def test_append_extends_domain(self):
        tr = ramp_trace()
        tr.append_sample(3.0, {"v": 1.0})
        assert tr.domain.hi == 3.0
        assert tr.value_at("v", 2.5) == pytest.approx(0.5)

    def test_append_must_advance(self):
        tr = ramp_trace()
        with pytest.raises(TraceError):
            tr.append_sample(2.0, {"v": 1.0})

    def test_append_needs_all_signals(self):
        tr = ramp_trace()
        with pytest.raises(TraceError):
            tr.append_sample(3.0, {})

    def test_append_rejects_non_finite(self):
        tr = Trace([0.0, 1.0], {"v": [0.0, 1.0], "w": [0.0, 1.0]})
        with pytest.raises(TraceError):
            tr.append_sample(2.0, {"v": 1.0, "w": float("nan")})
        with pytest.raises(TraceError):
            tr.append_sample(float("inf"), {"v": 1.0, "w": 1.0})
        # a rejected sample leaves the trace untouched
        assert len(tr) == 2 and len(tr.values("v")) == 2


class TestCsv:
    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("time,x\n0,0\n1,nan\n2,1\n")
        with pytest.raises(TraceError, match="non-finite"):
            load_csv(str(path))

    def test_round_trip(self, tmp_path):
        tr = Trace(
            [0.0, 1e-3, 2e-3],
            {"v": [0.0, 1.25, 0.5], "d": [0.0, 1.0, 0.0]},
            kinds={"d": "boolean"},
        )
        path = tmp_path / "t.csv"
        save_csv(tr, path)
        back = load_csv(path)
        assert np.allclose(back.times(), tr.times())
        assert np.allclose(back.values("v"), tr.values("v"))
        assert back.kinds["d"] == "boolean"
        assert back.kinds["v"] == "analog"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TraceError):
            load_csv(path)


class TestFixtureWaveform:
    def test_settling_porv_components(self):
        """The packaged settling waveform holds its in-band predicate on
        exactly four spans."""
        tr = fixture_trace("settling")
        v = tr.values("Vout")
        t = tr.times()
        rated = 1.2
        inside = (v >= 0.95 * rated - 1e-12) & (v <= 1.05 * rated + 1e-12)
        # four maximal runs of in-band samples
        runs = []
        prev = False
        for i, flag in enumerate(inside):
            if flag and not prev:
                runs.append([t[i], t[i]])
            elif flag:
                runs[-1][1] = t[i]
            prev = flag
        assert len(runs) == 4
        assert runs[0] == pytest.approx([1.6e-3, 2.03e-3])
        assert runs[-1] == pytest.approx([3.8e-3, 7.9e-3])
