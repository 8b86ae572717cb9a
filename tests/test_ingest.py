import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import powerplan as pp
from powerplan.core import _all_finite
from synth_corpus import (
    discovered_feasible,
    format_counts_file,
    random_device_params,
    random_grid,
    random_profile,
    reference_parse_counts_file,
    reference_parse_power_log,
    reference_parse_relation_file,
    reference_parse_safe_table,
    reference_parse_timing_log,
)


class TestParsePowerLog:
    def test_three_samples(self):
        trace = pp.parse_power_log("0.0,4000\n1.0,4500\n2.0,4200")
        assert len(trace.power_mw) == 3
        assert trace.peak_w == 4.5

    def test_comments_and_blanks_skipped(self):
        trace = pp.parse_power_log("# header\n\n0.0,100\n")
        assert (trace.timestamps_s, trace.power_mw) == ((0.0,), (100.0,))

    def test_malformed_line_locates_error(self):
        with pytest.raises(pp.ParseError, match="line 2"):
            pp.parse_power_log("0.0,4000\n1.0;4500")

    def test_non_monotone_timestamp_locates_error(self):
        with pytest.raises(pp.ParseError, match="line 3: non-monotone"):
            pp.parse_power_log("0.0,4000\n1.0,4500\n1.0,4200")

    def test_negative_power_rejected(self):
        with pytest.raises(pp.ParseError, match="negative power"):
            pp.parse_power_log("0.0,-5")

    @pytest.mark.parametrize("line", ["nan,4100", "1.0,nan", "inf,4100", "1.0,inf", "-inf,4100"])
    def test_non_finite_value_locates_error(self, line):
        # a nan timestamp used to pass the monotone check, and a nan or inf
        # power sample reached the profile with no file or line
        with pytest.raises(pp.ParseError) as exc:
            pp.parse_power_log(f"0.0,4000\n{line}\n2.0,4200")
        assert str(exc.value) == f"line 2: non-finite value in {line!r}"

    def test_generated_file_round_trips_count_and_peak(self):
        rng = np.random.default_rng(60)
        mws = rng.uniform(500.0, 9000.0, 10_000)
        text = "\n".join(f"{float(i)},{repr(float(p))}" for i, p in enumerate(mws))
        trace = pp.parse_power_log(text)
        assert len(trace.power_mw) == 10_000
        assert trace.peak_w == float(mws.max()) / 1000.0


class TestParseTimingLog:
    def test_warmup_removed(self):
        trace = pp.parse_timing_log("b=32,f_mhz=307.0,warmup=1\n0.5\n0.2\n0.2")
        assert trace.batch_size == 32
        assert trace.frequency_mhz == 307.0
        assert trace.retained == (0.2, 0.2)
        assert trace.warmup_discarded == 1

    def test_all_samples_discarded(self):
        with pytest.raises(pp.DataError, match="all samples discarded"):
            pp.parse_timing_log("b=32,f_mhz=307.0,warmup=3\n0.5\n0.2\n0.2")

    def test_bad_header(self):
        with pytest.raises(pp.ParseError, match="line 1"):
            pp.parse_timing_log("b=32,f=307,warmup=1\n0.2")

    @pytest.mark.parametrize(
        "header",
        [
            "b=0,f_mhz=307.0,warmup=1",
            "b=-8,f_mhz=307.0,warmup=1",
            "b=32,f_mhz=0.0,warmup=1",
            "b=32,f_mhz=-307.0,warmup=1",
            "b=32,f_mhz=307.0,warmup=-1",
        ],
    )
    def test_out_of_range_header_value_names_header_line(self, header):
        with pytest.raises(pp.ParseError) as exc:
            pp.parse_timing_log(f"# recorder v2\n{header}\n0.5\n0.2\n")
        assert str(exc.value) == f"line 2: invalid header values in {header!r}"

    def test_bad_duration_line(self):
        with pytest.raises(pp.ParseError, match="line 3"):
            pp.parse_timing_log("b=32,f_mhz=307.0,warmup=0\n0.2\nfast")

    def test_missing_header(self):
        with pytest.raises(pp.DataError, match="no header"):
            pp.parse_timing_log("# only comments\n")

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_duration_locates_error(self, token):
        with pytest.raises(pp.ParseError) as exc:
            pp.parse_timing_log(f"b=32,f_mhz=307.0,warmup=0\n# note\n0.2\n{token}\n0.2")
        assert str(exc.value) == f"line 4: non-finite value in {token!r}"

    @pytest.mark.parametrize("token", ["0", "-0.0", "-2.5"])
    def test_non_positive_duration_locates_error(self, token):
        with pytest.raises(pp.ParseError) as exc:
            pp.parse_timing_log(f"b=32,f_mhz=307.0,warmup=0\n0.2\n{token}\n0.2")
        assert str(exc.value) == f"line 3: non-positive duration {float(token)!r}"

    def test_warmup_override(self):
        text = "b=32,f_mhz=307.0,warmup=1\n0.5\n0.2\n0.2"
        trace = pp.parse_timing_log(text, warmup_override=2)
        assert trace.retained == (0.2,)

    def test_max_minibatches_trims_tail(self):
        text = "b=32,f_mhz=307.0,warmup=1\n0.5\n0.2\n0.3\n0.4"
        trace = pp.parse_timing_log(text, max_minibatches=2)
        assert trace.retained == (0.2, 0.3)
        with pytest.raises(pp.DataError, match="^max_minibatches must be at least 1$"):
            pp.parse_timing_log(text, max_minibatches=0)

    def test_generated_durations_round_trip_exactly(self):
        rng = np.random.default_rng(61)
        durations = [float(d) for d in rng.uniform(0.01, 2.0, 100)]
        text = "b=8,f_mhz=460.0,warmup=0\n" + "\n".join(repr(d) for d in durations)
        trace = pp.parse_timing_log(text)
        assert trace.minibatch_durations == tuple(durations)
        assert sum(trace.retained) / len(trace.retained) == sum(durations) / len(durations)


class TestAggregatePoint:
    def test_time_scaling(self):
        timing = pp.parse_timing_log("b=32,f_mhz=307.0,warmup=1\n0.5\n0.2\n0.2")
        power = pp.parse_power_log("0.0,4000\n1.0,4500\n2.0,4200")
        point = pp.aggregate_point(power, timing, 4096)
        assert point.t_s_seconds == 25.6  # 0.2 s * 4096 / 32
        assert point.peak_w == 4.5
        assert point.avg_w == (4000 + 4500 + 4200) / 3 / 1000

    def test_fractional_minibatch_scaling_allowed(self):
        # s need not be a multiple of the batch size
        timing = pp.parse_timing_log("b=32,f_mhz=307.0,warmup=0\n0.2\n0.2")
        power = pp.parse_power_log("0.0,1000")
        point = pp.aggregate_point(power, timing, 100)
        assert point.t_s_seconds == pytest.approx(0.2 * 100 / 32, rel=1e-12)

    def test_doubling_s_doubles_t_s(self):
        timing = pp.parse_timing_log("b=16,f_mhz=460.0,warmup=0\n0.37\n0.41")
        power = pp.parse_power_log("0.0,2000")
        once = pp.aggregate_point(power, timing, 1000)
        twice = pp.aggregate_point(power, timing, 2000)
        assert twice.t_s_seconds == 2.0 * once.t_s_seconds

    def test_peak_percentile_mode(self):
        timing = pp.parse_timing_log("b=16,f_mhz=460.0,warmup=0\n0.3")
        mws = list(range(1000, 2001))  # 1000..2000 mW
        power = pp.parse_power_log("\n".join(f"{float(i)},{m}" for i, m in enumerate(mws)))
        plain = pp.aggregate_point(power, timing, 100)
        clipped = pp.aggregate_point(power, timing, 100, peak_percentile=99.0)
        assert plain.peak_w == 2.0
        assert clipped.peak_w < plain.peak_w
        with pytest.raises(pp.DataError, match="percentile"):
            pp.aggregate_point(power, timing, 100, peak_percentile=0.0)

    @settings(max_examples=400, deadline=None)
    @given(
        pool=st.lists(st.floats(min_value=0.0, max_value=1e7), min_size=1, max_size=200),
        picks=st.lists(st.integers(min_value=0, max_value=199), min_size=1, max_size=200),
        q=st.one_of(st.just(100.0), st.sampled_from([50.0, 90.0, 99.0]),
                    st.floats(min_value=0.0, max_value=100.0, exclude_min=True)),
    )
    # Each example tells numpy's result from a near miss: a one-sided lerp
    # (q = 97.8), the rank computed as (n - 1) * q / 100 (q = 9.1), and the
    # midpoint t = 0.5 lerped from the lower end (q = 50, 4510.349999999999 mW).
    @example(pool=[8020.0, 363.0, 9656.0, 992.0], picks=[0, 1, 2, 3], q=97.8)
    @example(pool=[2038.0, 1039.0, 7897.0, 7921.0], picks=[0, 1, 2, 3], q=9.1)
    @example(pool=[1209.3, 7811.4], picks=[0, 1], q=50.0)
    def test_peak_percentile_is_numpys_bit_for_bit(self, pool, picks, q):
        # Samples drawn from a pool with replacement, so values repeat; the
        # peak is numpy's default percentile in watts, to the last bit, and
        # a 0 W one is rejected.
        mws = [pool[k % len(pool)] for k in picks]
        power = pp.PowerTrace(tuple(map(float, range(len(mws)))), tuple(mws))
        timing = pp.parse_timing_log("b=16,f_mhz=460.0,warmup=0\n0.3")
        expected = float(np.percentile(mws, q)) / 1000.0
        if expected == 0.0:
            with pytest.raises(pp.DataError, match="peak power must be positive"):
                pp.aggregate_point(power, timing, 100, peak_percentile=q)
            return
        peak_w = pp.aggregate_point(power, timing, 100, peak_percentile=q).peak_w
        assert peak_w.hex() == expected.hex()

    def test_means_are_correctly_rounded(self):
        # sum() of floats rounds differently before and after Python 3.12
        power = pp.parse_power_log("0,0.1\n1,0.2\n2,0.3")
        timing = pp.parse_timing_log("b=1,f_mhz=100.0,warmup=0\n0.1\n0.2\n0.3")
        point = pp.aggregate_point(power, timing, 1)
        assert power.avg_w == point.avg_w == 0.6 / 3 / 1000
        assert point.t_s_seconds == 0.6 / 3

    @pytest.mark.parametrize("b, duration, s", [(16, 1e307, 4096), (512, 5e-324, 1)])
    def test_t_s_out_of_float_range_rejected(self, b, duration, s):
        timing = pp.parse_timing_log(f"b={b},f_mhz=460.0,warmup=0\n{duration!r}")
        with pytest.raises(pp.DataError, match="T_s out of range"):
            pp.aggregate_point(pp.parse_power_log("0.0,2000"), timing, s)

    def test_empty_power_trace(self):
        timing = pp.parse_timing_log("b=16,f_mhz=460.0,warmup=0\n0.3")
        with pytest.raises(pp.DataError, match="empty power trace"):
            pp.aggregate_point(pp.PowerTrace((), ()), timing, 100)

    @pytest.mark.parametrize("samples, percentile", [("0.0,0\n1.0,0", None), ("0,0\n1,0\n2,0\n3,5000", 50.0)])
    def test_zero_peak_rejected(self, samples, percentile):
        # A mostly-zero log has a 5 W maximum but a 0 W median.
        timing = pp.parse_timing_log("b=16,f_mhz=460.0,warmup=0\n0.3")
        with pytest.raises(pp.DataError) as exc:
            pp.aggregate_point(pp.parse_power_log(samples), timing, 100, peak_percentile=percentile)
        assert str(exc.value) == "peak power must be positive, got 0.0 W"

    def test_zero_average_rejected(self):
        # A positive peak of 1e-323 W whose mean over six samples underflows to 0 W.
        timing = pp.parse_timing_log("b=16,f_mhz=460.0,warmup=0\n0.3")
        power = pp.parse_power_log("0,1e-320\n" + "".join(f"{t},0\n" for t in range(1, 6)))
        with pytest.raises(pp.DataError) as exc:
            pp.aggregate_point(power, timing, 100)
        assert str(exc.value) == "average power must be positive, got 0.0 W"

    def test_recovers_synthetic_ground_truth(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            params = random_device_params(rng)
            b = int(rng.integers(1, 256))
            f = float(rng.uniform(100.0, 1500.0))
            s = int(rng.integers(256, 8192))
            cell = pp.generate_profile((b,), (f,), params, s)
            t_true, peak_true = float(cell.time_table[0, 0]), float(cell.power_table[0, 0])
            duration = t_true * b / s
            m = int(rng.integers(2, 8))
            timing = pp.TimingTrace(b, f, (duration * 3,) + (duration,) * m, warmup_discarded=1)
            mw_peak = peak_true * 1000.0
            power = pp.PowerTrace((0.0, 1.0, 2.0), (mw_peak * 0.6, mw_peak, mw_peak * 0.8))
            point = pp.aggregate_point(power, timing, s)
            assert point.t_s_seconds == pytest.approx(t_true, rel=1e-9)
            assert point.peak_w == pytest.approx(peak_true, rel=1e-9)


def _outcome(parse, *args):
    """What ``parse`` returns, or the type and text of the DataError it raises."""
    try:
        return parse(*args)
    except pp.DataError as exc:
        return type(exc), str(exc)


NOISE_LINES = ["", "   ", "\t", "# note", "#1.0,x", "  # 5,5"]


def _render(data, lines: list[str]) -> str:
    """Lines with comments, blanks and padding drawn in, joined with LF or CRLF."""
    out = []
    for line in lines:
        out += data.draw(st.lists(st.sampled_from(NOISE_LINES), max_size=2))
        pad = data.draw(st.sampled_from(["", " ", "\t", "  "]))
        out.append(pad + line + data.draw(st.sampled_from(["", " ", "\t"])))
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + data.draw(st.sampled_from(["", end]))


finite = st.floats(allow_nan=False, allow_infinity=False)
BAD_TOKENS = ["x", "", "1..0", "0x10", "nan", "inf", "-inf", "NaN", "1e999"]


class TestLogParsersAgainstReference:
    """The column parsers against the line-by-line reference, over fuzzed logs."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_power_log(self, data):
        ts = sorted(data.draw(st.lists(finite, max_size=12, unique=True)))
        mw = data.draw(
            st.lists(st.floats(0.0, 1e7) | st.just(-0.0), min_size=len(ts), max_size=len(ts))
        )
        fields = [[repr(t), repr(p)] for t, p in zip(ts, mw)]
        for _ in range(data.draw(st.integers(0, 2)) if fields else 0):
            k = data.draw(st.integers(0, len(fields) - 1))
            fault = data.draw(st.sampled_from(["token", "count", "repeat", "negative"]))
            if fault == "token":
                fields[k][data.draw(st.integers(0, len(fields[k]) - 1))] = data.draw(st.sampled_from(BAD_TOKENS))
            elif fault == "count":
                fields[k] = data.draw(st.sampled_from([fields[k][:1], fields[k] + ["1"], ["1;2"]]))
            elif fault == "repeat" and k > 0:
                fields[k][0] = fields[k - 1][0]
            else:
                fields[k][-1] = data.draw(st.sampled_from(["-1", "-0.5", "-1e-300"]))
        text = _render(data, [",".join(f) for f in fields])
        assert _outcome(pp.parse_power_log, text) == _outcome(reference_parse_power_log, text)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_timing_log(self, data):
        warmup = data.draw(st.integers(0, 3))
        header = f"b={data.draw(st.integers(1, 512))},f_mhz={data.draw(st.floats(1.0, 2e3))!r},warmup={warmup}"
        header = data.draw(
            st.sampled_from([
                header, header.replace("f_mhz", "f"), header.replace("warmup=", "warmup=x"), "0.5",
                header.replace("b=", "b=-"), header.replace("f_mhz=", "f_mhz=-"), header.replace("warmup=", "warmup=-"),
            ])
        )
        tokens = [repr(d) for d in data.draw(st.lists(st.floats(1e-9, 1e3), max_size=8))]
        for _ in range(data.draw(st.integers(0, 2)) if tokens else 0):
            k = data.draw(st.integers(0, len(tokens) - 1))
            tokens[k] = data.draw(st.sampled_from(BAD_TOKENS + ["0", "-0.0", "-2.5", "1,2"]))
        lines = data.draw(st.sampled_from([[header], []])) + tokens
        args = (
            _render(data, lines),
            data.draw(st.none() | st.integers(0, 3)),
            data.draw(st.none() | st.integers(0, 4)),
        )
        assert _outcome(pp.parse_timing_log, *args) == _outcome(reference_parse_timing_log, *args)


PROFILE_HEAD = "m,1\n8,32\n300.0,600.0\n8,300.0,2.0,3.0\n"
# Per faulty line: its parser, the text and the faulty line's number.
FAULTY_LINES = {
    "power token": (pp.parse_power_log, "0.0,1000\n1.0,x\n", 2),
    "power field count": (pp.parse_power_log, "0.0,1000\n1.0\n", 2),
    "power non-finite": (pp.parse_power_log, "0.0,1000\n1.0,inf\n", 2),
    "power timestamp": (pp.parse_power_log, "0.0,1000\n0.0,900\n", 2),
    "power negative": (pp.parse_power_log, "# log\n0.0,1000\n1.0,-5\n", 3),
    "timing header keys": (pp.parse_timing_log, "b=8,f=300,warmup=1\n0.5\n", 1),
    "timing header values": (pp.parse_timing_log, "\nb=8,f_mhz=-300,warmup=1\n0.5\n", 2),
    "timing duration token": (pp.parse_timing_log, "b=8,f_mhz=300,warmup=1\n0.5\nx\n", 3),
    "timing duration non-finite": (pp.parse_timing_log, "b=8,f_mhz=300,warmup=1\n0.5\nnan\n", 3),
    "timing duration zero": (pp.parse_timing_log, "b=8,f_mhz=300,warmup=1\n0.5\n0\n", 3),
    "cell token": (pp.load_profile, PROFILE_HEAD + "8,600.0,x,4.0\n", 5),
    "cell field count": (pp.load_profile, PROFILE_HEAD + "8,600.0,1.0\n", 5),
    "cell off axis": (pp.load_profile, PROFILE_HEAD + "16,600.0,1.0,4.0\n", 5),
    "cell duplicate": (pp.load_profile, PROFILE_HEAD + "8,300.0,2.0,3.0\n", 5),
}


@pytest.mark.parametrize("case", sorted(FAULTY_LINES))
def test_parse_errors_print_no_internal_error(case):
    # A ParseError raised while the column parse's error is handled drops it
    # (``from None``), so a traceback shows the faulty line and nothing else.
    parse, text, line_no = FAULTY_LINES[case]
    with pytest.raises(pp.ParseError) as info:
        parse(text)
    assert info.value.line_no == line_no
    assert info.value.__cause__ is None
    assert info.value.__suppress_context__ is True or info.value.__context__ is None


# Per two-field file: its parser, its line-by-line reference, and the key and
# value tokens of valid lines.
TWO_FIELD_FILES = {
    "relation": (pp.parse_relation_file, reference_parse_relation_file,
                 ["8", "16", "32", "64"], ["1.0", "1", "0.5", "0.6666666666666666", "1e-3"]),
    "counts": (pp.parse_counts_file, reference_parse_counts_file,
               ["8", "16", "32", "64"], ["10", "15", "2.5", "1e3"]),
    "safe": (pp.parse_safe_table, reference_parse_safe_table,
             ["4.5", "5.0", "7.0", "unlimited", "inf"], ["307.0", "460.0", "614.0", "921"]),
}
SOURCE_ID_LINES = ["source_id,proxy-a", "source_id,proxy-a", "source_id,", "source_id,a,b", "source_id"]


class TestTwoFieldFilesAgainstReference:
    """Relation, counts and safe-frequency parsers against their line-by-line references."""

    @pytest.mark.parametrize("kind", sorted(TWO_FIELD_FILES))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome(self, kind, data):
        parse, reference, keys, values = TWO_FIELD_FILES[kind]
        drawn = data.draw(st.lists(st.sampled_from(keys), unique=True))
        fields = [[key, data.draw(st.sampled_from(values))] for key in drawn]
        if fields and data.draw(st.booleans()):  # one value throughout: a valid file of any kind
            fields = [[key, fields[0][1]] for key, _ in fields]
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 2])) if fields else 0):
            k = data.draw(st.integers(0, len(fields) - 1))
            fault = data.draw(st.sampled_from(["token", "count", "duplicate", "non-finite"]))
            if fault == "token":
                fields[k][data.draw(st.integers(0, len(fields[k]) - 1))] = data.draw(
                    st.sampled_from(BAD_TOKENS + ["0", "-1", "1.5"])
                )
            elif fault == "count":
                fields[k] = data.draw(st.sampled_from([fields[k][:1], fields[k] + ["1"], ["1;2"]]))
            elif fault == "duplicate":
                fields[k][0] = fields[data.draw(st.integers(0, len(fields) - 1))][0]
            else:
                fields[k][-1] = data.draw(st.sampled_from(["inf", "-inf", "nan"]))
        lines = [",".join(f) for f in fields]
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
            at = data.draw(st.sampled_from([0, 0, len(lines)]) | st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(SOURCE_ID_LINES)))
        text = _render(data, lines)
        assert _outcome(parse, text) == _outcome(reference, text)


class TestProfilingSchedule:
    def oracle_from(self, table, batches, freqs):
        lookup = {
            (b, f): table[i][j]
            for i, b in enumerate(batches)
            for j, f in enumerate(freqs)
        }
        return lambda b, f: lookup[(b, f)]

    def test_pruned_walk_matches_expected_probes(self):
        batches = (64, 128)
        freqs = (307.0, 460.0, 614.0)
        power = [[4.0, 4.8, 5.6], [4.6, 5.5, 6.5]]
        oracle = self.oracle_from(power, batches, freqs)
        sched = pp.profiling_schedule(batches, freqs, pp.PowerCap(5.0), oracle)
        assert sched == (
            (128, 307.0),  # feasible
            (128, 460.0),  # stopping probe, over the cap
            (64, 307.0),   # resumes at the previous batch's best frequency
            (64, 460.0),
            (64, 614.0),   # stopping probe
        )

    def test_smaller_batches_resume_above_the_lowest_frequency(self):
        batches = (8, 16, 32)
        freqs = (100.0, 200.0, 300.0, 400.0)
        power = [[2.0, 2.5, 3.0, 4.9], [3.0, 3.8, 4.6, 5.2], [4.0, 4.5, 5.5, 6.0]]
        oracle = self.oracle_from(power, batches, freqs)
        sched = pp.profiling_schedule(batches, freqs, pp.PowerCap(5.0), oracle)
        assert sched == (
            (32, 100.0), (32, 200.0), (32, 300.0),  # best so far: 200 MHz
            (16, 200.0), (16, 300.0), (16, 400.0),  # resumes at 200, best so far: 300 MHz
            (8, 300.0), (8, 400.0),                 # resumes at 300, runs off the grid
        )

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_batch_resumes_at_the_best_frequency_so_far(self, data):
        # A monotone device: power never falls along either axis, ties included.
        n_b, n_f = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        steps = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
        power = [[0.0] * n_f for _ in range(n_b)]
        for i in range(n_b):
            for j in range(n_f):
                below = max(power[i - 1][j] if i else 1.0, power[i][j - 1] if j else 1.0)
                power[i][j] = below + data.draw(steps)
        batches = tuple(8 * 2**i for i in range(n_b))
        freqs = tuple(100.0 * (j + 1) for j in range(n_f))
        cap = pp.PowerCap(data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 100.0])))
        oracle = self.oracle_from(power, batches, freqs)
        sched = pp.profiling_schedule(batches, freqs, cap, oracle)
        assert len(sched) <= n_b * n_f
        best = None  # index of the highest frequency probed under the cap so far
        for b in reversed(batches):
            row = [freqs.index(f) for probe_b, f in sched if probe_b == b]
            assert row[0] == (0 if best is None else best)
            feasible = [j for j in row if oracle(b, freqs[j]) < cap.p_max]
            if feasible:
                best = max(feasible if best is None else [best, *feasible])

    def test_unlimited_cap_covers_full_grid(self):
        batches = (8, 16, 32)
        freqs = (100.0, 200.0)
        sched = pp.profiling_schedule(
            batches, freqs, pp.PowerCap.unlimited(), lambda b, f: 1.0
        )
        assert len(sched) == len(batches) * len(freqs)
        assert sched[:2] == ((32, 100.0), (32, 200.0))

    def test_sorted_axes_required(self):
        with pytest.raises(pp.DataError) as exc:
            pp.profiling_schedule((16, 8), (100.0,), pp.PowerCap(5.0), lambda b, f: 1.0)
        assert str(exc.value) == "batch sizes must be strictly increasing positive integers"
        with pytest.raises(pp.DataError) as exc:
            pp.profiling_schedule((8,), (200.0, 100.0), pp.PowerCap(5.0), lambda b, f: 1.0)
        assert str(exc.value) == "frequencies must be strictly increasing positive values"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -100.0])
    def test_non_finite_or_non_positive_frequency_rejected(self, bad):
        # DeviceProfile's axis rule: such an axis never reaches the oracle.
        def oracle(b, f):
            raise AssertionError(f"probed ({b}, {f})")

        for freqs in ((bad,), (bad, 100.0), (100.0, bad), (-100.0, bad)):
            with pytest.raises(pp.DataError) as exc:
                pp.profiling_schedule((8,), freqs, pp.PowerCap(5.0), oracle)
            assert str(exc.value) == "frequencies must be strictly increasing positive values"

    def test_discovered_pairs_match_full_grid_feasible_set(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            params = random_device_params(rng)
            batches, freqs = random_grid(rng, max_batches=6, max_freqs=10)
            profile = pp.generate_profile(batches, freqs, params, 1024)
            lo, hi = float(profile.power_table.min()), float(profile.power_table.max())
            cap = pp.PowerCap(float(rng.uniform(lo * 0.9, hi * 1.1)))
            oracle = self.oracle_from(profile.power_table, batches, freqs)
            sched = pp.profiling_schedule(batches, freqs, cap, oracle)
            discovered = discovered_feasible(sched, oracle, cap)
            assert discovered == pp.feasible_combinations(profile, cap)

    def test_first_infeasible_row_does_not_block_smaller_batches(self):
        batches = (8, 16)
        freqs = (100.0, 200.0)
        power = {(16, 100.0): 9.0, (16, 200.0): 9.5, (8, 100.0): 4.0, (8, 200.0): 5.5}
        oracle = lambda b, f: power[(b, f)]
        cap = pp.PowerCap(5.0)
        sched = pp.profiling_schedule(batches, freqs, cap, oracle)
        assert sched == ((16, 100.0), (8, 100.0), (8, 200.0))
        assert discovered_feasible(sched, oracle, cap) == {8: 100.0}


class TestProfilePersistence:
    @pytest.mark.parametrize("text", ["m,4096\n", "m,4096\n8,16\n", "# header only\nm,4096\n# 8,16\n"])
    def test_missing_axis_lines(self, text):
        with pytest.raises(pp.DataError) as exc:
            pp.load_profile(text)
        assert str(exc.value) == "profile file missing axis lines"

    def test_hand_written_round_trip(self):
        prof = pp.DeviceProfile(
            model_id="two-by-two",
            batch_sizes=(8, 16),
            frequencies=(100.0, 200.0),
            time_table=[[4.0, 2.0], [3.0, 1.5]],
            power_table=[[1.0, 2.0], [1.5, 2.5]],
            samples_per_unit=512,
        )
        assert pp.load_profile(pp.save_profile(prof)) == prof

    def test_fixture_profile_loads(self, data_dir):
        prof = pp.load_profile((data_dir / "profile_b64_b128.csv").read_text())
        assert prof.batch_sizes == (64, 128)
        assert prof.model_id == "edge-cnn"
        assert prof.avg_power_table is not None

    def test_random_profiles_round_trip_bit_exact(self):
        rng = np.random.default_rng(64)
        for _ in range(100):
            profile, _ = random_profile(rng, max_batches=5, max_freqs=6)
            again = pp.load_profile(pp.save_profile(profile))
            assert again == profile
            assert pp.save_profile(again) == pp.save_profile(profile)

    def test_missing_cell(self):
        text = "m,4\n8,16\n100.0\n8,100.0,1.0,1.0\n"
        with pytest.raises(pp.DataError, match=r"missing cell \(16, 100.0\)"):
            pp.load_profile(text)

    def test_duplicate_cell(self):
        text = "m,4\n8\n100.0\n8,100.0,1.0,1.0\n8,100.0,1.0,1.0\n"
        with pytest.raises(pp.ParseError, match="duplicate cell"):
            pp.load_profile(text)
        # A batch axis that repeats a value, its cells in grid order: the
        # axis line is named before any cell is placed.
        text = "m,4\n8,8\n1.0,2.0\n8,1.0,5.0,1.0\n8,2.0,4.0,2.0\n8,1.0,5.0,1.0\n8,2.0,4.0,2.0\n"
        with pytest.raises(pp.ParseError) as exc:
            pp.load_profile(text)
        assert str(exc.value) == "line 2: batch sizes must be strictly increasing positive integers"

    def test_cell_off_axis(self):
        text = "m,4\n8\n100.0\n12,100.0,1.0,1.0\n"
        with pytest.raises(pp.ParseError, match="not on axis"):
            pp.load_profile(text)

    def test_mixed_avg_column(self):
        text = "m,4\n8\n100.0,200.0\n8,100.0,2.0,1.0,0.9\n8,200.0,1.0,2.0\n"
        with pytest.raises(pp.ParseError, match="mixed avg_w column"):
            pp.load_profile(text)

    def test_negative_value_rejected_distinctly(self):
        text = "m,4\n8\n100.0\n8,100.0,-1.0,1.0\n"
        with pytest.raises(pp.DataError, match="strictly positive"):
            pp.load_profile(text)

    def test_nan_cell_rejected_as_non_finite(self):
        text = "m,4\n8\n100.0\n8,100.0,nan,1.0\n"
        with pytest.raises(pp.DataError, match="finite and strictly positive"):
            pp.load_profile(text)

    def test_duplicate_of_nan_cell_names_duplicate_line(self):
        text = "m,4\n8\n100.0\n8,100.0,nan,1.0\n8,100.0,1.0,1.0\n"
        with pytest.raises(pp.ParseError, match=r"line 5: duplicate cell \(8, 100.0\)"):
            pp.load_profile(text)

    @pytest.mark.parametrize(
        "token", ["1_0", "+2", " 3 ", "\u0664.5", "1e-3", ".5", "5.", "0x10", "1__0", "1e", "", "\u00bd"]
    )
    def test_value_tokens_follow_float_grammar(self, token):
        text = f"m,4\n8\n100.0\n8,100.0,{token},1.0\n"
        try:
            expected = float(token)
        except ValueError:
            with pytest.raises(pp.ParseError, match="line 4: invalid cell values"):
                pp.load_profile(text)
        else:
            assert pp.load_profile(text).time_table[0, 0] == expected

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cell_order_comments_and_blanks_do_not_matter(self, seed, data):
        profile, _ = random_profile(np.random.default_rng(seed), max_batches=4, max_freqs=6)
        lines = pp.save_profile(profile).splitlines()
        lines[3:] = data.draw(st.permutations(lines[3:]))
        noise = data.draw(
            st.lists(st.sampled_from(["", "   ", "# note", "#8,1.0,x"]), min_size=len(lines), max_size=len(lines))
        )
        text = "\n".join(line for pair in zip(noise, lines) for line in pair)
        assert pp.load_profile(text) == profile

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_first_of_two_faulty_lines_is_named(self, seed, token_first, data):
        profile, _ = random_profile(np.random.default_rng(seed), max_batches=4, max_freqs=6)
        lines = pp.save_profile(profile).splitlines()
        n_cells = len(lines) - 3
        assume(n_cells >= 3)
        k = data.draw(st.integers(1, n_cells - 2))  # cell index of the first fault
        later = data.draw(st.integers(k + 1, n_cells - 1))

        def bad_token(cell: int) -> None:
            fields = lines[3 + cell].split(",")
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(["x", "", "1..0"]))
            lines[3 + cell] = ",".join(fields)

        def duplicate(cell: int) -> None:
            lines[3 + cell] = lines[3 + data.draw(st.integers(0, cell - 1))]

        first, second = (bad_token, duplicate) if token_first else (duplicate, bad_token)
        first(k)
        with pytest.raises(pp.ParseError) as alone:
            pp.load_profile("\n".join(lines))
        assert alone.value.line_no == 4 + k
        second(later)
        with pytest.raises(pp.ParseError) as both:
            pp.load_profile("\n".join(lines))
        assert str(both.value) == str(alone.value)

    def test_bad_header(self):
        with pytest.raises(pp.ParseError) as exc:
            pp.load_profile("no-comma-here\n8\n100.0\n")
        assert str(exc.value) == "line 1: expected header model_id,s"
        with pytest.raises(pp.DataError, match="empty profile file"):
            pp.load_profile("# nothing\n")

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("m,x\n8\n100.0\n8,100.0,1.0,1.0\n", "line 1: invalid sample count 'x'"),
            ("m,4\n8,x\n100.0\n8,100.0,1.0,1.0\n", "line 2: invalid axis line"),
            ("m,4\n8\n100.0,x\n8,100.0,1.0,1.0\n", "line 3: invalid axis line"),
            ("m,4\n8\n100.0\n8,150.0,1.0,1.0\n", "line 4: cell frequency 150.0 not on axis"),
            ("m,4\n32,8\n100.0\n8,100.0,1.0,1.0\n32,100.0,1.0,1.0\n",
             "line 2: batch sizes must be strictly increasing positive integers"),
            ("m,4\n# axes\n8,0\n100.0\n8,100.0,1.0,1.0\n",
             "line 3: batch sizes must be strictly increasing positive integers"),
            ("m,4\n8\nnan\n8,nan,1.0,1.0\n", "line 3: frequencies must be strictly increasing positive values"),
            ("m,4\n8\n100.0,100.0\n8,100.0,1.0,1.0\n8,100.0,1.0,1.0\n",
             "line 3: frequencies must be strictly increasing positive values"),
            ("m,4\n8,-8\n100.0,x\n8,100.0,1.0,1.0\n",
             "line 2: batch sizes must be strictly increasing positive integers"),
        ],
        ids=["sample-count", "batch-axis", "frequency-axis", "off-axis-frequency", "descending-batches",
             "zero-batch-after-comment", "nan-frequency", "repeated-frequency", "batch-axis-before-frequency-line"],
    )
    def test_sample_count_axis_and_cell_faults_name_their_line(self, text, message):
        with pytest.raises(pp.ParseError) as exc:
            pp.load_profile(text)
        assert str(exc.value) == message

    def test_model_id_may_contain_commas(self):
        prof = pp.DeviceProfile(
            model_id="cnn,32x32",
            batch_sizes=(8,),
            frequencies=(100.0,),
            time_table=[[1.0]],
            power_table=[[1.0]],
            samples_per_unit=4,
        )
        assert pp.load_profile(pp.save_profile(prof)).model_id == "cnn,32x32"

    def test_model_id_newline_rejected(self):
        prof = pp.DeviceProfile(
            model_id="bad\nid",
            batch_sizes=(8,),
            frequencies=(100.0,),
            time_table=[[1.0]],
            power_table=[[1.0]],
            samples_per_unit=4,
        )
        with pytest.raises(pp.DataError, match="newline"):
            pp.save_profile(prof)

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_model_id_other_line_breaks_rejected(self, brk):
        # load_profile splits with str.splitlines, which breaks on these too
        prof = pp.DeviceProfile(
            model_id=f"bad{brk}id",
            batch_sizes=(8,),
            frequencies=(100.0,),
            time_table=[[1.0]],
            power_table=[[1.0]],
            samples_per_unit=4,
        )
        with pytest.raises(pp.DataError, match="newline"):
            pp.save_profile(prof)

    def test_huge_declared_grid_rejected_without_grid_memory(self):
        # 34 kB declaring 3000 x 3000 = 9M grid points, with one cell: the
        # rejection must cost memory in proportion to the file, not the grid.
        pytest.importorskip("resource")  # the child measures its own peak RSS
        child = textwrap.dedent(r"""
            import resource
            import powerplan as pp

            axis = range(1, 3001)
            text = "m,4\n" + ",".join(map(str, axis)) + "\n" + ",".join(map(repr, map(float, axis))) + "\n1,1.0,2.0,3.0\n"
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                pp.load_profile(text)
            except pp.DataError as exc:
                print(exc)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
        """)
        src = str(Path(pp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        message, grew = proc.stdout.splitlines()
        assert message == "missing cell (1, 2.0)"
        kb_per_mb = 1024 * 1024 if sys.platform == "darwin" else 1024  # ru_maxrss is bytes on macOS
        assert int(grew) / kb_per_mb < 10


class TestRelationAndCountsFiles:
    def test_relation_round_trip(self):
        r = pp.relation_vector({8: 10, 32: 15}, source_id="proxy-a")
        again = pp.parse_relation_file(pp.format_relation_file(r))
        assert again == r

    def test_counts_round_trip(self):
        counts, source = pp.parse_counts_file(format_counts_file({8: 10, 32: 15}, "t1"))
        assert counts == {8: 10.0, 32: 15.0}
        assert source == "t1"

    def test_duplicate_batch_size(self):
        with pytest.raises(pp.ParseError, match="duplicate batch size"):
            pp.parse_relation_file("8,0.5\n8,1.0\n")

    def test_ratio_validation_applies(self):
        with pytest.raises(pp.DataError, match="out of range"):
            pp.parse_relation_file("8,1.5\n16,1.0\n")
        with pytest.raises(pp.DataError) as exc:  # the largest ratio just under 1
            pp.parse_relation_file("8,0.5\n32,0.9995\n")
        assert str(exc.value) == "relation vector must contain an entry exactly equal to 1.0"

    def test_counts_validation(self):
        with pytest.raises(pp.DataError, match="invalid count"):
            pp.parse_counts_file("8,0\n")
        with pytest.raises(pp.DataError, match="invalid count"):
            pp.parse_counts_file("8,inf\n32,15\n")
        with pytest.raises(pp.DataError, match="no batch sizes"):
            pp.parse_counts_file("# empty\n")

    @pytest.mark.parametrize("line", ["source_id, proxy a", "source_id,\tproxy a", "  source_id,  proxy a  "])
    def test_source_id_padding_is_stripped(self, line):
        # Padding around the name is dropped, as int() and float() drop it around numbers.
        text = f"{line}\n8, 0.5\n32 ,1.0\n"
        assert pp.parse_relation_file(text).source_id == "proxy a"
        assert reference_parse_relation_file(text).source_id == "proxy a"
        assert pp.parse_counts_file(text)[1] == reference_parse_counts_file(text)[1] == "proxy a"

    @given(
        st.dictionaries(
            st.integers(1, 1024),
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
        )
    )
    @settings(max_examples=200)
    def test_counts_file_round_trips_any_positive_values(self, counts):
        text = format_counts_file(counts, "t")
        parsed, _ = pp.parse_counts_file(text)
        assert parsed == {b: float(v) for b, v in counts.items()}


class TestTraceInvariants:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: pp.TimingTrace(16, 307.0, (0.1, 0.2), warmup_discarded=-1), "warm-up count must be non-negative"),
            (lambda: pp.aggregate_point(pp.PowerTrace((0.0,), (1000.0,)), pp.TimingTrace(16, 307.0, (0.1,)), 0),
             "samples_per_unit must be positive"),
        ],
    )
    def test_rejected_inputs_name_their_fault(self, build, message):
        with pytest.raises(pp.DataError) as exc:
            build()
        assert str(exc.value) == message

    def test_power_trace_monotone_timestamps(self):
        with pytest.raises(pp.DataError, match="strictly increasing"):
            pp.PowerTrace((0.0, 0.0), (1.0, 2.0))

    @pytest.mark.parametrize(
        "samples",
        [((0.0, 1.0, 2.0), (1.0, float("nan"), 3.0)), ((0.0, 1.0), (float("nan"), 1.0)), ((float("inf"),), (1.0,))],
    )
    def test_power_trace_rejects_non_finite_samples(self, samples):
        # peak_w used to depend on where a nan sat in the trace
        with pytest.raises(pp.DataError, match="must be finite"):
            pp.PowerTrace(*samples)

    @pytest.mark.parametrize("columns", [((0.0, 1.0), (5.0,)), ((), (5.0,)), ((float("nan"),), ())])
    def test_power_trace_columns_of_unequal_length_rejected(self, columns):
        with pytest.raises(pp.DataError, match="^power trace columns differ in length$"):
            pp.PowerTrace(*columns)

    def test_timing_trace_positive_durations(self):
        with pytest.raises(pp.DataError, match="positive"):
            pp.TimingTrace(8, 100.0, (0.0, 0.1))

    @pytest.mark.parametrize(
        "frequency, durations, message",
        [
            (100.0, (math.nan,), "mini-batch durations must be finite"),
            (100.0, (0.1, math.inf), "mini-batch durations must be finite"),
            (math.inf, (0.1,), "frequency must be finite"),
        ],
    )
    def test_timing_trace_rejects_non_finite_values(self, frequency, durations, message):
        with pytest.raises(pp.DataError, match=f"^{message}$"):
            pp.TimingTrace(8, frequency, durations)

    @pytest.mark.parametrize(
        "frequency, durations, warmup, message",
        [
            (math.nan, (0.1,), 0, "frequency must be positive"),
            (100.0, (-math.inf,), 0, "mini-batch durations must be positive"),
            (math.inf, (0.0,), 0, "mini-batch durations must be positive"),
            (100.0, (math.nan,), 1, "all samples discarded"),
            (100.0, (math.inf, 1e308, 1e308), 0, "retained mini-batch durations sum past the float range"),
        ],
    )
    def test_timing_trace_rejections_keep_their_messages_with_non_finite_values(
        self, frequency, durations, warmup, message
    ):
        with pytest.raises(pp.DataError, match=f"^{message}$"):
            pp.TimingTrace(8, frequency, durations, warmup)

    def test_empty_trace_peak_errors(self):
        with pytest.raises(pp.DataError, match="empty power trace"):
            pp.PowerTrace((), ()).peak_w

    def test_timing_trace_rejects_overflowing_retained_sum(self):
        with pytest.raises(pp.DataError, match="retained mini-batch durations sum past the float range"):
            pp.TimingTrace(8, 100.0, (1e308, 1e308), warmup_discarded=0)
        # a discarded warm-up duration does not count
        assert pp.TimingTrace(8, 100.0, (1e308, 1e308), warmup_discarded=1).retained == (1e308,)

    def test_power_trace_average_rejects_overflowing_sum(self):
        trace = pp.PowerTrace((0.0, 1.0), (1e308, 1e308))
        assert trace.peak_w == 1e308 / 1000.0
        with pytest.raises(pp.DataError, match="power samples sum past the float range"):
            trace.avg_w


# Entries whose sums overflow, or meet an inf or nan, next to ordinary ones.
_EXTREME = st.sampled_from([1.5e308, -1.5e308, 1e308, math.inf, -math.inf, math.nan, 1.0])


class TestFiniteness:
    """A column or row is finite when every entry is, however far its sum runs past the float range."""

    @given(st.lists(st.one_of(st.floats(), _EXTREME), max_size=8))
    @example([1e308, 1.5e308])
    @example([1e308, 1e308, -1.5e308])
    @example([-1.5e308, -1e308, math.nan])
    def test_all_finite_is_the_entry_by_entry_check(self, values):
        assert _all_finite(tuple(values)) == all(map(math.isfinite, values))

    def test_power_trace_timestamps_summing_past_the_float_range_accepted(self):
        trace = pp.PowerTrace((1e308, 1.5e308), (1000.0, 2000.0))
        assert trace.timestamps_s == (1e308, 1.5e308)
        assert trace.peak_w == 2.0

    def test_timing_durations_summing_past_the_float_range_accepted(self):
        # Only the retained durations must sum inside the range.
        trace = pp.TimingTrace(8, 100.0, (1.5e308, 1e308, 0.5), warmup_discarded=2)
        assert trace.retained == (0.5,)

    def test_profile_row_summing_past_the_float_range_accepted(self):
        profile = pp.DeviceProfile(
            model_id="m", batch_sizes=(8,), frequencies=(100.0, 200.0), time_table=[[1.5e308, 1e308]],
            power_table=[[1.0, 2.0]], samples_per_unit=8,
        )
        assert profile.time_rows == ((1.5e308, 1e308),)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_keeps_its_message(self, bad):
        with pytest.raises(pp.DataError, match="^power samples must be finite$"):
            pp.PowerTrace((1e308, 1.5e308, bad), (1.0, 2.0, 3.0))
        with pytest.raises(pp.DataError, match="^power samples must be finite$"):
            pp.PowerTrace((0.0, 1.0, 2.0), (1e308, 1.5e308, bad))
        with pytest.raises(pp.DataError, match="^mini-batch durations must be finite$"):
            pp.TimingTrace(8, 100.0, (1.5e308, 1e308, bad), warmup_discarded=2)
        with pytest.raises(pp.DataError, match="^time table entries must be finite and strictly positive$"):
            pp.DeviceProfile(
                model_id="m", batch_sizes=(8,), frequencies=(100.0, 200.0), time_table=[[1.5e308, bad]],
                power_table=[[1.0, 2.0]], samples_per_unit=8,
            )
