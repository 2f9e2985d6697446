"""Closed-form coefficients and their oracle equivalence."""

import math

import numpy as np
import pytest

from qwalk import closedform, walk1d
from qwalk.closedform import (
    LaurentCoefficients,
    alpha_coefficients,
    closed_form_field,
    closed_form_fields,
    double_sum_coefficient,
)
from qwalk.coin import CoinParameter
from qwalk.errors import InvalidParameterError
from qwalk.walk1d import QubitState, distribution_1d, evolve_1d


class TestAlphaCoefficients:
    def test_order_one(self):
        c = alpha_coefficients(0.5, 1)
        assert dict(c.items()) == {0: 1}

    def test_order_two_unbiased(self):
        c = alpha_coefficients(0.5, 2)
        r = 1 / math.sqrt(2)
        assert c[1] == pytest.approx(r, abs=1e-15)
        assert c[-1] == pytest.approx(-r, abs=1e-15)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_order_three(self, p):
        c = alpha_coefficients(p, 3)
        assert c[2] == pytest.approx(p, abs=1e-15)
        assert c[0] == pytest.approx(1 - 2 * p, abs=1e-15)
        assert c[-2] == pytest.approx(p, abs=1e-15)
        assert c[np.int64(-2)] == c[-2]

    def test_parity_support(self):
        for t in (4, 7, 12):
            c = alpha_coefficients(0.3, t)
            for n, v in c.items():
                assert (n - (t - 1)) % 2 == 0 and abs(n) <= t - 1

    def test_off_support_lookup_is_zero(self):
        c = alpha_coefficients(0.3, 4)
        assert c[0] == 0j            # wrong parity for order 4
        assert c[99] == 0j

    @pytest.mark.parametrize("n", [1.5, True, 2.0, np.float64(2.0), "2", None])
    def test_rejects_non_integral_frequency(self, n):
        with pytest.raises(InvalidParameterError, match="frequency"):
            alpha_coefficients(0.3, 3)[n]

    def test_evaluate_matches_trace_polynomial(self):
        # alpha_2 is the kernel trace 2c = sqrt(p)(e^{-ix} - e^{ix})
        p, x = 0.4, 0.8
        val = alpha_coefficients(p, 2).evaluate(x)
        expected = math.sqrt(p) * (np.exp(-1j * x) - np.exp(1j * x))
        assert val == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.3"])
    def test_evaluate_rejects_non_finite_or_non_real_wavenumber(self, bad):
        # nan and inf returned (nan+nanj) with a RuntimeWarning; '0.3' raised TypeError
        with pytest.raises(InvalidParameterError, match="wavenumber"):
            alpha_coefficients(0.5, 5).evaluate(bad)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(InvalidParameterError):
            alpha_coefficients(0.5, 0)


class TestLaurentCoefficientsInput:
    def test_copies_the_callers_array(self):
        # the array was made read-only in place and shared with the caller
        arr = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
        c = LaurentCoefficients(3, arr)
        assert arr.flags.writeable and not np.shares_memory(arr, c.values)
        arr[0] = 9.0
        assert c[-2] == 1.0
        with pytest.raises(ValueError):
            c.values[0] = 5.0

    def test_accepts_a_list(self):
        # values.shape was read from whatever came in: a bare AttributeError
        c = LaurentCoefficients(2, [1, -1])
        assert dict(c.items()) == {-1: 1, 1: -1}

    @pytest.mark.parametrize(
        "order, values",
        [
            (1.5, [1.0]),
            (True, [1.0]),
            (3, [1.0, 2.0]),
            (2, ["a", "b"]),
            (2, [1.0, object()]),
            (2, [1.0, float("nan")]),
            (2, [1.0, float("inf")]),
        ],
    )
    def test_rejects_bad_input(self, order, values):
        with pytest.raises(InvalidParameterError):
            LaurentCoefficients(order, values)


class TestDoubleSum:
    def test_smallest_case(self):
        assert double_sum_coefficient(0.5, 0, 0) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_degree_two(self, p):
        assert double_sum_coefficient(p, 2, 0) == pytest.approx(p, abs=1e-15)
        assert double_sum_coefficient(p, 2, 1) == pytest.approx(1 - 2 * p, abs=1e-15)
        assert double_sum_coefficient(p, 2, 2) == pytest.approx(p, abs=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            double_sum_coefficient(0.5, 3, 4)
        with pytest.raises(InvalidParameterError):
            double_sum_coefficient(0.5, 3, -1)

    @pytest.mark.parametrize("t, j", [(2.5, 1), (3, 1.5), (True, 1)])
    def test_rejects_non_integral_indices(self, t, j):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            double_sum_coefficient(0.5, t, j)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_agrees_with_recurrence(self, p):
        for t in range(0, 16):
            coeffs = alpha_coefficients(p, t + 1)
            for j in range(t + 1):
                assert double_sum_coefficient(p, t, j) == pytest.approx(
                    coeffs[t - 2 * j], abs=1e-12
                )


class TestClosedFormField:
    def test_time_zero(self):
        th = QubitState(0.6, 0.8j)
        f = closed_form_field(th, 0.5, 0)
        assert f.t == 0 and f.amplitude(0) == (0.6, 0.8j)

    def test_three_steps_unbiased(self):
        d = distribution_1d(closed_form_field(QubitState(1.0, 0.0), 0.5, 3))
        expected = {3: 1 / 8, 1: 5 / 8, -1: 1 / 8, -3: 1 / 8}
        for x, m in expected.items():
            assert d.mass(x) == pytest.approx(m, abs=1e-14)

    def test_matches_oracle_amplitudes(self):
        rng = np.random.default_rng(17)
        for p in (0.1, 0.3, 0.5, 0.9):
            th = QubitState.random(rng)
            oracle = evolve_1d(th, p, 40)
            cf = closed_form_field(th, p, 40)
            assert np.max(np.abs(cf.phi1 - oracle.phi1)) <= 1e-12
            assert np.max(np.abs(cf.phi2 - oracle.phi2)) <= 1e-12

    def test_matches_oracle_with_phase(self):
        th = QubitState(0.6, 0.8j)
        oracle = evolve_1d(th, 0.3, 17, k=0.7)
        cf = closed_form_field(th, 0.3, 17, k=0.7)
        assert np.max(np.abs(cf.phi1 - oracle.phi1)) <= 1e-13
        assert np.max(np.abs(cf.phi2 - oracle.phi2)) <= 1e-13

    @pytest.mark.parametrize("k", [1e308, -1.7e308, 1e5])
    def test_matches_oracle_at_large_phase(self, k):
        # exp(1j * k * t) overflowed to nan once |k t| passed the float range
        th = QubitState(0.6, 0.8j)
        for t in (2, 3, 150):
            cf, oracle = closed_form_field(th, 0.3, t, k=k), evolve_1d(th, 0.3, t, k=k)
            assert np.isfinite(cf.amps).all()
            assert np.max(np.abs(cf.amps - oracle.amps)) <= 1e-13

    def test_norm_is_one(self):
        rng = np.random.default_rng(23)
        for p in (0.25, 0.75):
            f = closed_form_field(QubitState.random(rng), p, 120)
            assert abs(f.total_probability() - 1.0) <= 1e-12


class TestClosedFormInputs:
    def test_rejects_non_finite_phase(self):
        with pytest.raises(InvalidParameterError):
            closed_form_field(QubitState(1.0, 0.0), 0.5, 5, k=float("nan"))

    @pytest.mark.parametrize("bad", [2.7, True, -1])
    def test_rejects_non_integral_time(self, bad):
        with pytest.raises(InvalidParameterError):
            closed_form_field(QubitState(1.0, 0.0), 0.5, bad)


class TestClosedFormFields:
    @pytest.mark.parametrize(
        "times, k",
        [((0, 1, 2, 3, 7, 40), 0.0), ((1, 5, 6, 50), 0.3), ((0,), 0.3), ((9,), 0.0)],
    )
    def test_equals_one_time_fields_byte_for_byte(self, times, k):
        th = QubitState.random(np.random.default_rng(29))
        fields = closed_form_fields(th, 0.37, times, k)
        assert [f.t for f in fields] == list(times)
        for t, f in zip(times, fields):
            one = closed_form_field(th, 0.37, t, k)
            assert f.phi1.tobytes() == one.phi1.tobytes()
            assert f.phi2.tobytes() == one.phi2.tobytes()

    def test_builds_each_field_without_a_copy_or_a_recheck(self, monkeypatch):
        # the closed form builds each block itself: no field constructor
        # copies it or re-scans it, and it is as read-only as a stepped one
        seen = []
        checked = walk1d._checked_block
        monkeypatch.setattr(
            walk1d, "_checked_block", lambda *a, **kw: seen.append(a[1]) or checked(*a, **kw)
        )
        th = QubitState.random(np.random.default_rng(31))
        fields = closed_form_fields(th, 0.37, (1, 2, 9, 40), 0.3)
        assert seen == []
        for f in fields:
            assert not f.amps.flags.writeable
            assert f.amps.flags.c_contiguous and f.amps.shape == (2, f.t + 1)
            with pytest.raises(ValueError):
                f.amps[0, 0] = 0
        np.testing.assert_allclose(fields[-1].amps, evolve_1d(th, 0.37, 40, 0.3).amps, atol=1e-14)

    @pytest.mark.parametrize("times", [(5, 3), (3, 3), (-1,), (2.5,), (True,), (), 5])
    def test_rejects_malformed_ladder(self, times):
        with pytest.raises(InvalidParameterError):
            closed_form_fields(QubitState(1.0, 0.0), 0.5, times)


def _unshed_pairs(p: float, t: int) -> tuple[np.ndarray, np.ndarray]:
    """``alpha_t`` and ``alpha_{t-1}`` from the recurrence on whole arrays,
    subnormal tails included: the reference for the shedding run."""
    sp, prev, cur = math.sqrt(p), np.empty(0), np.ones(1)
    while cur.size < t:
        s = sp * cur
        new = np.empty(cur.size + 1)
        new[0], new[-1] = -s[0], s[-1]
        new[1:-1] = s[:-1] - s[1:] + prev
        prev, cur = cur, new
    return cur, prev


class TestRecurrenceSheddingAndMemo:
    @pytest.mark.parametrize("p, shed", [(0.3, 271), (0.6, 9)])
    def test_sheds_only_subnormal_tails(self, p, shed):
        # measured at t = 3000: the whole arrays keep 544 (p = 0.3) and 20
        # (p = 0.6) subnormal coefficients, which the run sheds to exact zeros;
        # the kept ones then differ by at most 8.9e-308
        a_t, a_tm1 = next(closedform._alpha_pairs(CoinParameter(p), (3000,)))
        ref_t, ref_tm1 = _unshed_pairs(p, 3000)
        for got, ref in ((a_t, ref_t), (a_tm1, ref_tm1)):
            assert got.shape == ref.shape
            zeros = np.abs(got) == 0
            assert zeros[:shed].all() and zeros[-shed:].all() and not zeros[shed]
            assert np.max(np.abs(ref[zeros])) < np.finfo(np.float64).tiny
            assert np.max(np.abs(got - ref)) <= 1e-306

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_short_ladders_equal_the_whole_array_recurrence_bit_for_bit(self, p):
        # check 4's horizons see no subnormal coefficient, so nothing is shed
        for t in (1, 2, 17, 31, 200):
            got = next(closedform._alpha_pairs(CoinParameter(p), (t,)))
            for a, b in zip(got, _unshed_pairs(p, t)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("p", [0.3, 0.6])
    def test_long_field_matches_the_stepped_oracle(self, p):
        th = QubitState.random(np.random.default_rng(41))
        cf, stepped = closed_form_field(th, p, 3000), evolve_1d(th, p, 3000)
        # measured 2.3e-15 (p = 0.3) and 9.3e-15 (p = 0.6)
        assert np.max(np.abs(cf.amps - stepped.amps)) <= 1e-13

    def test_one_recurrence_run_serves_a_repeated_ladder(self, monkeypatch):
        runs = []
        pairs = closedform._alpha_pairs
        monkeypatch.setattr(
            closedform, "_alpha_pairs", lambda c, times: runs.append(c.p) or pairs(c, times)
        )
        closedform._alpha_ladder.cache_clear()
        rng = np.random.default_rng(43)
        states = [QubitState.random(rng) for _ in range(3)]
        times = (1, 4, 30)
        memo = [closed_form_fields(th, 0.4, times) for th in states]
        assert runs == [0.4]
        closed_form_fields(states[0], 0.7, times)
        closed_form_fields(states[0], 0.4, times)
        assert runs == [0.4, 0.7, 0.4]  # one ladder is kept: the last
        for th, fields in zip(states, memo):
            closedform._alpha_ladder.cache_clear()
            for kept, fresh in zip(fields, closed_form_fields(th, 0.4, times), strict=True):
                assert kept.amps.tobytes() == fresh.amps.tobytes()

    def test_the_memo_is_read_only_and_at_most_half_the_fields(self):
        times = (3, 50, 700)
        fields = closed_form_fields(QubitState(0.6, 0.8j), 0.3, times)
        ladder = closedform._alpha_ladder(CoinParameter(0.3), times)
        assert closedform._alpha_ladder.cache_info().currsize == 1
        for t, f, pair in zip(times, fields, ladder, strict=True):
            assert [a.size for a in pair] == [t, t - 1]
            assert not any(a.flags.writeable for a in pair)
            assert 2 * sum(a.nbytes for a in pair) <= f.amps.nbytes
