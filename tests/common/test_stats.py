"""Statistics: Poisson/Wilson intervals, ratio conventions, estimates."""

import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import repro.common.stats as repro_stats
from repro.common.stats import (
    Estimate,
    poisson_ci,
    poisson_rate_estimate,
    proportion_estimate,
    ratio,
    signed_ratio,
    wilson_ci,
)


class TestPoissonCi:
    def test_zero_count_lower_bound_is_zero(self):
        lo, hi = poisson_ci(0)
        assert lo == 0.0
        assert hi > 0.0

    def test_known_value_count_10(self):
        # exact (Garwood) 95% interval for n=10: (4.795, 18.39)
        lo, hi = poisson_ci(10)
        assert lo == pytest.approx(4.795, rel=1e-3)
        assert hi == pytest.approx(18.39, rel=1e-3)

    def test_interval_contains_count(self):
        for count in (1, 5, 50, 500):
            lo, hi = poisson_ci(count)
            assert lo < count < hi

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            poisson_ci(-1)

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            poisson_ci(5, confidence=1.5)

    @pytest.mark.parametrize(
        "count, expected",
        [
            (0, (0.0, 3.6888794541139354)),
            (1, (0.025317807984289897, 5.571643390938898)),
            (7, (2.814363051519867, 14.422675361702376)),
            (2999, (2892.6165149330627, 3108.2956394906832)),
        ],
    )
    def test_pinned_exact_intervals(self, count, expected):
        # bit-exact: beam FIT intervals feed the committed result digests
        assert poisson_ci(count, 0.95) == expected

    @given(st.integers(min_value=1, max_value=10000))
    def test_interval_width_shrinks_relatively(self, count):
        lo, hi = poisson_ci(count)
        assert (hi - lo) / count < 6.0  # worst case at count=1: ~5.5
        assert lo >= 0.0


class TestWilsonCi:
    def test_half_proportion_symmetric(self):
        lo, hi = wilson_ci(50, 100)
        assert lo == pytest.approx(1.0 - hi, abs=1e-9)

    def test_extremes_clamped(self):
        lo, hi = wilson_ci(0, 20)
        assert lo == 0.0
        lo, hi = wilson_ci(20, 20)
        assert hi == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wilson_ci(5, 0)
        with pytest.raises(ValueError):
            wilson_ci(11, 10)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=200))
    def test_interval_contains_mle_ish(self, s, n):
        if s > n:
            s = n
        lo, hi = wilson_ci(s, n)
        assert 0.0 <= lo <= hi <= 1.0

    def test_paper_campaign_sizing(self):
        """10,000 injections keep the 95% interval below 5% half-width for
        mid-range AVFs (the paper's campaign sizing criterion, §III-D)."""
        lo, hi = wilson_ci(5000, 10000)
        assert (hi - lo) / 2 < 0.05


class TestRatios:
    def test_plain_ratio(self):
        assert ratio(10.0, 2.0) == 5.0

    def test_zero_prediction(self):
        assert ratio(1.0, 0.0) == math.inf
        assert ratio(0.0, 0.0) == 1.0

    def test_signed_ratio_positive_when_beam_higher(self):
        assert signed_ratio(10.0, 2.0) == pytest.approx(5.0)

    def test_signed_ratio_negative_inverse_when_prediction_higher(self):
        assert signed_ratio(2.0, 10.0) == pytest.approx(-5.0)

    def test_signed_ratio_equal_is_one(self):
        assert signed_ratio(3.0, 3.0) == pytest.approx(1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
    def test_signed_ratio_magnitude_at_least_one(self, m, p):
        assert abs(signed_ratio(m, p)) >= 1.0 - 1e-12

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
    def test_signed_ratio_antisymmetric(self, m, p):
        a = signed_ratio(m, p)
        b = signed_ratio(p, m)
        assert abs(a) == pytest.approx(abs(b), rel=1e-9)
        if abs(m - p) > 1e-9 * max(m, p):
            assert (a > 0) != (b > 0)


class TestEstimates:
    def test_estimate_validates_interval(self):
        with pytest.raises(ValueError):
            Estimate(value=5.0, lower=6.0, upper=7.0)

    def test_scaled(self):
        est = Estimate(2.0, 1.0, 3.0).scaled(10.0)
        assert (est.value, est.lower, est.upper) == (20.0, 10.0, 30.0)

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            Estimate(2.0, 1.0, 3.0).scaled(-1.0)

    def test_half_width(self):
        assert Estimate(2.0, 1.0, 3.0).half_width == 1.0

    def test_rate_estimate(self):
        est = poisson_rate_estimate(10, 100.0)
        assert est.value == pytest.approx(0.1)
        assert est.lower < est.value < est.upper

    def test_rate_estimate_rejects_zero_exposure(self):
        with pytest.raises(ValueError):
            poisson_rate_estimate(10, 0.0)

    def test_proportion_estimate(self):
        est = proportion_estimate(30, 100)
        assert est.lower <= 0.3 <= est.upper


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second to import; only the intervals'
    # scipy.special functions belong on the package's import path
    code = "import sys, repro; print('scipy.stats' in sys.modules)"
    env = dict(os.environ)
    src = str(pathlib.Path(repro_stats.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
