"""Standard-normal CDF and quantile."""

import math
import sys

import numpy as np
import pytest

from sparclab.bounds import normal_approximation_rate
from sparclab.normal import normal_cdf, normal_quantile, q_inverse

from oracles import acklam_quantile, q_inverse_bisect


def quantile_points() -> np.ndarray:
    """Seeded p over both tails and the centre, with the branch edges.

    The lower tail reaches the smallest normal float; subnormal p is
    rejected (the Halley step's exp(x^2/2) would overflow there).
    """
    rng = np.random.default_rng(1006)
    p = np.concatenate([
        10.0 ** rng.uniform(-300.0, math.log10(0.02425), 1000),    # lower tail
        rng.uniform(0.02425, 1.0 - 0.02425, 1000),                 # centre
        1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.02425), 1000),  # upper tail
        [np.finfo(float).tiny, 0.02425, np.nextafter(0.02425, 1.0), 0.5,
         1.0 - 0.02425, np.nextafter(1.0 - 0.02425, 0.0), np.nextafter(1.0, 0.0)],
    ])
    return p[(p > 0.0) & (p < 1.0)]


class TestNormalQuantile:
    def test_bit_identical_to_scalar_acklam(self):
        points = quantile_points().tolist()
        assert len(points) > 3000
        for p in points:
            assert normal_quantile(p) == acklam_quantile(p), p

    def test_inverts_the_cdf(self):
        for p in (1e-12, 1e-4, 0.1, 0.5, 0.9, 1.0 - 1e-6):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-12)

    def test_q_inverse_against_bisection(self):
        for eps in (1e-10, 1e-4, 0.3):
            assert q_inverse(eps) == pytest.approx(q_inverse_bisect(eps), abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_outside_open_unit_interval_rejected(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)

    def test_smallest_normal_float_keeps_its_value(self):
        p = sys.float_info.min
        assert normal_quantile(p) == acklam_quantile(p)
        assert normal_quantile(p) == pytest.approx(-37.519379347, abs=1e-9)
        assert q_inverse(p) == -normal_quantile(p)
        assert math.isfinite(normal_approximation_rate(20.0, 100.0, p))

    @pytest.mark.parametrize("p", [5e-324, 1e-311, 1e-310,
                                   float(np.nextafter(sys.float_info.min, 0.0))])
    def test_subnormal_rejected_with_range(self, p):
        with pytest.raises(ValueError, match="p in"):
            normal_quantile(p)
        with pytest.raises(ValueError, match="p in"):
            q_inverse(p)
        with pytest.raises(ValueError, match="p in"):
            normal_approximation_rate(20.0, 100.0, p)
