"""The numpy Kolmogorov-Smirnov tests against scipy.stats, the independent
reference: the statistics agree to a few ulp, the two-sample p-values to
1e-12 of scipy's exact law, and the one-sample p-values to 5e-6 of
``kstwo.sf``, which is exact up to n = 140 and an approximation above."""

import math
import time

import numpy as np
import pytest
from scipy import stats as sstats

from branching_ou import ks
from branching_ou.ks import ks_1samp, ks_2samp


def expon_cdf(x):
    return -np.expm1(-(x / 1.7))


def normal_cdf(x):
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


# A one-sample statistic is i/n - F or F - (i-1)/n, so it carries the
# rounding of the CDF values, whose ulp is at most 2^-53 on [0.5, 1): libm's
# expm1 and erfc and scipy's own may differ there by an ulp.
CDF_ULP = 2.0**-53


class TestOneSample:
    @pytest.mark.parametrize("seed", range(40))
    def test_statistic_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 1501))
        x = rng.exponential(1.7, n)
        d, _ = ks_1samp(x, expon_cdf)
        ref = sstats.kstest(x, "expon", args=(0.0, 1.7)).statistic
        assert abs(d - ref) <= 4 * CDF_ULP
        z = rng.normal(0.1, 1.0, n)
        d, _ = ks_1samp(z, normal_cdf)
        assert abs(d - sstats.kstest(z, "norm").statistic) <= 4 * CDF_ULP

    N_GRID = [1, 2, 3, 7, 30, 140, 141, 500, 2000, 9999, 10_000, 10_001,
              30_000, 10**5, 10**6]
    ND2_GRID = [0.01, 0.1, 0.4, 0.8, 1.2, 1.6, 2.0, 2.2 - 1e-9, 2.2, 2.2 + 1e-9,
                3.0, 5.0, 10.0]

    @pytest.mark.parametrize("n", N_GRID)
    def test_p_value_matches_kstwo(self, n):
        ds = [math.sqrt(nd2 / n) for nd2 in self.ND2_GRID]
        ds += [0.4 / n, 0.5 / n, 0.5 / n + 1e-12, 0.75 / n, 1.0 - 1.0 / n + 1e-9,
               0.999, 1.0, 1.5]
        for d in ds:
            # from n d^2 = 2.2 on at n = 1e6, kstwo.sf takes over a second a call
            if 0.5 / n < d < 1.0 and (n < 10**6 or n * d * d < 2.2):
                assert abs(ks._kolmogorov_sf(n, d) - sstats.kstwo.sf(d, n)) <= 5e-6, d
        assert ks._kolmogorov_sf(n, 0.5 / n) == 1.0
        assert ks._kolmogorov_sf(n, 1.0) == 0.0
        assert ks._kolmogorov_sf(n, 1.5) == 0.0

    def test_one_draw_law(self):
        # D_1 = max(U, 1 - U), so P(D_1 >= d) = 2 (1 - d) on [1/2, 1]
        for d in (0.5, 0.6, 0.9, 0.999):
            assert ks._kolmogorov_sf(1, d) == pytest.approx(2.0 * (1.0 - d), abs=1e-14)

    def test_p_value_of_sample_matches_kstest(self):
        rng = np.random.default_rng(3)
        for n in (5, 80, 400):
            x = rng.exponential(1.7, n)
            _, p = ks_1samp(x, expon_cdf)
            assert p == pytest.approx(
                sstats.kstest(x, "expon", args=(0.0, 1.7)).pvalue, abs=5e-6)

    def test_bounded_time(self):
        start = time.perf_counter()
        p = ks._kolmogorov_sf(10**7, 3e-4)
        worst = ks._kolmogorov_sf(ks.EXACT_N, math.sqrt(2.2 / ks.EXACT_N) * (1 - 1e-9))
        assert time.perf_counter() - start < 1.0
        assert 0.0 < p < 1.0 and 0.0 < worst < 1.0

    def test_empty_sample_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_1samp([], expon_cdf)


class TestTwoSample:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_scipy_exact(self, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = (int(v) for v in rng.integers(1, 400, 2))
        if seed % 3 == 0:
            n2 = n1
        if seed % 2:
            # integer-valued data: ties within and across the samples
            a, b = rng.integers(0, 12, n1).astype(float), rng.integers(0, 12, n2).astype(float)
        else:
            a, b = rng.normal(size=n1), rng.normal(0.2, 1.0, n2)
        d, p = ks_2samp(a, b)
        ref = sstats.ks_2samp(a, b, method="exact")
        assert d == ref.statistic
        assert abs(p - ref.pvalue) <= 1e-12

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 7), (1500, 1500), (1500, 1499),
                                        (660, 330), (12, 18)])
    def test_edge_sizes(self, n1, n2):
        rng = np.random.default_rng(n1 + n2)
        a, b = rng.normal(size=n1), rng.normal(0.1, 1.0, n2)
        d, p = ks_2samp(a, b)
        ref = sstats.ks_2samp(a, b, method="exact")
        assert d == ref.statistic
        assert abs(p - ref.pvalue) <= 1e-12

    def test_equal_samples(self):
        x = np.arange(5.0)
        assert ks_2samp(x, x) == (0.0, 1.0)

    def test_bounded_time(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=2000), rng.normal(0.05, 1.0, 1999)
        start = time.perf_counter()
        _, p = ks_2samp(a, b)
        assert time.perf_counter() - start < 1.0
        assert 0.0 <= p <= 1.0

    def test_empty_sample_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_2samp([1.0], [])
