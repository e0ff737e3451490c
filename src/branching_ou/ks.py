"""Kolmogorov-Smirnov statistics and two-sided p-values in numpy.

The statistics are computed as ``scipy.stats.kstest`` and ``ks_2samp``
compute them.  The p-values are exact where that can be done in bounded
time:

- one sample of size n <= ``EXACT_N``: the Durbin matrix in the form of
  Marsaglia, Tsang & Wang (2003, J. Stat. Softw. 8(18)) where n d^2 < 2.2,
  and twice the exact one-sided Smirnov tail (Birnbaum-Tingey) above it,
  where the chance that both one-sided deviations reach d is below 1e-7;
- one sample of larger size: the Kolmogorov limit law at Vrbik's corrected
  argument, within 2.2e-6 of the exact law at n = 1e4 and closer beyond;
- two samples of any sizes: the exact law of the rounded statistic by
  Hodges' (1958) lattice paths.

Every array is at most as long as the samples plus one, and the Durbin
matrix is at most (2 ceil(sqrt(2.2 EXACT_N)) - 1)^2 = 297 x 297.
"""

from __future__ import annotations

import math

import numpy as np

# Largest one-sample size whose p-value is computed from the exact law.
EXACT_N = 10_000
# Above this n d^2 the one-sided tails replace the Durbin matrix.
SMIRNOV_ND2 = 2.2


def ks_1samp(x, cdf) -> tuple[float, float]:
    """Statistic sup |F_n - F| and two-sided p-value of the sample ``x``
    against the continuous law whose CDF ``cdf`` maps a sorted array to
    its CDF values."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("ks_1samp needs a nonempty sample")
    f = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - f).max()
    d_minus = (f - np.arange(0.0, n) / n).max()
    d = float(d_plus if d_plus > d_minus else d_minus)
    return d, _kolmogorov_sf(n, d)


def ks_2samp(a, b) -> tuple[float, float]:
    """Statistic sup |F_a - F_b| and exact two-sided p-value of the two
    samples; the statistic is a multiple of 1 / lcm(len(a), len(b)),
    rounded to the nearest one as the exact law requires."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = a.size, b.size
    if not n1 or not n2:
        raise ValueError("ks_2samp needs two nonempty samples")
    pooled = np.concatenate([a, b])
    diff = (np.searchsorted(a, pooled, side="right") / n1
            - np.searchsorted(b, pooled, side="right") / n2)
    d = float(np.abs(diff).max())
    g = math.gcd(n1, n2)
    lcm = n1 // g * n2
    h = round(d * lcm)
    if h == 0:
        return 0.0, 1.0
    p = _square_sf(n1, h) if n1 == n2 else _lattice_sf(min(n1, n2), max(n1, n2), h * g)
    return h / lcm, min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# one-sample law


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided statistic of n uniform draws."""
    if d >= 1.0:
        return 0.0
    if n * d <= 0.5:
        return 1.0
    if n > EXACT_N:
        return _vrbik_sf(n, d)
    if n * d * d < SMIRNOV_ND2:
        return min(max(1.0 - _durbin_cdf(n, d), 0.0), 1.0)
    return min(2.0 * _smirnov_sf(n, d), 1.0)


def _normalized(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``a`` divided by the power of 2 that brings its largest entry into
    [0.5, 1), and that power's exponent."""
    e = math.frexp(float(a.max()))[1]
    return np.ldexp(a, -e), e


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) as n!/n^n times the middle entry of H^n, H the Durbin
    matrix; the powers are kept normalized, their scale as an exponent
    of 2."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.empty(m + 1)
    inv_fact[0] = 1.0
    for j in range(1, m + 1):
        inv_fact[j] = inv_fact[j - 1] / j
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1
    H = np.where(lag >= 0, inv_fact[np.maximum(lag, 0)], 0.0)
    edge = (1.0 - h ** np.arange(1, m + 1)) * inv_fact[1:]
    H[:, 0] = edge
    H[-1, :] = edge[::-1]
    H[-1, 0] = (1.0 - 2.0 * h**m + max(2.0 * h - 1.0, 0.0) ** m) * inv_fact[m]

    base, base_exp = _normalized(H)
    power, power_exp = None, 0
    nn = n
    while True:
        if nn & 1:
            if power is None:
                power, power_exp = base, base_exp
            else:
                power, e = _normalized(power @ base)
                power_exp += base_exp + e
        nn >>= 1
        if not nn:
            break
        base, e = _normalized(base @ base)
        base_exp = 2 * base_exp + e

    # n!/n^n as a mantissa and a power of 2, multiplied in chunks of 512
    # factors so that no partial product leaves the normal range
    mant, expo = np.frexp(np.arange(1, n + 1) / n)
    scale, scale_exp = 1.0, int(expo.sum())
    for start in range(0, n, 512):
        scale, e = math.frexp(scale * float(np.prod(mant[start:start + 512])))
        scale_exp += e
    return math.ldexp(float(power[k - 1, k - 1]) * scale, power_exp + scale_exp)


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d), the exact one-sided tail: the Birnbaum-Tingey sum
    d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1) over
    j <= n (1 - d), whose terms are positive, summed in logs."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    with np.errstate(divide="ignore"):
        log_terms = (log_fact[n] - log_fact[j] - log_fact[n - j]
                     + (n - j) * np.log(np.maximum(1.0 - d - j / n, 0.0))
                     + (j - 1) * np.log(d + j / n))
    top = float(log_terms.max())
    return d * math.exp(top) * float(np.exp(log_terms - top).sum())


def _vrbik_sf(n: int, d: float) -> float:
    """P(D_n >= d) from the Kolmogorov limit law at Vrbik's argument
    sqrt(n) d + 1/(6 sqrt(n)) + (sqrt(n) d - 1)/(4n); below 1 the law is
    summed in its Jacobi theta form, which converges fast there."""
    root = math.sqrt(n)
    x = root * d + 1.0 / (6.0 * root) + (root * d - 1.0) / (4.0 * n)
    k = np.arange(1, 11)
    if x < 1.0:
        cdf = math.sqrt(2.0 * math.pi) / x * float(
            np.exp(-(2 * k - 1) ** 2 * math.pi**2 / (8.0 * x * x)).sum())
        return min(max(1.0 - cdf, 0.0), 1.0)
    sf = 2.0 * float((np.where(k % 2, 1.0, -1.0) * np.exp(-2.0 * k**2 * x * x)).sum())
    return min(max(sf, 0.0), 1.0)


# ---------------------------------------------------------------------------
# two-sample law


def _square_sf(n: int, h: int) -> float:
    """P(D_{n,n} >= h/n) = 2 sum_k (-1)^(k-1) C(2n, n - kh) / C(2n, n), in
    Horner form over the ratios of consecutive terms.  Terms past
    kh = 40 sqrt(n) are below exp(-800) and drop out."""
    blocks = min(n // h, -(-40 * math.isqrt(n + 1) // h)) + 1
    t = np.arange(blocks * h, dtype=float)
    ratios = ((n - t) / (n + t + 1.0)).reshape(blocks, h).prod(axis=1)
    p = 0.0
    for r in ratios[::-1]:
        p = float(r) * (1.0 - p)
    return 2.0 * p


def _lattice_sf(m: int, n: int, hg: int) -> float:
    """P(D_{m,n} >= d) for m < n, with hg = d lcm(m, n) gcd(m, n): one minus
    the share of the C(m + n, m) lattice paths from (0, 0) to (m, n) that
    keep |i n - j m| < hg.  Row i holds the paths to (i, j) over the band of
    j where the bound holds, divided by C(i + n, i) and by a power of 2."""
    lo, hi = 0, min((hg - 1) // m, n)
    row, row_exp = np.ones(hi + 1), 0
    for i in range(1, m + 1):
        new_lo = max((i * n - hg) // m + 1, 0)
        if new_lo > hi:
            return 1.0
        new_hi = min((i * n + hg - 1) // m, n)
        paths = np.cumsum(row[new_lo - lo:])
        if new_hi > hi:
            paths = np.pad(paths, (0, new_hi - hi), mode="edge")
        factor = i / (i + n)
        e = math.frexp(float(paths[-1]) * factor)[1]
        row = paths * math.ldexp(factor, -e)
        row_exp += e
        lo, hi = new_lo, new_hi
    return 1.0 - math.ldexp(float(row[-1]), row_exp)
