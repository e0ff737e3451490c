"""Experiment orchestration: replica farms, empirical statistics,
distributional tests, and machine-readable reports.

Every check records the tolerance it was judged against.  Farms derive
batch RNG substreams from the experiment seed, and reports are a pure
function of (config, seed).
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernels import Factor, Kernel, is_canonical, project
from .ks import ks_1samp, ks_2samp
from .model import (MAX_ARITY, ModelParams, Regime, RegimeTag, classify, derive,
                    extinction_by, fluctuation_variance, w_survival_mean)
from .limits import (
    critical_limit_sampler,
    default_fast_horizon,
    fast_limit_sampler,
    h_polynomial_value,
    sigma_critical,
    sigma_slow,
    slow_limit_sampler,
)
from .simulator import (AllExtinctError, check_budget, condition_on_survival,
                        farm_counts, simulate_farm, substream)
from .tree_oracle import exact_mixed_moment
# The per-snapshot statistics stay importable from here: the benchmark's
# tracer (benchmarks/tracer.py) patches them by these names.
from .ustats import (  # noqa: F401
    normalized_u_statistic,
    normalized_u_statistics,
    u_statistic,
    u_statistics,
    v_statistic,
    v_statistics,
)


class ConfigError(ValueError):
    """Malformed experiment configuration."""


# ---------------------------------------------------------------------------
# configuration
#
# One table per config section maps each JSON key to (attribute, cast).
# ``_read`` refuses a key its table does not hold and casts the others;
# ``_write`` walks the same table back to JSON.  A cast that is itself a
# table reads a nested section, into an object of its own or, when the
# attribute is None, onto the enclosing one.  Defaults live only on
# ``ExperimentConfig``.


def _or_none(cast):
    """``cast`` for a field whose default is None, which a JSON null keeps."""
    return lambda value: None if value is None else cast(value)


def _int(value) -> int:
    """A JSON integer; an integral float is taken, a fraction or a bool is
    not."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"expected an integer, got {value!r}")
    return int(value)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}")
    return value


def _float(value) -> float:
    """A finite JSON number; a bool, a string, NaN or an infinity is not
    one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return float(value)


def _floats(values) -> tuple[float, ...]:
    """A list of numbers (a tuple in ``canonical_dict``)."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"expected a list of numbers, got {values!r}")
    return tuple(_float(v) for v in values)


def _slots(slots) -> list:
    """Kernel slots, each a list of per-coordinate coefficient vectors."""
    if not isinstance(slots, list):
        raise ConfigError(f"expected a list of slots, got {slots!r}")
    return [[_floats(vector) for vector in slot] for slot in slots]


def _terms(terms) -> list[dict]:
    return [_read(term, _TERM, "kernel term") for term in terms]


_PARAMS = {"lambda": ("lam", _float), "p": ("p", _float), "mu": ("mu", _float),
           "sigma": ("sigma", _float), "dim": ("dim", _int), "x0": ("x0", _floats)}
_CONFIG = {
    "params": ("params", _PARAMS),
    "kernel": ("kernel_spec", lambda spec: spec),  # parsed by ExperimentConfig
    "t_grid": ("t_grid", _floats),
    "replicas": ("replicas", _int),
    "seed": ("seed", _int),
    "regime": ("regime_expected", _or_none(lambda tag: RegimeTag(tag).value)),
    "g1": (None, {"replicas": ("g1_replicas", _int), "t": ("g1_t", _float),
                  "t_max": ("g1_t_max", _float)}),
    "fast_t_approx": ("fast_t_approx", _or_none(_float)),
}
_KERNEL = {"arity": ("arity", _int), "dim": ("dim", _int),
           "symmetric": ("symmetric", _bool), "terms": ("terms", _terms)}
_TERM = {"coef": ("coef", _float), "slots": ("slots", _slots)}


def _read(raw: dict, table: dict, where: str) -> dict:
    """{attribute: cast value} for the keys of ``raw``; any key the table
    does not hold is refused by name."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}")
    out = {}
    for key, value in raw.items():
        attr, cast = table[key]
        if isinstance(cast, dict):
            value = _read(value, cast, key)
        else:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        if attr is None:
            out.update(value)
        else:
            out[attr] = value
    return out


def _write(obj, table: dict) -> dict:
    """The JSON form of ``obj`` by the table ``_read`` reads it with."""
    out = {}
    for key, (attr, cast) in table.items():
        value = obj if attr is None else getattr(obj, attr)
        out[key] = _write(value, cast) if isinstance(cast, dict) else value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's settings, all checked in ``__post_init__``, so a
    ``dataclasses.replace`` result is checked too; ``kernel`` is derived
    there from ``kernel_spec``, the form the config hash covers."""

    params: ModelParams
    t_grid: tuple[float, ...]
    replicas: int = 1000
    seed: int = 0
    regime_expected: str | None = None
    g1_replicas: int = 800
    g1_t: float = 8.0
    g1_t_max: float = 16.0
    fast_t_approx: float | None = None
    kernel_spec: dict | None = None
    kernel: Kernel | None = field(init=False)

    def __post_init__(self):
        if len(self.t_grid) == 0:
            raise ConfigError("t_grid must be nonempty")
        if any(a >= b for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError("t_grid must be increasing")
        if self.t_grid[0] < 0:
            raise ConfigError("grid times must be nonnegative")
        for name in ("replicas", "g1_replicas"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.fast_t_approx is not None and self.fast_t_approx <= 0.0:
            raise ConfigError("fast_t_approx must be positive")
        if not 0.0 <= self.g1_t < self.g1_t_max:
            raise ConfigError("g1 needs 0 <= t < t_max")
        # a copy, so that changing the caller's dict moves neither the hash
        # nor the kernel
        object.__setattr__(self, "kernel_spec", copy.deepcopy(self.kernel_spec))
        kernel = None if self.kernel_spec is None else parse_kernel_spec(self.kernel_spec)
        if kernel is not None and kernel.dim != self.params.dim:
            raise ConfigError(f"kernel dim {kernel.dim} does not match "
                              f"params dim {self.params.dim}")
        object.__setattr__(self, "kernel", kernel)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        try:
            kw = _read(raw, _CONFIG, "config")
            params = kw["params"]
            params.setdefault("x0", (0.0,) * params.get("dim", 1))
            kw["params"] = ModelParams(**params)
            return ExperimentConfig(**kw)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    def canonical_dict(self) -> dict:
        """Every field in JSON form, as ``config_hash`` hashes it; a copy,
        so changing it leaves the config as it is."""
        return copy.deepcopy(_write(self, _CONFIG))

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def parse_kernel_spec(spec: dict) -> Kernel:
    """Kernel from its config form: tensor-sum terms as per-slot lists of
    per-coordinate polynomial coefficient vectors.  A declared ``arity``
    must match the slot count, and no arity may exceed ``MAX_ARITY``."""
    try:
        kw = _read(spec, _KERNEL, "kernel")
        terms = [(term.get("coef", 1.0), [Factor.from_polys(s) for s in term["slots"]])
                 for term in kw["terms"]]
        kernel = Kernel.tensor_sum(terms, dim=kw.get("dim", 1),
                                   symmetric=kw.get("symmetric", False))
        if kw.get("arity", kernel.arity) != kernel.arity:
            raise ConfigError(f"kernel arity {kw['arity']} does not match "
                              f"its {kernel.arity} slots")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kernel spec: {exc}") from exc
    if kernel.arity > MAX_ARITY:
        raise ConfigError(f"arity {kernel.arity} above the maximum {MAX_ARITY}")
    return kernel


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckResult:
    name: str
    value: float
    target: float | None
    tolerance: str
    passed: bool
    se: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.value = float(self.value)
        self.target = None if self.target is None else float(self.target)
        self.se = None if self.se is None else float(self.se)
        self.passed = bool(self.passed)


@dataclass
class TestReport:
    __test__ = False  # keep pytest from collecting this as a test class

    test: str
    seed: int
    config_hash: str
    survival_fraction: float | None
    checks: list[CheckResult]
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def _var_se(x: np.ndarray) -> tuple[float, float]:
    """Sample variance with its asymptotic standard error."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    m2 = x.var(ddof=1)
    m4 = np.mean((x - x.mean()) ** 4)
    se = math.sqrt(max(m4 - m2**2 * (n - 3) / (n - 1), 0.0) / n)
    return float(m2), se


# ---------------------------------------------------------------------------
# check policy
#
# Every check's threshold and the fast regime's limit-draw count; no config
# key or flag sets them, so each check has one nominal level.  A slow or
# critical run draws one limit sample per survivor, a fast run
# min(FAST_LIMIT_DRAWS, survivors).

SE_MULT = 4.0             # an SE band: |diff| <= SE_MULT standard errors
FORMULA_SE_MULT = 3.0     # clt_variance_vs_formula's SE band
G1_SE_MULT = 5.0          # g1_fluctuation_variance's SE band
KS_LEVEL = 0.01           # a KS check passes at a p-value of at least this
CORR_THRESHOLD = 0.95     # fast_same_trajectory_correlation's floor
INDEP_CORR_BOUND = 0.05   # independence_corr_with_size: |corr| below the larger
INDEP_CORR_SE_MULT = 4.0  # of INDEP_CORR_BOUND and INDEP_CORR_SE_MULT / sqrt(n)
FAST_LIMIT_DRAWS = 200


def _se_check(name: str, value, target, se: float, mult: float = SE_MULT,
              other_se: float | None = None, **extra) -> CheckResult:
    """``value`` against ``target`` within ``mult`` standard errors; a
    target that is itself an estimate brings ``other_se``, and the two
    combine into a joint SE."""
    joint = other_se is not None
    tol = mult * (math.hypot(se, other_se) if joint else se)
    return CheckResult(
        name=name, value=value, target=target,
        tolerance=f"|diff| <= {mult:g} {'joint ' if joint else ''}SE = {tol:.3g}",
        passed=abs(value - target) <= tol, se=se, extra=extra,
    )


def _ks_check(name: str, ks: tuple[float, float], **extra) -> CheckResult:
    """A KS (statistic, p-value) pair, passing when the p-value reaches
    ``KS_LEVEL``."""
    statistic, p_value = ks
    return CheckResult(name=name, value=statistic, target=None,
                       tolerance=f"KS p-value >= {KS_LEVEL:g}",
                       passed=p_value >= KS_LEVEL,
                       extra={"p_value": p_value, **extra})


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, element by element."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


def _report(test: str, config: ExperimentConfig, frac: float | None,
            checks: list[CheckResult], start: float) -> TestReport:
    return TestReport(test=test, seed=config.seed, config_hash=config.config_hash(),
                      survival_fraction=frac, checks=checks,
                      runtime_s=time.time() - start)


def _arity1_variance(f: Kernel, params: ModelParams, regime: Regime) -> float:
    """The slow- or critical-regime asymptotic variance of an arity-1
    tensor-sum kernel, its terms collapsed to one slot function."""
    fac = Factor.combine((coef, slot) for coef, (slot,) in f.terms)
    if regime.is_slow:
        return sigma_slow(fac, params)
    if regime.is_critical:
        return sigma_critical(fac, params)
    raise ConfigError("no scalar variance formula in the fast regime")


def _v_values(counts: np.ndarray, t: float, consts) -> np.ndarray:
    """Per-replica normalized population size exp(-growth t) * count."""
    return math.exp(-consts.growth_rate * t) * counts


# ---------------------------------------------------------------------------
# runners


def _farm(config: ExperimentConfig):
    """The config's farm."""
    return simulate_farm(config.params, config.t_grid, config.replicas, config.seed)


def _require_kernel(config: ExperimentConfig) -> Kernel:
    if config.kernel is None:
        raise ConfigError("the test requires a kernel spec")
    return config.kernel


def _require_distributional_replicas(replicas: int, key: str = "replicas"):
    if replicas < 100:
        raise ConfigError(f"distributional tests need at least 100 replicas, "
                          f"got {key} = {replicas}")


def run_lln(config: ExperimentConfig) -> TestReport:
    """Law of large numbers: the injective-tuple average converges to the
    tensorized stationary mean.

    The estimator divides the U-statistic by the falling factorial of the
    population size, its number of injective tuples, so the deterministic
    tuple-count factor drops out.
    """
    start = time.time()
    f = _require_kernel(config)
    alive, frac = condition_on_survival(_farm(config)[-1])
    n = f.arity
    target = project(f, [], config.params)
    enough = alive.counts >= n
    tuples = np.array([float(math.perm(int(m), n))
                       for m in alive.counts[enough]])
    vals = u_statistics(alive, f)[enough] / tuples
    if len(vals) < 2:
        raise ConfigError("too few replicas with enough particles for the arity")
    mean, se = _mean_se(vals)
    checks = [_se_check("lln_mean_vs_stationary", mean, target, se,
                        replicas_used=int(len(vals)))]
    return _report("lln", config, frac, checks, start)


def run_w_law(config: ExperimentConfig) -> TestReport:
    """Exponential-limit law of the normalized population size.  The law
    depends on the counts alone, so they come from ``farm_counts``.

    On survival N_t is geometric, so exp(-g t) N_t >= exp(-g t), where the
    limit CDF reads ``limit_gap``: a floor under the KS statistic.  A gap
    above 0.6 / sqrt(n), n the expected survivors, is refused."""
    start = time.time()
    _require_distributional_replicas(config.replicas)
    consts = derive(config.params)
    w_mean = w_survival_mean(config.params)
    t = config.t_grid[-1]
    limit_gap = -math.expm1(-math.exp(-consts.growth_rate * t) / w_mean)
    gap_sqrt_n = limit_gap * math.sqrt(
        config.replicas * (1.0 - extinction_by(t, config.params)))
    if gap_sqrt_n > 0.6:
        raise ConfigError(f"horizon too short for {config.replicas} replicas: the KS "
                          f"statistic stays above {gap_sqrt_n:.3g} / sqrt(survivors), "
                          "above the 0.6 / sqrt(survivors) allowed")
    level = farm_counts(config.params, config.t_grid, config.replicas, config.seed)[-1]
    alive, frac = condition_on_survival(level)
    ks = ks_1samp(_v_values(alive.counts, level.t, consts),
                  lambda v: -np.expm1(-(v / w_mean)))
    mean, se = _mean_se(_v_values(level.counts, level.t, consts))
    checks = [
        _ks_check("w_law_ks_exponential", ks, scale=w_mean, survivors=len(alive),
                  limit_gap=limit_gap),
        _se_check("w_law_martingale_mean", mean, 1.0, se),
    ]
    return _report("wlaw", config, frac, checks, start)


def _g1_coordinate(config: ExperimentConfig) -> CheckResult:
    """Second coordinate of the joint limit: the variance of the normalized
    population fluctuation around its terminal-value estimate.

    The statistic is (N_t - exp(-g s) N_{t_max}) / sqrt(N_t), g the growth
    rate and s = t_max - t.  Given N_t, N_{t_max} sums N_t independent
    copies of N_s, so the statistic has mean 0 and variance
    ``model.fluctuation_variance(s)`` given any N_t: the target, not its
    t -> inf limit.  The counts come from ``farm_counts``.
    """
    consts = derive(config.params)
    level_t, level_max = farm_counts(config.params, (config.g1_t, config.g1_t_max),
                                     config.g1_replicas, config.seed + 104729)
    alive = level_t.counts > 0
    m_t = level_t.counts[alive]
    v_hat = _v_values(level_max.counts, level_max.t, consts)[alive]
    stats_vals = (m_t - math.exp(consts.growth_rate * config.g1_t) * v_hat) / np.sqrt(m_t)
    var, se = _var_se(stats_vals)
    target = fluctuation_variance(config.g1_t_max - config.g1_t, config.params)
    return _se_check("g1_fluctuation_variance", var, target, se, G1_SE_MULT,
                     t=config.g1_t, t_max=config.g1_t_max, replicas=config.g1_replicas)


def run_clt(config: ExperimentConfig, farm=None) -> TestReport:
    """Regime CLT for the normalized U-statistic of a canonical kernel.

    Compares the empirical sample against draws of the matching limit law
    (two-sample KS and first-two-moment agreement); in the fast regime the
    convergence is in probability, so the primary check correlates the
    statistic with the limit polynomial evaluated on the same trajectory.
    Always also records the population-fluctuation coordinate and an
    independence proxy (correlation bound with the normalized size).  Fast
    limit draws expecting over ``MAX_FARM_PARTICLES`` tree lines, 2 e^{g T}
    each at the horizon T, are refused with ``ResourceCapError`` first.
    """
    start = time.time()
    _require_distributional_replicas(config.replicas)
    _require_distributional_replicas(config.g1_replicas, "g1.replicas")
    f = _require_kernel(config)
    params = config.params
    consts = derive(params)
    regime = classify(params)
    if config.regime_expected and regime.tag is not RegimeTag(config.regime_expected):
        raise ConfigError(
            f"configured regime {config.regime_expected} but parameters imply "
            f"{regime.tag.value}"
        )
    if not is_canonical(f, params):
        raise ConfigError("CLT test requires a canonical kernel")
    if regime.is_fast:
        t_approx = config.fast_t_approx or default_fast_horizon(params)
        with np.errstate(over="ignore"):  # an overflow to inf is refused
            lines = 2.0 * float(np.exp(consts.growth_rate * t_approx))
        check_budget(FAST_LIMIT_DRAWS * lines,
                     "the fast limit draws expect {:.3g} tree lines")
    n = f.arity
    farm = farm if farm is not None else _farm(config)
    alive, frac = condition_on_survival(farm[-1])
    alive = alive.select(alive.counts >= n)
    if len(alive) < 2:
        raise ConfigError("too few replicas with enough particles for the arity")
    stat = normalized_u_statistics(alive, f, n, regime, consts)
    rng = substream((config.seed, 0xC17))
    checks: list[CheckResult] = []

    if regime.is_fast:
        h_vals = math.exp((params.mu - consts.growth_rate) * alive.t) * \
            alive.segment_sum(alive.positions)
        ref = h_polynomial_value(f, h_vals, params)
        if not np.any(ref):
            raise ConfigError("the fast-regime limit polynomial of the kernel "
                              "vanishes on every survivor")
        corr = float(np.corrcoef(stat, ref)[0, 1])
        checks.append(CheckResult(
            name="fast_same_trajectory_correlation",
            value=corr, target=None,
            tolerance=f"corr >= {CORR_THRESHOLD:g}",
            passed=corr >= CORR_THRESHOLD,
            extra={"survivors": len(alive), "t": config.t_grid[-1]},
        ))
        mean_stat, se_s = _mean_se(stat)
        mean_ref, se_r = _mean_se(ref)
        checks.append(_se_check("fast_mean_agreement", mean_stat, mean_ref, se_s,
                                other_se=se_r))
        n_fast = min(FAST_LIMIT_DRAWS, len(stat))
        draws = fast_limit_sampler(f, params, rng, size=n_fast, t_approx=t_approx)
        # the statistic is taken on survivors, and the limit law on survival
        # is that of the nonzero draws: an extinct trajectory gives exactly 0
        draws = draws[draws != 0.0]
        if not draws.size:
            raise AllExtinctError(f"every fast limit draw is extinct ({n_fast} drawn)")
        checks.append(_ks_check("clt_two_sample_ks", ks_2samp(stat[:n_fast], draws),
                                draws=int(draws.size)))
    else:
        sampler = slow_limit_sampler if regime.is_slow else critical_limit_sampler
        draws = sampler(f, params, rng, size=len(stat))
        checks.append(_ks_check("clt_two_sample_ks", ks_2samp(stat, draws),
                                survivors=len(alive), draws=len(stat)))
        m_stat, se_s = _mean_se(stat)
        m_lim, se_l = _mean_se(draws)
        checks.append(_se_check("clt_mean_agreement", m_stat, m_lim, se_s,
                                other_se=se_l))
        v_stat, se_vs = _var_se(stat)
        v_lim, se_vl = _var_se(draws)
        checks.append(_se_check("clt_variance_agreement", v_stat, v_lim, se_vs,
                                other_se=se_vl))
        if n == 1:
            sigma2 = _arity1_variance(f, params, regime)
            checks.append(_se_check("clt_variance_vs_formula", v_stat, sigma2,
                                    se_vs, FORMULA_SE_MULT))
            checks.append(_ks_check("clt_ks_vs_normal",
                                    ks_1samp(stat / math.sqrt(sigma2), _normal_cdf)))
        # in the fast regime the joint limit does not separate the size
        # limit from the U-statistic limit, so no decorrelation is claimed
        rho = float(np.corrcoef(_v_values(alive.counts, alive.t, consts), stat)[0, 1])
        bound = max(INDEP_CORR_BOUND, INDEP_CORR_SE_MULT / math.sqrt(len(stat)))
        checks.append(CheckResult(
            name="independence_corr_with_size",
            value=rho, target=0.0,
            tolerance=f"|corr| < {bound:.3g} (necessary condition only)",
            passed=abs(rho) < bound,
        ))
    checks.append(_g1_coordinate(config))
    return _report("clt", config, frac, checks, start)


def run_oracle_crosscheck(config: ExperimentConfig) -> TestReport:
    """Monte Carlo mean of the order-n V-statistic against the exact
    tree-expansion moment, at every grid time.  The V-statistic is linear
    in the kernel, so its mean is the coefficient-weighted sum of one
    mixed moment per tensor term."""
    start = time.time()
    f = _require_kernel(config)
    # the exact targets come first, so a kernel the oracle refuses costs no
    # farm; term by term, so each term's plan serves every grid time
    moments = [[exact_mixed_moment(f.arity, t, config.params, slots) for t in config.t_grid]
               for _, slots in f.terms]
    targets = [sum(coef * m for (coef, _), m in zip(f.terms, at_t))
               for at_t in zip(*moments)]
    checks = []
    for level, t, target in zip(_farm(config), config.t_grid, targets):
        mean, se = _mean_se(v_statistics(level, f))
        checks.append(_se_check(f"oracle_vs_mc_t{t:g}", mean, target, se))
    return _report("oracle", config, None, checks, start)


def run_variance(config: ExperimentConfig) -> TestReport:
    """Evaluate the regime asymptotic-variance formula for the kernel's
    single slot function."""
    start = time.time()
    f = _require_kernel(config)
    if f.arity != 1:
        raise ConfigError("variance evaluation expects an arity-1 kernel")
    regime = classify(config.params)
    val = _arity1_variance(f, config.params, regime)
    checks = [CheckResult(
        name=f"asymptotic_variance_{regime.tag.value}",
        value=float(val), target=None,
        tolerance="finite and nonnegative",
        passed=bool(np.isfinite(val) and val >= 0.0),
    )]
    return _report("variance", config, None, checks, start)


# ---------------------------------------------------------------------------
# emission


# Rows ``dump_snapshots`` formats at a time, which bounds its memory.
DUMP_ROWS = 1 << 14

_CSV_FIELDS = ["test", "check", "value", "target", "tolerance", "passed",
               "se", "seed", "config_hash", "survival_fraction"]


def _row(report: TestReport, check: CheckResult) -> list:
    return [
        report.test, check.name, repr(check.value),
        "" if check.target is None else repr(check.target),
        check.tolerance, str(check.passed).lower(),
        "" if check.se is None else repr(check.se),
        report.seed, report.config_hash,
        "" if report.survival_fraction is None else repr(report.survival_fraction),
    ]


def emit(report: TestReport, fmt: str, out_dir) -> Path:
    """Write the report as CSV (one row per check) or JSON lines (one line
    per check).  Numeric fields are reproducible bit-for-bit for a fixed
    (config, seed); the runtime lives only in the JSON metadata line."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out_dir / f"report_{report.test}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_FIELDS)
            writer.writerows(_row(report, check) for check in report.checks)
        return path
    if fmt == "jsonl":
        path = out_dir / f"report_{report.test}.jsonl"
        with open(path, "w") as fh:
            meta = {"test": report.test, "seed": report.seed,
                    "config_hash": report.config_hash,
                    "survival_fraction": report.survival_fraction,
                    "passed": report.passed, "runtime_s": report.runtime_s,
                    "meta": True}
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for check in report.checks:
                rec = {"test": report.test, "check": check.name,
                       "value": check.value, "target": check.target,
                       "tolerance": check.tolerance, "passed": check.passed,
                       "se": check.se, "seed": report.seed,
                       "config_hash": report.config_hash}
                rec.update({f"extra_{k}": v for k, v in check.extra.items()})
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return path
    raise ConfigError(f"unknown output format {fmt!r}")


def dump_snapshots(farm, out_dir) -> Path:
    """Plot-ready long-format CSV ``snapshots.csv`` of a ``simulate_farm``
    result: one row per particle per replica per grid time (replica_id, t,
    coord_1..coord_d), written from the flat layout ``DUMP_ROWS`` rows at a
    time: a replica's rows in a block lie between its offsets clipped to
    the block, so a replica may straddle two blocks.  Floats are written by
    ``repr``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "snapshots.csv"
    dim = farm[0].positions.shape[1] if farm else 1
    header = ["replica_id", "t"] + [f"coord_{i + 1}" for i in range(dim)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for level in farm:
            t = repr(level.t)
            for start in range(0, level.count, DUMP_ROWS):
                block = level.positions[start:start + DUMP_ROWS]
                # a list's repr is the repr of each float, joined by ", "
                columns = [repr(block[:, c].tolist())[1:-1].split(", ") for c in range(dim)]
                rows = columns[0] if dim == 1 else list(map(",".join, zip(*columns)))
                cut = np.clip(level.offsets, start, start + len(block)) - start
                for i in np.flatnonzero(np.diff(cut)).tolist():
                    prefix = f"{i},{t},"
                    fh.write(prefix + ("\n" + prefix).join(rows[cut[i]:cut[i + 1]]) + "\n")
    return path


RUNNERS = {
    "lln": run_lln,
    "clt": run_clt,
    "wlaw": run_w_law,
    "oracle": run_oracle_crosscheck,
    "variance": run_variance,
}
