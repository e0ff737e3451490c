"""Experiment orchestration: replica farms, empirical statistics,
distributional tests, and machine-readable reports.

Every check records the tolerance it was judged against.  Farms derive
batch RNG substreams from the experiment seed, and reports are a pure
function of (config, seed) regardless of worker count.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats as sstats

from .kernels import Factor, Kernel, is_canonical, project
from .model import ModelParams, RegimeTag, classify, derive
from .limits import (
    critical_limit_sampler,
    fast_limit_sampler,
    h_polynomial_value,
    sigma_critical,
    sigma_slow,
    slow_limit_sampler,
)
from .simulator import Caps, condition_on_survival, simulate_farm
from .tree_oracle import exact_mixed_moment
# The per-snapshot statistics stay importable from here: the benchmark's
# tracer (benchmarks/tracer.py) patches them by these names.
from .ustats import (  # noqa: F401
    falling_factorial,
    normalized_u_statistic,
    normalized_u_statistics,
    u_statistic,
    u_statistics,
    v_statistic,
    v_statistics,
)


class ConfigError(ValueError):
    """Malformed experiment configuration."""


# The keys a config file may hold, per section; any other key is refused.
_CONFIG_KEYS = {"params", "kernel", "t_grid", "replicas", "seed", "regime",
                "test", "caps", "batch_size", "threads", "tolerances", "g1",
                "limit_draws", "fast_limit_draws", "fast_t_approx"}
_PARAMS_KEYS = {"lambda", "p", "mu", "sigma", "dim", "x0"}
_CAPS_KEYS = {"max_particles", "max_generations"}
_TOLERANCE_KEYS = {"se_mult", "ks_level", "corr_threshold", "indep_corr_bound"}
_G1_KEYS = {"replicas", "t", "t_max"}
_KERNEL_KEYS = {"arity", "dim", "symmetric", "terms"}
_TERM_KEYS = {"coef", "slots"}


def _refuse_unknown_keys(section: dict, allowed: set[str], where: str) -> dict:
    """The section itself, once every key in it is known."""
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}")
    return section


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    t_grid: tuple[float, ...]
    replicas: int = 1000
    seed: int = 0
    kernel: Kernel | None = None
    regime_expected: str | None = None
    test: str = "lln"
    caps: Caps = field(default_factory=Caps)
    batch_size: int = 2000
    threads: int = 1
    se_mult: float = 4.0
    ks_level: float = 0.01
    corr_threshold: float = 0.95
    indep_corr_bound: float = 0.05
    g1_replicas: int = 800
    g1_t: float = 8.0
    g1_t_max: float = 16.0
    limit_draws: int | None = None
    fast_limit_draws: int = 200
    fast_t_approx: float | None = None
    kernel_spec: dict | None = None

    def __post_init__(self):
        if len(self.t_grid) == 0:
            raise ConfigError("t_grid must be nonempty")
        if list(self.t_grid) != sorted(self.t_grid):
            raise ConfigError("t_grid must be increasing")
        if self.replicas < 1:
            raise ConfigError("replicas must be positive")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        try:
            _refuse_unknown_keys(d, _CONFIG_KEYS, "config")
            pd = _refuse_unknown_keys(d["params"], _PARAMS_KEYS, "params")
            params = ModelParams(
                lam=float(pd["lambda"]), p=float(pd["p"]), mu=float(pd["mu"]),
                sigma=float(pd["sigma"]), dim=int(pd.get("dim", 1)),
                x0=tuple(pd.get("x0", [0.0] * int(pd.get("dim", 1)))),
            )
            kernel_spec = d.get("kernel")
            kernel = parse_kernel_spec(kernel_spec) if kernel_spec else None
            if kernel is not None and kernel.dim != params.dim:
                raise ConfigError(f"kernel dim {kernel.dim} does not match "
                                  f"params dim {params.dim}")
            caps_d = _refuse_unknown_keys(d.get("caps", {}), _CAPS_KEYS, "caps")
            caps = Caps(
                max_particles=int(caps_d.get("max_particles", 10_000_000)),
                max_generations=int(caps_d.get("max_generations", 100_000)),
            )
            tol = _refuse_unknown_keys(d.get("tolerances", {}), _TOLERANCE_KEYS,
                                       "tolerances")
            g1 = _refuse_unknown_keys(d.get("g1", {}), _G1_KEYS, "g1")
            return ExperimentConfig(
                params=params,
                t_grid=tuple(float(t) for t in d["t_grid"]),
                replicas=int(d.get("replicas", 1000)),
                seed=int(d.get("seed", 0)),
                kernel=kernel,
                kernel_spec=kernel_spec,
                regime_expected=d.get("regime"),
                test=d.get("test", "lln"),
                caps=caps,
                batch_size=int(d.get("batch_size", 2000)),
                threads=int(d.get("threads", 1)),
                se_mult=float(tol.get("se_mult", 4.0)),
                ks_level=float(tol.get("ks_level", 0.01)),
                corr_threshold=float(tol.get("corr_threshold", 0.95)),
                indep_corr_bound=float(tol.get("indep_corr_bound", 0.05)),
                g1_replicas=int(g1.get("replicas", 800)),
                g1_t=float(g1.get("t", 8.0)),
                g1_t_max=float(g1.get("t_max", 16.0)),
                limit_draws=(int(d["limit_draws"]) if "limit_draws" in d else None),
                fast_limit_draws=int(d.get("fast_limit_draws", 200)),
                fast_t_approx=(float(d["fast_t_approx"])
                               if "fast_t_approx" in d else None),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def canonical_dict(self) -> dict:
        return {
            "params": {
                "lambda": self.params.lam, "p": self.params.p,
                "mu": self.params.mu, "sigma": self.params.sigma,
                "dim": self.params.dim, "x0": list(self.params.x0),
            },
            "kernel": self.kernel_spec,
            "t_grid": list(self.t_grid),
            "replicas": self.replicas,
            "seed": self.seed,
            "regime": self.regime_expected,
            "test": self.test,
            "caps": {"max_particles": self.caps.max_particles,
                     "max_generations": self.caps.max_generations},
            "batch_size": self.batch_size,
            "tolerances": {
                "se_mult": self.se_mult, "ks_level": self.ks_level,
                "corr_threshold": self.corr_threshold,
                "indep_corr_bound": self.indep_corr_bound,
            },
            "g1": {"replicas": self.g1_replicas, "t": self.g1_t,
                   "t_max": self.g1_t_max},
            "limit_draws": self.limit_draws,
            "fast_limit_draws": self.fast_limit_draws,
            "fast_t_approx": self.fast_t_approx,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def parse_kernel_spec(spec: dict) -> Kernel:
    """Kernel from its config form: tensor-sum terms as per-slot lists of
    per-coordinate polynomial coefficient vectors.  A declared ``arity``
    must match the slot count."""
    try:
        _refuse_unknown_keys(spec, _KERNEL_KEYS, "kernel")
        dim = int(spec.get("dim", 1))
        terms = []
        for term in spec["terms"]:
            _refuse_unknown_keys(term, _TERM_KEYS, "kernel term")
            coef = float(term.get("coef", 1.0))
            slots = [Factor.from_polys(slot) for slot in term["slots"]]
            terms.append((coef, slots))
        kernel = Kernel.tensor_sum(terms, dim=dim,
                                   symmetric=bool(spec.get("symmetric", False)))
        if "arity" in spec and int(spec["arity"]) != kernel.arity:
            raise ConfigError(f"kernel arity {spec['arity']} does not match "
                              f"its {kernel.arity} slots")
        return kernel
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kernel spec: {exc}") from exc


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


def _arity1_factor(f: Kernel) -> Factor:
    """Collapse an arity-1 tensor-sum kernel to a single slot function."""
    atoms = []
    for coef, slots in f.terms:
        atoms.extend((coef * a, pf) for a, pf in slots[0].atoms)
    return Factor(tuple(atoms))


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


def _v_values(level, consts) -> np.ndarray:
    """Per-replica normalized population size exp(-growth t) * count."""
    return math.exp(-consts.growth_rate * level.t) * level.counts


# ---------------------------------------------------------------------------
# runners


def _farm(config: ExperimentConfig, t_grid=None, replicas=None, seed=None):
    return simulate_farm(
        config.params,
        t_grid if t_grid is not None else config.t_grid,
        replicas if replicas is not None else config.replicas,
        seed if seed is not None else config.seed,
        caps=config.caps,
        batch_size=config.batch_size,
        threads=config.threads,
    )


def run_lln(config: ExperimentConfig, farm=None) -> TestReport:
    """Law of large numbers: the injective-tuple average converges to the
    tensorized stationary mean.

    The estimator divides the U-statistic by the falling factorial of the
    population size so the deterministic tuple-count factor drops out.
    """
    start = time.time()
    f = _require_kernel(config)
    farm = farm if farm is not None else _farm(config)
    alive, frac = condition_on_survival(farm[-1])
    n = f.arity
    target = project(f, [], config.params)
    enough = alive.counts >= n
    tuples = np.array([float(falling_factorial(int(m), n))
                       for m in alive.counts[enough]])
    vals = u_statistics(alive, f)[enough] / tuples
    if len(vals) < 2:
        raise ConfigError("too few replicas with enough particles for the arity")
    mean, se = _mean_se(vals)
    tol = config.se_mult * se
    checks = [CheckResult(
        name="lln_mean_vs_stationary",
        value=mean, target=target,
        tolerance=f"|diff| <= {config.se_mult:g} SE = {tol:.3g}",
        passed=abs(mean - target) <= tol, se=se,
        extra={"replicas_used": int(len(vals))},
    )]
    return TestReport(test="lln", seed=config.seed, config_hash=config.config_hash(),
                      survival_fraction=frac, checks=checks,
                      runtime_s=time.time() - start)


def _require_distributional_replicas(config: ExperimentConfig):
    if config.replicas < 100:
        raise ConfigError("distributional tests need at least 100 replicas")


def run_w_law(config: ExperimentConfig, farm=None) -> TestReport:
    """Exponential-limit law of the normalized population size."""
    start = time.time()
    _require_distributional_replicas(config)
    consts = derive(config.params)
    t = config.t_grid[-1]
    if math.exp(-consts.growth_rate * t) >= 0.05:
        raise ConfigError("horizon too short: exp(-growth t) must be < 0.05")
    farm = farm if farm is not None else _farm(config)
    level = farm[-1]
    alive, frac = condition_on_survival(level)
    v_all = _v_values(level, consts)
    v_alive = v_all[level.counts > 0]
    w_mean = config.params.p / (2.0 * config.params.p - 1.0)
    ks = sstats.kstest(v_alive, "expon", args=(0.0, w_mean))
    checks = [
        CheckResult(
            name="w_law_ks_exponential",
            value=float(ks.statistic), target=None,
            tolerance=f"KS p-value >= {config.ks_level:g}",
            passed=bool(ks.pvalue >= config.ks_level),
            extra={"p_value": float(ks.pvalue), "scale": w_mean,
                   "survivors": len(alive)},
        ),
    ]
    mean, se = _mean_se(v_all)
    tol = config.se_mult * se
    checks.append(CheckResult(
        name="w_law_martingale_mean",
        value=mean, target=1.0,
        tolerance=f"|diff| <= {config.se_mult:g} SE = {tol:.3g}",
        passed=abs(mean - 1.0) <= tol, se=se,
    ))
    return TestReport(test="wlaw", seed=config.seed,
                      config_hash=config.config_hash(),
                      survival_fraction=frac, checks=checks,
                      runtime_s=time.time() - start)


def _g1_coordinate(config: ExperimentConfig) -> CheckResult:
    """Second coordinate of the joint limit: the variance of the normalized
    population fluctuation around its terminal-value estimate.

    The limit estimate plugs in the terminal-time normalized size, whose
    quantifiable bias shrinks like exp(-growth (t_max - t)); configure the
    gap so that the bias sits well under the 5 SE tolerance.
    """
    consts = derive(config.params)
    grid = (config.g1_t, config.g1_t_max)
    farm = _farm(config, t_grid=grid, replicas=config.g1_replicas,
                 seed=config.seed + 104729)
    alive = farm[0].counts > 0
    m_t = farm[0].counts[alive]
    v_hat = _v_values(farm[1], consts)[alive]
    stats_vals = (m_t - math.exp(consts.growth_rate * farm[0].t) * v_hat) / np.sqrt(m_t)
    target = 1.0 / (2.0 * config.params.p - 1.0)
    var, se = _var_se(stats_vals)
    tol = 5.0 * se
    return CheckResult(
        name="g1_fluctuation_variance",
        value=var, target=target,
        tolerance=f"|diff| <= 5 SE = {tol:.3g}",
        passed=abs(var - target) <= tol, se=se,
        extra={"t": config.g1_t, "t_max": config.g1_t_max,
               "replicas": config.g1_replicas},
    )


def run_clt(config: ExperimentConfig, farm=None) -> TestReport:
    """Regime CLT for the normalized U-statistic of a canonical kernel.

    Compares the empirical sample against draws of the matching limit law
    (two-sample KS and first-two-moment agreement); in the fast regime the
    convergence is in probability, so the primary check correlates the
    statistic with the limit polynomial evaluated on the same trajectory.
    Always also records the population-fluctuation coordinate and an
    independence proxy (correlation bound with the normalized size).
    """
    start = time.time()
    _require_distributional_replicas(config)
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
    n = f.arity
    t = config.t_grid[-1]
    farm = farm if farm is not None else _farm(config)
    alive, frac = condition_on_survival(farm[-1])
    alive = alive.select(alive.counts >= n)
    stat = normalized_u_statistics(alive, f, n, regime, consts)
    w_proxy = _v_values(alive, consts)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((config.seed, 0xC17))))
    n_draws = config.limit_draws or len(stat)
    checks: list[CheckResult] = []

    if regime.is_fast:
        h_vals = math.exp((params.mu - consts.growth_rate) * alive.t) * \
            alive.segment_sum(alive.positions)
        ref = np.array([h_polynomial_value(f, h, params) for h in h_vals])
        corr = float(np.corrcoef(stat, ref)[0, 1])
        checks.append(CheckResult(
            name="fast_same_trajectory_correlation",
            value=corr, target=None,
            tolerance=f"corr >= {config.corr_threshold:g}",
            passed=corr >= config.corr_threshold,
            extra={"survivors": len(alive), "t": t},
        ))
        mean_stat, se_s = _mean_se(stat)
        mean_ref, se_r = _mean_se(ref)
        tol = config.se_mult * math.hypot(se_s, se_r)
        checks.append(CheckResult(
            name="fast_mean_agreement",
            value=mean_stat, target=mean_ref,
            tolerance=f"|diff| <= {config.se_mult:g} joint SE = {tol:.3g}",
            passed=abs(mean_stat - mean_ref) <= tol, se=se_s,
        ))
        n_fast = min(config.fast_limit_draws, len(stat))
        draws = fast_limit_sampler(
            f, params, rng, size=n_fast, t_approx=config.fast_t_approx,
            caps=config.caps,
        )
        ks = sstats.ks_2samp(stat[:n_fast], draws)
        checks.append(CheckResult(
            name="clt_two_sample_ks",
            value=float(ks.statistic), target=None,
            tolerance=f"KS p-value >= {config.ks_level:g}",
            passed=bool(ks.pvalue >= config.ks_level),
            extra={"p_value": float(ks.pvalue), "draws": int(n_fast)},
        ))
    else:
        sampler = slow_limit_sampler if regime.is_slow else critical_limit_sampler
        draws = sampler(f, params, rng, size=n_draws)
        ks = sstats.ks_2samp(stat, draws)
        checks.append(CheckResult(
            name="clt_two_sample_ks",
            value=float(ks.statistic), target=None,
            tolerance=f"KS p-value >= {config.ks_level:g}",
            passed=bool(ks.pvalue >= config.ks_level),
            extra={"p_value": float(ks.pvalue), "survivors": len(alive),
                   "draws": int(n_draws)},
        ))
        m_stat, se_s = _mean_se(stat)
        m_lim, se_l = _mean_se(draws)
        tol = config.se_mult * math.hypot(se_s, se_l)
        checks.append(CheckResult(
            name="clt_mean_agreement",
            value=m_stat, target=m_lim,
            tolerance=f"|diff| <= {config.se_mult:g} joint SE = {tol:.3g}",
            passed=abs(m_stat - m_lim) <= tol, se=se_s,
        ))
        v_stat, se_vs = _var_se(stat)
        v_lim, se_vl = _var_se(draws)
        tol = config.se_mult * math.hypot(se_vs, se_vl)
        checks.append(CheckResult(
            name="clt_variance_agreement",
            value=v_stat, target=v_lim,
            tolerance=f"|diff| <= {config.se_mult:g} joint SE = {tol:.3g}",
            passed=abs(v_stat - v_lim) <= tol, se=se_vs,
        ))
        if n == 1 and f.is_tensor_sum:
            fac = _arity1_factor(f)
            sigma2 = (sigma_slow(fac, params) if regime.is_slow
                      else sigma_critical(fac, params))
            tol = 3.0 * se_vs
            checks.append(CheckResult(
                name="clt_variance_vs_formula",
                value=v_stat, target=sigma2,
                tolerance=f"|diff| <= 3 SE = {tol:.3g}",
                passed=abs(v_stat - sigma2) <= tol, se=se_vs,
            ))
            ks1 = sstats.kstest(stat / math.sqrt(sigma2), "norm")
            checks.append(CheckResult(
                name="clt_ks_vs_normal",
                value=float(ks1.statistic), target=None,
                tolerance=f"KS p-value >= {config.ks_level:g}",
                passed=bool(ks1.pvalue >= config.ks_level),
                extra={"p_value": float(ks1.pvalue)},
            ))

    if not regime.is_fast:
        # in the fast regime the joint limit does not separate the size
        # limit from the U-statistic limit, so no decorrelation is claimed
        rho = float(np.corrcoef(w_proxy, stat)[0, 1])
        bound = max(config.indep_corr_bound, 4.0 / math.sqrt(len(stat)))
        checks.append(CheckResult(
            name="independence_corr_with_size",
            value=rho, target=0.0,
            tolerance=f"|corr| < {bound:.3g} (necessary condition only)",
            passed=abs(rho) < bound,
        ))
    checks.append(_g1_coordinate(config))
    return TestReport(test="clt", seed=config.seed,
                      config_hash=config.config_hash(),
                      survival_fraction=frac, checks=checks,
                      runtime_s=time.time() - start)


def run_oracle_crosscheck(config: ExperimentConfig, farm=None) -> TestReport:
    """Monte Carlo mean of the order-n V-statistic against the exact
    tree-expansion moment, at every grid time."""
    start = time.time()
    f = _require_kernel(config)
    if not (f.is_tensor_sum and f.is_polynomial):
        raise ConfigError("oracle cross-check needs a polynomial tensor kernel")
    if len(f.terms) != 1:
        raise ConfigError("oracle cross-check expects a single tensor term")
    coef, slots = f.terms[0]
    factors = []
    for s in slots:
        if len(s.atoms) != 1 or s.atoms[0][0] != 1.0:
            raise ConfigError("oracle factors must be plain products")
        factors.append(s.atoms[0][1])
    farm = farm if farm is not None else _farm(config)
    checks = []
    for k, t in enumerate(config.t_grid):
        vals = v_statistics(farm[k], f)
        oracle = coef * exact_mixed_moment(f.arity, t, config.params, factors)
        mean, se = _mean_se(vals)
        tol = config.se_mult * se
        checks.append(CheckResult(
            name=f"oracle_vs_mc_t{t:g}",
            value=mean, target=oracle,
            tolerance=f"|diff| <= {config.se_mult:g} SE = {tol:.3g}",
            passed=abs(mean - oracle) <= tol, se=se,
        ))
    return TestReport(test="oracle", seed=config.seed,
                      config_hash=config.config_hash(),
                      survival_fraction=None, checks=checks,
                      runtime_s=time.time() - start)


def run_variance(config: ExperimentConfig) -> TestReport:
    """Evaluate the regime asymptotic-variance formula for the kernel's
    single slot function."""
    start = time.time()
    f = _require_kernel(config)
    if f.arity != 1:
        raise ConfigError("variance evaluation expects an arity-1 kernel")
    params = config.params
    regime = classify(params)
    if not f.is_tensor_sum:
        raise ConfigError("variance evaluation expects a tensor-sum kernel")
    fac = _arity1_factor(f)
    if regime.is_slow:
        val = sigma_slow(fac, params)
    elif regime.is_critical:
        val = sigma_critical(fac, params)
    else:
        raise ConfigError("no scalar variance formula in the fast regime")
    checks = [CheckResult(
        name=f"asymptotic_variance_{regime.tag.value}",
        value=float(val), target=None,
        tolerance="finite and nonnegative",
        passed=bool(np.isfinite(val) and val >= 0.0),
    )]
    return TestReport(test="variance", seed=config.seed,
                      config_hash=config.config_hash(),
                      survival_fraction=None, checks=checks,
                      runtime_s=time.time() - start)


def _require_kernel(config: ExperimentConfig) -> Kernel:
    if config.kernel is None:
        raise ConfigError(f"test {config.test!r} requires a kernel spec")
    return config.kernel


# ---------------------------------------------------------------------------
# emission


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


def dump_snapshots(farm, t_grid, out_dir, name: str = "snapshots") -> Path:
    """Plot-ready long-format CSV of a ``simulate_farm`` result: one row per
    particle per replica per grid time (replica_id, t, coord_1..coord_d),
    written a level at a time from the flat layout.  Floats are written by
    ``repr``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.csv"
    dim = farm[0].positions.shape[1] if farm else 1
    header = ["replica_id", "t"] + [f"coord_{i + 1}" for i in range(dim)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for level, _t in zip(farm, t_grid):
            replica_ids = np.repeat(np.arange(len(level)), level.counts)
            columns = [map(str, replica_ids.tolist()),
                       itertools.repeat(repr(level.t), replica_ids.size)]
            columns += [map(repr, level.positions[:, c].tolist()) for c in range(dim)]
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))
    return path


RUNNERS = {
    "lln": run_lln,
    "wlaw": run_w_law,
    "clt": run_clt,
    "oracle": run_oracle_crosscheck,
    "variance": run_variance,
}
