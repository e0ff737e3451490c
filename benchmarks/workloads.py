"""The four benchmark workloads.

A workload builds its shared inputs from the workload seed, then runs ops
in rounds: one op of each kind in ``round`` order.  Every op gets its own
inputs, generated from ``(stream, op index)``.  The stream is the
workload seed for timed ops and ``FIXED_STREAM`` for the warm-up ops of
set-up, so that set-up does the same work whatever the seed.  ``execute`` is the timed part
and calls the package only through its public functions, looked up on the
module at call time so that the tracer's shims see each call.  ``verify``
is untimed: it checks the op's output against an independent reference
and returns the runner verdicts and the numbers that go into the digest.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from branching_ou import cli, harness, kernels, simulator, tree_oracle, ustats
from branching_ou.kernels import Factor, Kernel
from branching_ou.model import ModelParams, classify, derive
from branching_ou.ou import Func1D, default_rule
from branching_ou.simulator import ParticleSnapshot

LAM, P_SPLIT, SIGMA = 1.0, 0.75, 1.0
GROWTH = (2.0 * P_SPLIT - 1.0) * LAM
BRANCH_PAIRS = 2.0 * P_SPLIT * LAM   # lam * E[xi (xi - 1)] for xi in {0, 2}
MU_SLOW, MU_CRITICAL, MU_FAST = 1.0, GROWTH / 2.0, 0.1

X, X2 = [0.0, 1.0], [0.0, 0.0, 1.0]

# Input stream of the warm-up ops, the same for every workload seed.
FIXED_STREAM = 2**32


@dataclass
class Outcome:
    ok: bool
    why: str = ""
    verdicts: dict = field(default_factory=dict)   # runner check -> passed
    numbers: list = field(default_factory=list)    # digest input


@dataclass(frozen=True)
class OpKind:
    prepare: object   # (index) -> input
    execute: object   # (input) -> output, timed
    verify: object    # (input, output) -> Outcome


def _close(a: float, b: float, rel: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


class Workload:
    name = ""
    # How much of an op's time slows down with the reference kernel of
    # worker.py: 1 for interpreter-bound ops, less for ops on large arrays.
    speed_elasticity = 1.0

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.stream = seed   # op inputs come from (stream, op index)
        self.workdir = workdir
        self.tiny = tiny
        self.wrap_bb = None   # set by the traced run to count black-box rows
        self.kinds: dict[str, OpKind] = {}
        self.round: tuple[str, ...] = ()

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.stream, index])

    def op_seed(self, index: int) -> int:
        return int(self.rng(index).integers(1, 2**31 - 1))

    def blackbox(self, fn, arity: int, dim: int, symmetric: bool = False) -> Kernel:
        if self.wrap_bb is not None:
            fn = self.wrap_bb(fn)
        return Kernel.black_box(fn, arity, dim, symmetric=symmetric)


# ---------------------------------------------------------------------------
# closed forms used by the checks, independent of the package


def slow_variance_linear(coef: float, mu: float) -> float:
    """Slow-regime asymptotic variance of the linear statistic of coef * x."""
    s2 = SIGMA**2 / (2.0 * mu)
    return coef**2 * s2 * (1.0 + BRANCH_PAIRS / (2.0 * mu - GROWTH))


def ou_expectation(coeffs, u: float, mu: float) -> np.ndarray:
    """Coefficients in y of E[f(Y_u) | Y_0 = y] for the OU process and a
    polynomial f given by ascending coefficients."""
    a = math.exp(-mu * u)
    var = SIGMA**2 / (2.0 * mu) * -math.expm1(-2.0 * mu * u)
    out = np.zeros(len(coeffs))
    for k, c in enumerate(coeffs):
        for j in range(k + 1):
            m = k - j
            if m % 2 == 0:
                gauss = math.prod(range(m - 1, 0, -2)) * var ** (m // 2)
                out[j] += c * math.comb(k, j) * a**j * gauss
    return out


def moment_poly(fs, u: float, mu: float, nodes: int = 20) -> np.ndarray:
    """Coefficients in y of E_y prod_i <X_u, f_i> for polynomial factors, by
    the many-to-few recursion: every label on one particle, or the labels
    split into two groups at their last common branch event at time s.
    Split times are integrated by Gauss-Legendre quadrature."""
    pmul, padd = np.polynomial.polynomial.polymul, np.polynomial.polynomial.polyadd
    out = math.exp(GROWTH * u) * ou_expectation(
        functools.reduce(pmul, fs, np.array([1.0])), u, mu)
    n = len(fs)
    if n == 1 or u == 0.0:
        return out
    splits = [(a, tuple(i for i in range(n) if i not in a))
              for r in range(1, n) for a in itertools.combinations(range(n), r)
              if 0 in a]
    x, w = np.polynomial.legendre.leggauss(nodes)
    for s, ws in zip(0.5 * u * (x + 1.0), 0.5 * u * w):
        pair = np.zeros(1)
        for a, b in splits:
            pair = padd(pair, pmul(moment_poly([fs[i] for i in a], u - s, mu, nodes),
                                   moment_poly([fs[i] for i in b], u - s, mu, nodes)))
        out = padd(out, ws * BRANCH_PAIRS * math.exp(GROWTH * s)
                   * ou_expectation(pair, s, mu))
    return out


def mixed_moment(fs, t: float, mu: float, x0: float) -> float:
    """E prod_i <X_t, f_i> started from one particle at x0."""
    return float(np.polynomial.polynomial.polyval(x0, moment_poly(fs, t, mu)))


def population_moments(t: float) -> tuple[float, float, float]:
    """E N_t, E N_t^2, E N_t^3 of the binary branching population."""
    g, c = GROWTH, BRANCH_PAIRS
    m1 = math.exp(g * t)
    f2 = c * m1 * (m1 - 1.0) / g
    f3 = 3.0 * c * c / g * m1 * ((m1 * m1 - 1.0) / (2.0 * g) - (m1 - 1.0) / g)
    return m1, m1 + f2, m1 + 3.0 * f2 + f3


def elementary_u4(x: np.ndarray) -> float:
    """Sum of x_i x_j x_k x_l over injective 4-tuples, from power sums."""
    p1, p2, p3, p4 = (float(np.sum(x**k)) for k in range(1, 5))
    e2 = (p1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - p1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + p1 * p3 - p4) / 4.0
    return 24.0 * e4


# ---------------------------------------------------------------------------
# slow_cli_session


class SlowCliSession(Workload):
    """One in-process ``branching_ou.cli.main`` call per subcommand."""

    name = "slow_cli_session"

    EXPECTED = {
        "lln": {"lln_mean_vs_stationary"},
        "clt": {"clt_two_sample_ks", "clt_mean_agreement",
                "clt_variance_agreement", "clt_variance_vs_formula",
                "clt_ks_vs_normal", "independence_corr_with_size",
                "g1_fluctuation_variance"},
        "wlaw": {"w_law_ks_exponential", "w_law_martingale_mean"},
        "oracle": {"oracle_vs_mc_t1", "oracle_vs_mc_t2", "oracle_vs_mc_t3"},
        "variance": {"asymptotic_variance_slow"},
    }

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = np.random.default_rng(self.seed)
        self.x0 = float(rng.uniform(-0.5, 0.5))
        params = {"lambda": LAM, "p": P_SPLIT, "mu": MU_SLOW, "sigma": SIGMA,
                  "dim": 1, "x0": [self.x0]}
        self.var_coef = float(rng.uniform(0.5, 1.0))

        def kernel(arity, coef=1.0):
            return {"arity": arity, "dim": 1, "symmetric": True,
                    "terms": [{"coef": coef, "slots": [[X]] * arity}]}

        configs = {
            "lln_a2": {"kernel": kernel(2), "t_grid": [4.0 if tiny else 10.0],
                       "replicas": 100 if tiny else 1000},
            "lln_a4": {"kernel": kernel(4), "t_grid": [4.0 if tiny else 10.0],
                       "replicas": 100 if tiny else 300},
            "clt": {"kernel": kernel(1), "regime": "slow",
                    "t_grid": [4.0 if tiny else 10.0],
                    "replicas": 100 if tiny else 1000,
                    "g1": ({"replicas": 100, "t": 3.0, "t_max": 6.0} if tiny
                           else {"replicas": 300, "t": 6.0, "t_max": 12.0})},
            "wlaw": {"t_grid": [7.0 if tiny else 12.0],
                     "replicas": 100 if tiny else 1000},
            "oracle": {"kernel": kernel(2), "t_grid": [1.0, 2.0, 3.0],
                       "replicas": 100 if tiny else 2000},
            "variance": {"kernel": kernel(1, self.var_coef), "t_grid": [1.0]},
            "simulate": {"t_grid": [3.0 if tiny else 8.0],
                         "replicas": 100 if tiny else 1000},
        }
        self.configs = {}
        for kind, cfg in configs.items():
            path = workdir / f"{kind}.json"
            path.write_text(json.dumps({"params": params, "seed": 0, **cfg}))
            self.configs[kind] = (path, cfg)
        for kind in configs:
            self.kinds[kind] = OpKind(
                prepare=lambda index, kind=kind: self._prepare(kind, index),
                execute=self._execute,
                verify=self._verify,
            )
        self.round = tuple(configs)

    def _prepare(self, kind, index):
        command = kind.split("_")[0]
        out = self.workdir / f"op{index}"
        path, cfg = self.configs[kind]
        argv = [command, "--config", str(path), "--seed", str(self.op_seed(index)),
                "--out", str(out)]
        if command == "oracle":
            argv += ["--format", "csv"]
        return {"command": command, "argv": argv, "out": out, "cfg": cfg,
                "seed": self.op_seed(index)}

    def _execute(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(inp["argv"])
        return rc, buf.getvalue()

    def _verify(self, inp, out):
        rc, text = out
        try:
            if rc not in (0, 1):
                return Outcome(False, f"exit code {rc}")
            if inp["command"] == "simulate":
                return self._verify_simulate(inp, rc, text)
            return self._verify_report(inp, rc)
        finally:
            shutil.rmtree(inp["out"], ignore_errors=True)

    def _verify_report(self, inp, rc):
        command = inp["command"]
        if command == "oracle":
            with open(inp["out"] / "report_oracle.csv", newline="") as fh:
                rows = [{**r, "passed": r["passed"] == "true",
                         "value": float(r["value"]),
                         "target": float(r["target"]) if r["target"] else None,
                         "seed": int(r["seed"])}
                        for r in csv.DictReader(fh)]
        else:
            with open(inp["out"] / f"report_{command}.jsonl") as fh:
                rows = [json.loads(line) for line in fh][1:]
        verdicts = {r["check"]: r["passed"] for r in rows}
        numbers = [(r["check"], r["value"], r["target"]) for r in rows]
        if set(verdicts) != self.EXPECTED[command]:
            return Outcome(False, f"checks {sorted(verdicts)}", verdicts, numbers)
        if not all(math.isfinite(r["value"]) for r in rows):
            return Outcome(False, "non-finite value", verdicts, numbers)
        if (rc == 0) != all(verdicts.values()):
            return Outcome(False, "exit code disagrees with verdicts", verdicts,
                           numbers)
        if any(r["seed"] != inp["seed"] for r in rows):
            return Outcome(False, "seed not applied", verdicts, numbers)
        target = {r["check"]: r["target"] for r in rows}
        value = {r["check"]: r["value"] for r in rows}
        ok = True
        if command == "lln":
            ok = abs(target["lln_mean_vs_stationary"]) <= 1e-12
        elif command == "clt":
            ok = _close(target["clt_variance_vs_formula"],
                        slow_variance_linear(1.0, MU_SLOW), 1e-6)
        elif command == "wlaw":
            ok = target["w_law_martingale_mean"] == 1.0
        elif command == "oracle":
            ok = all(_close(target[f"oracle_vs_mc_t{t:g}"],
                            mixed_moment([X, X], t, MU_SLOW, self.x0), 1e-6)
                     for t in inp["cfg"]["t_grid"])
        elif command == "variance":
            ok = _close(value["asymptotic_variance_slow"],
                        slow_variance_linear(self.var_coef, MU_SLOW), 1e-6)
        return Outcome(ok, "" if ok else "value differs from closed form",
                       verdicts, numbers)

    def _verify_simulate(self, inp, rc, text):
        replicas = inp["cfg"]["replicas"]
        t_end = inp["cfg"]["t_grid"][-1]
        line = text.strip().splitlines()[-1]
        surviving = line.split("(")[1].split(" ")[0]
        alive, total = (int(v) for v in surviving.split("/"))
        path = inp["out"] / "snapshots.csv"
        raw = path.read_bytes()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            ids, times = set(), set()
            for row in reader:
                ids.add(int(row[0]))
                times.add(float(row[1]))
                float(row[2])
        numbers = [hashlib.sha256(raw).hexdigest()]
        ok = (rc == 0 and header == ["replica_id", "t", "coord_1"]
              and total == replicas and len(ids) == alive
              and ids <= set(range(replicas)) and times <= {t_end})
        return Outcome(ok, "" if ok else "snapshot CSV disagrees with summary",
                       {}, numbers)


# ---------------------------------------------------------------------------
# fast_large_pop


class FastLargePop(Workload):
    """Fast regime: ``harness.run_clt`` on a shared farm plus arity-4
    normalized U-statistics of the final snapshots."""

    name = "fast_large_pop"
    # An op's cost follows its population sizes, which vary with the op
    # seed (coefficient of variation 0.10 over twelve seeds), and a run
    # holds only five to seven ops.  A fixed seed fixes the work of an op.
    SIM_SEED = 20111119
    # Over four sets of runs, log op latency fell by 0.41 to 0.63 per unit
    # of log reference speed; full normalization added noise.
    speed_elasticity = 0.5
    EXPECTED = {"fast_same_trajectory_correlation", "fast_mean_agreement",
                "clt_two_sample_ks", "g1_fluctuation_variance"}

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        spec = {"arity": 2, "dim": 1, "symmetric": True,
                "terms": [{"coef": 1.0, "slots": [[X], [X]]}]}
        self.config = harness.ExperimentConfig.from_dict({
            "params": {"lambda": LAM, "p": P_SPLIT, "mu": MU_FAST,
                       "sigma": SIGMA, "dim": 1, "x0": [0.0]},
            "kernel": spec, "regime": "fast",
            "t_grid": [8.0 if tiny else 17.0], "replicas": 100 if tiny else 150,
            "g1": {"replicas": 100, "t": 6.0, "t_max": 12.0},
            **({"fast_t_approx": 8.0} if tiny else {}),
        })
        params = self.config.params
        self.kernel4 = Kernel.from_slot_funcs([Func1D.polynomial(X)] * 4,
                                              symmetric=True)
        self.regime = classify(params)
        self.consts = derive(params)
        self.kinds["run_clt"] = OpKind(self._prepare, self._execute, self._verify)
        self.round = ("run_clt",)

    def _prepare(self, index):
        """Every op runs at ``SIM_SEED``, from its own start position.  The
        simulator's and the limit sampler's random draws depend on particle
        counts, never on positions, so every op simulates the same
        genealogies, and does the same work, with different positions."""
        x0 = float(self.rng(index).uniform(-0.5, 0.5))
        params = replace(self.config.params, x0=(x0,))
        return replace(self.config, params=params, seed=self.SIM_SEED)

    def _execute(self, config):
        farm = simulator.simulate_farm(config.params, config.t_grid,
                                       config.replicas, config.seed)
        report = harness.run_clt(config, farm=farm)
        alive = [s for s in farm[-1] if s.count >= 4]
        u4 = [ustats.normalized_u_statistic(s, self.kernel4, 4, self.regime,
                                            self.consts) for s in alive]
        return report, alive, u4

    def _verify(self, config, out):
        report, alive, u4 = out
        verdicts = {c.name: c.passed for c in report.checks}
        numbers = [(c.name, c.value, c.target) for c in report.checks] + u4
        if set(verdicts) != self.EXPECTED or report.seed != config.seed:
            return Outcome(False, f"report {sorted(verdicts)}", verdicts, numbers)
        if not all(math.isfinite(c.value) for c in report.checks):
            return Outcome(False, "non-finite value", verdicts, numbers)
        scale = math.exp(-4.0 * (GROWTH - MU_FAST) * config.t_grid[-1])
        for snap, value in zip(alive, u4):
            x = snap.positions[:, 0]
            s1 = float(x.sum())
            if not _close(ustats.v_statistic(snap, config.kernel), s1 * s1, 1e-9):
                return Outcome(False, "V-statistic differs from (sum x)^2",
                               verdicts, numbers)
            magnitude = 24.0 * (float(np.sum(x * x)) + s1 * s1) ** 2 * scale
            if not _close(value, elementary_u4(x) * scale, 1e-9, magnitude):
                return Outcome(False, "arity-4 U-statistic differs from power sums",
                               verdicts, numbers)
        return Outcome(True, "", verdicts, numbers)


# ---------------------------------------------------------------------------
# oracle_moments


class OracleMoments(Workload):
    """``tree_oracle.exact_mixed_moment`` at n = 1, 2, 3 with the public
    defaults, in the slow and critical regimes at several t.  Each op kind
    keeps its factor multisets from {1, x, x^2} (in a drawn order), so ops of
    one kind cost the same.  ``low`` computes the three cheap moments in one
    op: n = 1, the Yule second moment (factors 1, 1) and n = 2 (x, x^2).

    A round is about 7 normalized seconds, so a 15 s run holds two or three
    rounds, 14 or 21 ops, while the machine runs at 0.66 to 1.3 times the
    reference speed: below the 22 ops at which ``op_tail_s`` leaves the
    upper quartile for the 11th largest, and at both counts the upper
    quartile is the ``n3`` op at 70% of the ``n3`` ops.  Six ``n3`` ops of
    seven keep the median inside the ``n3`` cluster."""

    name = "oracle_moments"
    TIMES = (0.5, 1.0, 2.0, 3.0)
    FACTORS = {"low": (None, ([1.0], [1.0]), (X, X2)), "n3": (([1.0], X, X2),)}

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.x0 = float(np.random.default_rng(self.seed).uniform(-0.5, 0.5))
        self.oracle_kwargs = {"n_nodes": 8, "check": False} if tiny else {}
        for kind in self.FACTORS:
            self.kinds[kind] = OpKind(
                prepare=lambda index, kind=kind: self._prepare(kind, index),
                execute=self._execute, verify=self._verify)
        self.round = ("low",) + ("n3",) * 6

    def _prepare(self, kind, index):
        """One (t, params, factors) per moment of the op."""
        rng = self.rng(index)
        moments = []
        for pool in self.FACTORS[kind]:
            mu = MU_SLOW if rng.random() < 0.5 else MU_CRITICAL
            t = float(rng.choice(self.TIMES))
            pool = pool or ([[1.0], X, X2][rng.integers(0, 3)],)
            factors = [pool[i] for i in rng.permutation(len(pool))]
            params = ModelParams(lam=LAM, p=P_SPLIT, mu=mu, sigma=SIGMA,
                                 x0=(self.x0,))
            moments.append((t, params, factors))
        return moments

    def _execute(self, moments):
        values = []
        for t, params, factors in moments:
            funcs = [Func1D.polynomial(f) for f in factors]
            values.append(tree_oracle.exact_mixed_moment(
                len(funcs), t, params, funcs, **self.oracle_kwargs))
        return values

    def _verify(self, moments, values):
        for (t, params, factors), value in zip(moments, values, strict=True):
            n = len(factors)
            ref = mixed_moment(factors, t, params.mu, self.x0)
            rel = 1e-3 if self.tiny else 1e-6
            scale = 1e-3 * population_moments(t)[n - 1]
            if not (math.isfinite(value) and _close(value, ref, rel, scale)):
                return Outcome(False, f"n={n} moment {value!r} vs reference "
                               f"{ref!r}", {}, values)
        return Outcome(True, "", {}, values)


# ---------------------------------------------------------------------------
# blackbox_projection


class BlackboxProjection(Workload):
    """Hoeffding projections, canonicality, degeneracy order and U-statistics
    of black-box kernels, each checked against its tensor-sum twin."""

    name = "blackbox_projection"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.params = ModelParams(lam=LAM, p=P_SPLIT, mu=MU_SLOW, sigma=SIGMA)
        self.params2 = ModelParams(lam=LAM, p=P_SPLIT, mu=MU_SLOW, sigma=SIGMA,
                                   dim=2, x0=(0.0, 0.0))
        self.rule_a2 = default_rule(self.params, 8 if tiny else 64)
        self.rule_a3 = default_rule(self.params, 6 if tiny else 32)
        self.rule_2d = default_rule(self.params2, 4 if tiny else 8)
        self.max_particles = 12 if tiny else 60
        ops = {
            "table_1d_a2": (self._prep_table_1d_a2, self._run_table, self._check_table),
            "table_1d_a3": (self._prep_table_1d_a3, self._run_table, self._check_table),
            "table_2d_a2": (self._prep_table_2d_a2, self._run_table, self._check_table),
            "canonical": (self._prep_pair, self._run_canonical, self._check_canonical),
            "degeneracy": (self._prep_pair, self._run_degeneracy,
                           self._check_degeneracy),
            "ustat_naive": (self._prep_ustat, self._run_naive, self._check_naive),
            "ustat_ie": (self._prep_ustat, self._run_ie, self._check_ie),
        }
        self.kinds = {k: OpKind(*v) for k, v in ops.items()}
        self.round = tuple(ops)

    # -- kernels: a black box and its tensor-sum twin ---------------------

    def _pair_1d_a2(self, rng, degenerate=False):
        a, b, c = rng.uniform(0.5, 1.5, size=3) * rng.choice([-1.0, 1.0], size=3)
        if degenerate:
            b = c = 0.0

        def fn(args):
            x, y = args[0][:, 0], args[1][:, 0]
            return a * x * y + b * x * x * y * y + c * (x * x + y * y)

        one = [1.0]
        twin = Kernel.tensor_sum(
            [(a, (Factor.from_polys([X]), Factor.from_polys([X]))),
             (b, (Factor.from_polys([X2]), Factor.from_polys([X2]))),
             (c, (Factor.from_polys([X2]), Factor.from_polys([one]))),
             (c, (Factor.from_polys([one]), Factor.from_polys([X2])))],
            dim=1, symmetric=True)
        return self.blackbox(fn, 2, 1, symmetric=True), twin

    def _points(self, rng, n, arity, dim=1):
        pts = rng.normal(0.0, 1.0, size=(n, arity, dim))
        return [pts[:, j, :] for j in range(arity)]

    def _prep_table_1d_a2(self, index):
        rng = self.rng(index)
        bb, twin = self._pair_1d_a2(rng)
        return bb, twin, self.params, self.rule_a2, self._points(rng, 8, 2)

    def _prep_table_1d_a3(self, index):
        rng = self.rng(index)
        a, b = rng.uniform(0.5, 1.5, size=2)

        def fn(args):
            x, y, z = (v[:, 0] for v in args)
            return a * x * x * y * z * z + b * x * y * z

        fx, fx2 = Factor.from_polys([X]), Factor.from_polys([X2])
        twin = Kernel.tensor_sum([(a, (fx2, fx, fx2)), (b, (fx, fx, fx))], dim=1)
        return self.blackbox(fn, 3, 1), twin, self.params, self.rule_a3, None

    def _prep_table_2d_a2(self, index):
        rng = self.rng(index)
        a, b = rng.uniform(0.5, 1.5, size=2)

        def fn(args):
            u, v = args
            return a * (u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]) + \
                b * u[:, 0] ** 2 * v[:, 1] ** 2

        one = [1.0]
        twin = Kernel.tensor_sum(
            [(a, (Factor.from_polys([X, one]), Factor.from_polys([X, one]))),
             (a, (Factor.from_polys([one, X]), Factor.from_polys([one, X]))),
             (b, (Factor.from_polys([X2, one]), Factor.from_polys([one, X2])))],
            dim=2)
        return (self.blackbox(fn, 2, 2), twin, self.params2, self.rule_2d,
                self._points(rng, 8, 2, dim=2))

    def _run_table(self, inp):
        bb, _, params, rule, args = inp
        table = kernels.hoeffding_table(bb, params, rule)
        recon = None if args is None else kernels.reconstruct_from_table(table, args)
        return table, recon

    def _check_table(self, inp, out):
        bb, twin, params, rule, args = inp
        table, recon = out
        want = kernels.hoeffding_table(twin, params, rule)
        numbers = [table[()]]
        if not _close(table[()], want[()], 1e-9, 1.0):
            return Outcome(False, "constant projection differs from twin", {}, numbers)
        if args is None:
            return Outcome(True, "", {}, numbers)
        numbers += recon.tolist()
        exact = twin.evaluate(args)
        scale = float(np.max(np.abs(exact))) + 1.0
        if not np.allclose(recon, exact, rtol=0.0, atol=1e-9 * scale):
            return Outcome(False, "reconstruction differs from kernel", {}, numbers)
        got = table[(1,)].evaluate([args[0]])
        ref = want[(1,)].evaluate([args[0]])
        if not np.allclose(got, ref, rtol=0.0, atol=1e-9 * scale):
            return Outcome(False, "order-1 projection differs from twin", {}, numbers)
        return Outcome(True, "", {}, numbers)

    def _prep_pair(self, index):
        """A kernel with non-null first projections and a canonical one."""
        rng = self.rng(index)
        bb, twin = self._pair_1d_a2(rng)
        canon_bb, canon_twin = self._pair_1d_a2(rng, degenerate=True)
        return bb, twin, canon_bb, canon_twin, self._points(rng, 4, 1)

    def _run_canonical(self, inp):
        bb, _, canon_bb, _, _ = inp
        return (kernels.is_canonical(canon_bb, self.params, self.rule_a2),
                kernels.is_canonical(bb, self.params, self.rule_a2))

    def _check_canonical(self, inp, out):
        _, twin, _, canon_twin, _ = inp
        want = (kernels.is_canonical(canon_twin, self.params, self.rule_a2),
                kernels.is_canonical(twin, self.params, self.rule_a2))
        ok = out == want and out[0]
        return Outcome(ok, "" if ok else f"is_canonical {out} vs twin {want}", {},
                       [float(v) for v in out])

    def _run_degeneracy(self, inp):
        bb = inp[2]
        centered = kernels.center_kernel(bb, self.params, self.rule_a2)
        return kernels.degeneracy_order(centered, self.params, self.rule_a2)

    def _check_degeneracy(self, inp, out):
        _, _, _, twin, args = inp
        order, proj = out
        want_order, want_proj = kernels.degeneracy_order(
            kernels.center_kernel(twin, self.params, self.rule_a2),
            self.params, self.rule_a2)
        pts = args * (order + 1)
        got, ref = proj.evaluate(pts), want_proj.evaluate(pts)
        numbers = [order] + got.tolist()
        ok = order == want_order and np.allclose(got, ref, rtol=1e-9, atol=1e-9)
        return Outcome(ok, "" if ok else "degeneracy differs from twin", {}, numbers)

    def _prep_ustat(self, index):
        rng = self.rng(index)
        arity = int(rng.integers(2, 4))
        m = int(rng.integers(self.max_particles // 3, self.max_particles + 1))
        snap = ParticleSnapshot(t=1.0, positions=rng.normal(0.0, 1.0, size=(m, 1)))
        a, b = rng.uniform(0.5, 1.5, size=2)

        def fn(args):
            return a * np.prod([v[:, 0] for v in args], axis=0) + b * args[0][:, 0] ** 2

        fx = Factor.from_polys([X])
        one = Factor.from_polys([[1.0]])
        twin = Kernel.tensor_sum(
            [(a, (fx,) * arity),
             (b, (Factor.from_polys([X2]),) + (one,) * (arity - 1))], dim=1)
        return snap, self.blackbox(fn, arity, 1), twin

    def _run_naive(self, inp):
        snap, bb, _ = inp
        return ustats.u_statistic(snap, bb, strategy="naive")

    def _run_ie(self, inp):
        snap, bb, _ = inp
        return ustats.u_statistic(snap, bb)

    def _ustat_scale(self, snap, arity):
        return float(np.sum(np.abs(snap.positions))) ** arity + 1.0

    def _check_naive(self, inp, value):
        snap, bb, twin = inp
        ref = ustats.u_statistic(snap, twin)
        ok = _close(value, ref, 1e-9, 1e-9 * self._ustat_scale(snap, bb.arity))
        return Outcome(ok, "" if ok else "naive U-statistic differs from twin", {},
                       [value])

    def _check_ie(self, inp, value):
        snap, bb, _ = inp
        ref = ustats.u_statistic(snap, bb, strategy="naive")
        ok = _close(value, ref, 1e-9, 1e-9 * self._ustat_scale(snap, bb.arity))
        return Outcome(ok, "" if ok else "inclusion-exclusion differs from naive",
                       {}, [value])


WORKLOADS = {w.name: w for w in (SlowCliSession, FastLargePop, OracleMoments,
                                 BlackboxProjection)}
