import csv
import dataclasses
import functools
import hashlib
import json
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branching_ou import harness
from branching_ou.cli import main as cli_main
from branching_ou.harness import (
    CheckResult,
    ConfigError,
    ExperimentConfig,
    TestReport,
    dump_snapshots,
    emit,
    parse_kernel_spec,
    run_clt,
    run_lln,
    run_oracle_crosscheck,
    run_variance,
    run_w_law,
)
from branching_ou.limits import fast_limit_sampler
from branching_ou.model import ModelParams
from branching_ou.simulator import AllExtinctError, ResourceCapError, simulate_farm

SLOW_P = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)

BASE = {
    "params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0, "dim": 1,
               "x0": [0.0]},
    "t_grid": [4.0, 8.0],
    "replicas": 1500,
    "seed": 5,
    "kernel": {"arity": 1, "dim": 1, "symmetric": True,
               "terms": [{"coef": 1.0, "slots": [[[0.0, 1.0]]]}]},
    "g1": {"replicas": 300, "t": 4.0, "t_max": 10.0},
}

MINIMAL = {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
           "t_grid": [1.0]}

KERNEL_XX = {"arity": 2, "dim": 1, "symmetric": True,
             "terms": [{"coef": 1.0, "slots": [[[0.0, 1.0]], [[0.0, 1.0]]]}]}

KERNEL_X2Y2 = {"arity": 2, "dim": 1, "symmetric": True,
               "terms": [{"coef": 1.0, "slots": [[[0.0, 0.0, 1.0]],
                                                 [[0.0, 0.0, 1.0]]]}]}


def config(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_roundtrip_hash_stable(self):
        c1, c2 = config(), config()
        assert c1.config_hash() == c2.config_hash()
        assert config(seed=6).config_hash() != c1.config_hash()

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE))
        c = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert c.params.lam == 1.0
        assert c.t_grid == (4.0, 8.0)

    def test_kernel_spec_parse(self):
        k = parse_kernel_spec(KERNEL_XX)
        assert k.arity == 2 and k.dim == 1 and k.symmetric
        pts = np.array([[2.0]]), np.array([[3.0]])
        assert k.evaluate(list(pts))[0] == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": []},
            {"params": {"p": 0.75}, "t_grid": [1.0]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": [2.0, 1.0]},
            # numbers are JSON numbers: no bool and no string is cast
            {"params": {"lambda": True, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": [1.0]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": "2"},
             "t_grid": [1.0]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0,
                        "x0": "5"}, "t_grid": [1.0]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0,
                        "dim": 2, "x0": "12"}, "t_grid": [1.0]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0,
                        "x0": [True]}, "t_grid": [1.0]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": [True]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": ["1.0"]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": [1.0], "seed": "3"},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": [1.0], "g1": {"t": "8"}},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": [1.0], "fast_t_approx": "9"},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": [1.0],
             "kernel": {"terms": [{"coef": True, "slots": [[[0.0, 1.0]]]}]}},
            # numbers are finite: NaN and the infinities load from JSON
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0,
                        "sigma": float("inf")}, "t_grid": [1.0]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": float("inf"),
                        "sigma": 1.0}, "t_grid": [1.0]},
            {"params": {"lambda": float("inf"), "p": 0.75, "mu": 1.0,
                        "sigma": 1.0}, "t_grid": [1.0]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0,
                        "x0": [float("nan")]}, "t_grid": [1.0]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": [float("nan")]},
            {"params": {"lambda": 1.0, "p": 0.75, "mu": 1.0, "sigma": 1.0},
             "t_grid": [float("inf")]},
            # every count is at least 1, the seed at least 0 (SeedSequence
            # refuses a negative one) and the g1 times are ordered
            {**MINIMAL, "replicas": 0},
            {**MINIMAL, "batch_size": 0},  # not a key: the simulator sizes batches
            {**MINIMAL, "seed": -1},
            {**MINIMAL, "replicas": -3},
            {**MINIMAL, "g1": {"replicas": -2}},
            {**MINIMAL, "g1": {"replicas": 0}},
            {**MINIMAL, "g1": {"t": 6.0, "t_max": 3.0}},
            {**MINIMAL, "g1": {"t": 4.0, "t_max": 4.0}},
            {**MINIMAL, "g1": {"t": -1.0}},
            # a kernel has at least one term and one slot, and every term
            # the same number of slots
            {**MINIMAL, "kernel": {"terms": [{"coef": 1.0, "slots": []}]}},
            {**MINIMAL, "kernel": {"arity": 0, "terms": [{"slots": []}]}},
            {**MINIMAL, "kernel": {"terms": []}},
            {**MINIMAL, "kernel": {"terms": [{"slots": [[[0.0, 1.0]]]},
                                             {"slots": [[[1.0]], [[1.0]]]}]}},
            # no key names the test: the subcommand does
            {**MINIMAL, "test": None},
            {**MINIMAL, "test": 5},
            {**MINIMAL, "test": [1]},
            {**MINIMAL, "test": "llm"},
            # not a key: the per-replica limits are simulator constants
            {**MINIMAL, "caps": {"max_particles": 0}},
            {**MINIMAL, "caps": {"max_particles": -5}},
            {**MINIMAL, "caps": {"max_generations": -1}},
            # the fast horizon is positive
            {**MINIMAL, "fast_t_approx": -3.0},
            {**MINIMAL, "fast_t_approx": 0.0},
            # an empty kernel spec is no kernel: only null or no key is
            {**MINIMAL, "kernel": {}},
            # grid times strictly increase: a repeated time would be
            # reported twice under one check name
            {**MINIMAL, "t_grid": [1.0, 1.0]},
            {**MINIMAL, "t_grid": [0.5, 2.0, 2.0]},
        ],
    )
    def test_bad_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "path",
        [("replica",), ("quad_nodes",), ("params", "lamda"),
         ("tolerances",), ("caps",), ("g1", "tmax"),
         ("kernel", "arty"), ("kernel", "terms", 0, "coeff"), ("threads",),
         # the check thresholds and limit-draw counts are harness constants
         ("limit_draws",), ("fast_limit_draws",)],
    )
    def test_unknown_key_rejected(self, path):
        raw = json.loads(json.dumps(BASE))
        node = raw
        for key in path[:-1]:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        node[path[-1]] = 2.0
        with pytest.raises(ConfigError, match=repr(path[-1])):
            ExperimentConfig.from_dict(raw)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ConfigError, match="slwo"):
            config(regime="slwo")

    @pytest.mark.parametrize("section, key", [("params", "lambda"),
                                              ("g1", "replicas"),
                                              ("kernel", "terms")])
    def test_section_must_be_object(self, section, key):
        with pytest.raises(ConfigError, match=f"{section} must be a JSON object"):
            config(**{section: [key]})

    def test_canonical_dict_reads_back(self):
        raw = json.loads(json.dumps(BASE))
        raw.update(g1={"replicas": 500}, fast_t_approx=9.0, regime="slow",
                   kernel=KERNEL_XX)
        c = ExperimentConfig.from_dict(raw)
        again = ExperimentConfig.from_dict(c.canonical_dict())
        assert again.canonical_dict() == c.canonical_dict()
        assert again.config_hash() == c.config_hash()

    def test_symmetric_must_be_bool(self):
        # bool("false") is True, so a string here would flip the kernel
        spec = dict(KERNEL_XX, symmetric="false")
        with pytest.raises(ConfigError, match="symmetric: expected true or false"):
            parse_kernel_spec(spec)
        with pytest.raises(ConfigError, match="symmetric"):
            config(kernel=spec)

    def test_t_grid_must_be_list(self):
        # a string would be read character by character: "12" -> (1.0, 2.0)
        with pytest.raises(ConfigError, match="t_grid: expected a list"):
            config(t_grid="12")

    def test_int_field_refuses_fraction(self):
        with pytest.raises(ConfigError, match="replicas: expected an integer, got 2.7"):
            config(replicas=2.7)
        assert config(replicas=2.0).replicas == 2

    def test_int_field_refuses_bool(self):
        with pytest.raises(ConfigError, match="seed: expected an integer, got True"):
            config(seed=True)
        with pytest.raises(ConfigError, match="replicas: expected an integer"):
            config(g1={"replicas": False})

    def test_kernel_arity_must_match_slots(self):
        spec = dict(KERNEL_XX, arity=3)
        with pytest.raises(ConfigError, match="arity 3"):
            parse_kernel_spec(spec)
        with pytest.raises(ConfigError, match="arity 3"):
            config(kernel=spec)

    def test_kernel_dim_must_match_params(self):
        spec = {"arity": 1, "dim": 2, "terms": [{"slots": [[[0.0, 1.0], [1.0]]]}]}
        with pytest.raises(ConfigError, match="kernel dim 2"):
            config(kernel=spec)

    def test_replace_checks_and_derives_the_kernel(self):
        # every check lives in __post_init__, so a replaced config is checked
        # as one read from JSON, and its kernel always comes from its spec
        c = config()
        params2 = dataclasses.replace(c.params, dim=2, x0=(0.0, 0.0))
        with pytest.raises(ConfigError, match="kernel dim 1 does not match params dim 2"):
            dataclasses.replace(c, params=params2)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(c, kernel=parse_kernel_spec(KERNEL_XX))
        xx = dataclasses.replace(c, kernel_spec=KERNEL_XX)
        assert xx.kernel == parse_kernel_spec(KERNEL_XX)
        assert xx.config_hash() == config(kernel=KERNEL_XX).config_hash() != c.config_hash()
        assert dataclasses.replace(c, kernel_spec=None).kernel is None

    def test_config_keeps_its_own_kernel_spec(self):
        # changing the dict a config was read from, or the dict its
        # canonical form gives, moves neither its hash nor its kernel
        raw = json.loads(json.dumps(BASE))
        c = ExperimentConfig.from_dict(raw)
        digest, kernel = c.config_hash(), c.kernel
        raw["kernel"]["terms"][0]["coef"] = 2.0
        c.canonical_dict()["kernel"]["terms"][0]["coef"] = 3.0
        assert c.config_hash() == digest == config().config_hash()
        assert c.kernel == kernel and c.kernel.terms[0][0] == 1.0

    # hashes of the shipped configs; a change here is a documented event
    SHIPPED = {"oracle.json": "7469c3e6b35edde1", "slow_clt.json": "f122d5a740cd542a",
               "wlaw.json": "c731925c16eb9380"}

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_shipped_configs_load(self, name):
        path = Path(__file__).resolve().parents[1] / "configs" / name
        with open(path) as fh:
            assert ExperimentConfig.from_dict(json.load(fh)).config_hash() == \
                self.SHIPPED[name]

    # one raw-config change per field that affects the numbers; the kernel
    # object is parsed from its spec.  A change inside the spec (its
    # symmetry, a coefficient, a slot, a term) reaches the hash, and so does
    # dropping the kernel or an early grid time.  A row's position is part
    # of its test id, so rows are replaced in place.
    HASHED = [
        ("params", ("params", "lambda"), 1.2),
        ("params", ("params", "p"), 0.8),
        ("params", ("params", "mu"), 1.5),
        ("params", ("params", "sigma"), 0.5),
        ("params", ("params", "x0"), [0.5]),
        ("t_grid", ("t_grid",), [4.0, 9.0]),
        ("replicas", ("replicas",), 1600),
        ("seed", ("seed",), 6),
        ("kernel", ("kernel",), KERNEL_XX),
        ("kernel_spec", ("kernel",), KERNEL_XX),
        ("regime_expected", ("regime",), "slow"),
        ("kernel_spec", ("kernel", "symmetric"), False),
        ("g1_t_max", ("g1", "t_max"), 12.0),
        ("kernel_spec", ("kernel", "terms"), [{"coef": 2.0, "slots": [[[0.0, 1.0]]]}]),
        ("fast_t_approx", ("fast_t_approx",), 9.0),
        ("kernel_spec", ("kernel", "terms"),
         [{"coef": 1.0, "slots": [[[0.0, 0.0, 1.0]]]}]),
        ("kernel_spec", ("kernel", "terms"),
         [{"coef": 1.0, "slots": [[[0.0, 1.0]]]}, {"coef": 1.0, "slots": [[[1.0]]]}]),
        ("kernel", ("kernel",), None),
        ("t_grid", ("t_grid",), [8.0]),
        ("g1_replicas", ("g1", "replicas"), 400),
        ("g1_t", ("g1", "t"), 5.0),
    ]

    @staticmethod
    def overridden(path, value):
        raw = json.loads(json.dumps(BASE))
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        return ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("field, path, value", HASHED)
    def test_numbers_affecting_field_changes_hash(self, field, path, value):
        changed = self.overridden(path, value)
        assert changed.config_hash() != config().config_hash(), field

    def test_every_field_hashed(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert names == {f for f, _, _ in self.HASHED}


# Values for each schema key, mostly in or near its domain (a kernel and its
# terms are drawn from their own tables); the property test below injects
# wrong types, non-finite numbers and unknown keys.
NUMBER = st.floats(-2.0, 2.0)
SCHEMA_VALUES = {
    "lambda": st.floats(0.1, 2.0), "p": st.floats(0.51, 1.0),
    "mu": st.floats(0.05, 2.0), "sigma": st.floats(0.1, 2.0),
    "dim": st.just(1), "x0": st.lists(NUMBER, min_size=1, max_size=1),
    "t_grid": st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3).map(sorted),
    "replicas": st.integers(0, 3000), "seed": st.integers(-5, 10**6),
    "regime": st.sampled_from([None, "slow", "critical", "fast"]),
    "t": st.floats(-1.0, 10.0), "t_max": st.floats(0.0, 20.0),
    "fast_t_approx": st.none() | st.floats(1.0, 20.0),
    "kernel": None, "arity": st.integers(1, 2), "symmetric": st.booleans(),
    "terms": None, "coef": NUMBER,
    "slots": st.lists(st.lists(st.lists(NUMBER, min_size=1, max_size=3),
                               min_size=1, max_size=1), min_size=1, max_size=2),
}
# keys a section cannot do without
REQUIRED = {"lambda", "p", "mu", "sigma", "t_grid", "params", "terms", "slots"}
ODD_VALUES = [True, None, "1", float("nan"), float("inf"), -float("inf"), [], {}]


def schema_section(table: dict):
    """Raw JSON sections drawn key by key from one schema table."""
    def value(key, cast):
        if key == "kernel":
            return schema_section(harness._KERNEL)
        if key == "terms":
            return st.lists(schema_section(harness._TERM), min_size=1, max_size=2)
        return schema_section(cast) if isinstance(cast, dict) else SCHEMA_VALUES[key]

    strategies = {key: value(key, cast) for key, (_, cast) in table.items()}
    return st.fixed_dictionaries(
        {k: v for k, v in strategies.items() if k in REQUIRED},
        optional={k: v for k, v in strategies.items() if k not in REQUIRED})


def schema_paths(node, path=()):
    """The path of every value in a raw config, into nested sections and
    lists."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from schema_paths(value, path + (key,))


def loads_and_reads_back(raw: dict) -> bool:
    """False when the config is refused with ``ConfigError``; otherwise
    checks that its canonical form holds only finite numbers and reads back
    to the same hash."""
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return False
    canonical = config.canonical_dict()
    json.dumps(canonical, allow_nan=False)
    assert ExperimentConfig.from_dict(canonical).config_hash() == config.config_hash()
    return True


class TestConfigProperty:
    def test_every_schema_key_has_values(self):
        keys = set()
        for table in (harness._CONFIG, harness._PARAMS, harness._KERNEL,
                      harness._TERM):
            keys |= {k for k, (_, cast) in table.items() if not isinstance(cast, dict)}
            keys |= {k for _, cast in table.values() if isinstance(cast, dict)
                     for k in cast}
        assert keys == set(SCHEMA_VALUES)

    @settings(max_examples=100, deadline=None)
    @given(schema_section(harness._CONFIG), st.integers(0, len(ODD_VALUES) - 1))
    def test_refused_or_reads_back(self, raw, shift):
        # the drawn config, then one copy per value with that value replaced
        # by a wrong type or a non-finite number, and one copy per section
        # with an unknown key added, which must be refused
        loads_and_reads_back(raw)
        for i, path in enumerate(schema_paths(raw)):
            changed = json.loads(json.dumps(raw))
            *parents, last = path
            node = functools.reduce(operator.getitem, parents, changed)
            if isinstance(node[last], dict):
                node[last]["unknown"] = 1.0
                assert not loads_and_reads_back(changed), path
                node[last].pop("unknown")
            node[last] = ODD_VALUES[(i + shift) % len(ODD_VALUES)]
            loads_and_reads_back(changed)
        assert not loads_and_reads_back(dict(raw, unknown=1.0))


class TestEmit:
    def report(self, checks):
        return TestReport(test="demo", seed=1, config_hash="abc",
                          survival_fraction=0.5, checks=checks, runtime_s=1.0)

    def test_empty_report_header_only_csv(self, tmp_path):
        path = emit(self.report([]), "csv", tmp_path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("test,check,value")

    def test_single_check_jsonl(self, tmp_path):
        check = CheckResult(name="c", value=1.25, target=1.0,
                            tolerance="|diff| <= 0.5", passed=True)
        path = emit(self.report([check]), "jsonl", tmp_path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["meta"] is True and lines[0]["passed"] is True
        assert lines[1]["check"] == "c" and lines[1]["value"] == 1.25

    def test_csv_field_with_comma_reads_back(self, tmp_path):
        check = CheckResult(name='mean, "arity 2"', value=1.25, target=None,
                            tolerance="|diff| <= 0.5", passed=False)
        path = emit(self.report([check]), "csv", tmp_path)
        with open(path, newline="") as fh:
            header, row = list(csv.reader(fh))
        assert dict(zip(header, row)) == {
            "test": "demo", "check": 'mean, "arity 2"', "value": "1.25",
            "target": "", "tolerance": "|diff| <= 0.5", "passed": "false",
            "se": "", "seed": "1", "config_hash": "abc", "survival_fraction": "0.5",
        }

    def test_rerun_byte_identical_numeric_fields(self, tmp_path):
        cfg = config(replicas=400, t_grid=[2.0, 4.0])
        r1 = run_lln(cfg)
        r2 = run_lln(cfg)
        p1 = emit(r1, "csv", tmp_path / "a")
        p2 = emit(r2, "csv", tmp_path / "b")
        assert p1.read_text() == p2.read_text()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit(self.report([]), "xml", tmp_path)

    def test_dump_snapshots(self, tmp_path):
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
        farm = simulate_farm(params, (1.0,), 5, seed=2)
        path = dump_snapshots(farm, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "replica_id,t,coord_1"
        assert len(lines) == 1 + sum(s.count for s in farm[0])

    def test_dump_snapshots_bytes_pinned(self, tmp_path):
        # 2-D farm with extinct replicas at both times; the digest pins the
        # row order and the repr of every float
        params = ModelParams(lam=1.0, p=0.75, mu=0.5, sigma=2.0, dim=2,
                             x0=(1.0, -1.0))
        farm = simulate_farm(params, (0.5, 2.0), 12, seed=4)
        assert [sum(s.count == 0 for s in level) for level in farm] == [3, 3]
        path = dump_snapshots(farm, tmp_path)
        assert path.read_text().splitlines()[0] == "replica_id,t,coord_1,coord_2"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "22fd9cd950ab132e3a27d022da88967b7807d86d72c9e430c7b10952f97a10fa")


class TestReportBytes:
    # SHA-256 of the CSV report of one small config per runner; the digest
    # covers the tolerance wording, the value formatting and the config
    # hash, so a change here is a documented event
    SLOW_CLT = dict(replicas=200, t_grid=[5.0], regime="slow",
                    g1={"replicas": 150, "t": 3.0, "t_max": 6.0})
    PINNED = {
        "lln": (run_lln, dict(kernel=KERNEL_X2Y2, replicas=300, t_grid=[3.0]),
                "0648484b605a21f1c239f495543d42e264507ecaeaddc5f13d0353068fc17547"),
        "wlaw": (run_w_law, dict(replicas=200, t_grid=[6.5]),
                 "3688c8b303f03a263cb479eec4046f7f9ee7451ff0a1916abad479bb4db4456e"),
        "clt": (run_clt, SLOW_CLT,
                "5d7bd7d37380a6599d4fb63d8984d55d99a9224551b0eb9d0c7c5124c8add788"),
        "oracle": (run_oracle_crosscheck,
                   dict(kernel=KERNEL_XX, replicas=300, t_grid=[1.0, 2.0]),
                   "72f078d0fa727c44af198cba07f320161578aff72cdb166e450308a0924a166d"),
        "variance": (run_variance, {},
                     "93299c2bf0c8ac144fe37783f00bb9c205221cdf0ceb76aebdb869a6130d879e"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_csv_report_pinned(self, name, tmp_path):
        runner, overrides, digest = self.PINNED[name]
        path = emit(runner(config(**overrides)), "csv", tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestRunners:
    def test_run_lln_squares(self):
        cfg = config(kernel=KERNEL_X2Y2, replicas=2500, t_grid=[6.0])
        report = run_lln(cfg)
        check = report.checks[0]
        assert check.target == pytest.approx(0.25, abs=1e-12)
        assert check.passed, check
        assert report.survival_fraction is not None

    def test_run_lln_constant_kernel_is_exact(self):
        kernel = {"arity": 2, "dim": 1, "symmetric": True,
                  "terms": [{"coef": 1.0, "slots": [[[1.0]], [[1.0]]]}]}
        cfg = config(kernel=kernel, replicas=300, t_grid=[3.0])
        report = run_lln(cfg)
        assert report.checks[0].value == 1.0
        assert report.checks[0].target == 1.0
        assert report.passed

    def test_run_variance_multi_term_kernel(self):
        # f(x) = x + (x^2 - 1/2) as two tensor terms; the variance formula
        # must see the combined slot function
        kernel = {"arity": 1, "dim": 1, "symmetric": True,
                  "terms": [{"coef": 1.0, "slots": [[[0.0, 1.0]]]},
                            {"coef": 1.0, "slots": [[[-0.5, 0.0, 1.0]]]}]}
        report = run_variance(config(kernel=kernel))
        # independent value: variances add across odd/even parts
        from branching_ou.limits import sigma_slow
        from branching_ou.ou import Func1D

        want = sigma_slow(Func1D.polynomial([-0.5, 1.0, 1.0]), SLOW_P)
        assert report.checks[0].value == pytest.approx(want, rel=1e-12)

    def test_run_lln_linear_target_zero(self):
        cfg = config(replicas=1200, t_grid=[5.0])
        report = run_lln(cfg)
        assert report.checks[0].target == pytest.approx(0.0, abs=1e-14)
        assert report.checks[0].passed

    def test_run_w_law(self):
        cfg = config(replicas=3000, t_grid=[8.0])
        report = run_w_law(cfg)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        # the KS floor: the limit CDF at exp(-g t), below every sample point
        gap = 1.0 - math.exp(-math.exp(-0.5 * 8.0) * 0.5 / 0.75)
        assert report.checks[0].extra["limit_gap"] == pytest.approx(gap, rel=1e-12)

    def test_w_law_and_g1_draw_no_motion(self, monkeypatch):
        # both depend on the genealogy alone, so neither reads the clock in
        # which a farm moves its particles
        def no_motion(*args, **kwargs):
            raise AssertionError("a particle was moved")

        monkeypatch.setattr("branching_ou.simulator.clock", no_motion)
        assert len(run_w_law(config(replicas=200, t_grid=[6.5])).checks) == 2
        check = harness._g1_coordinate(config(**TestReportBytes.SLOW_CLT))
        assert check.name == "g1_fluctuation_variance"

    def test_g1_calibrated_over_seeds(self):
        # the g1 check is 5 SE wide, so over the declared seeds 0..999 it
        # should almost never fail; against the t -> infinity limit
        # 1 / (2p - 1) = 2 instead of the exact 1.5537 it failed 73 times
        failed = sum(not harness._g1_coordinate(
            config(**TestReportBytes.SLOW_CLT, seed=seed)).passed for seed in range(1000))
        assert failed <= 15

    def test_run_w_law_rejects_short_horizon(self, monkeypatch):
        # the size law is lattice, so its KS statistic has a floor that a
        # large sample resolves: at t = 6 with 5000 replicas the floor is
        # 1.90 / sqrt(survivors) and every one of 400 seeds failed
        def no_farm(*args, **kwargs):
            raise AssertionError("the farm was simulated")

        monkeypatch.setattr("branching_ou.harness.farm_counts", no_farm)
        for t, replicas in ((2.0, 1000), (6.0, 5000)):
            with pytest.raises(ConfigError, match="horizon too short"):
                run_w_law(config(t_grid=[t], replicas=replicas))

    def test_w_law_calibrated_over_seeds(self):
        # at the most the guard admits nearby, t = 8 with 3000 replicas (a
        # floor of 0.54 / sqrt(survivors)), the KS check at level 0.01
        # fails 6 of the declared seeds 0..399, near the nominal 4
        cfg = dict(replicas=3000, t_grid=[8.0])
        failed = sum(not run_w_law(config(**cfg, seed=seed)).checks[0].passed
                     for seed in range(400))
        assert failed <= 16

    def test_run_w_law_other_offspring_probability(self):
        raw = json.loads(json.dumps(BASE))
        raw["params"]["p"] = 0.9
        raw.update(replicas=2000, t_grid=[8.0])
        report = run_w_law(ExperimentConfig.from_dict(raw))
        ks = report.checks[0]
        assert ks.extra["scale"] == pytest.approx(0.9 / 0.8)  # mean of Exp(8/9)
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_run_oracle_pure_birth_counts(self):
        raw = json.loads(json.dumps(BASE))
        raw["params"]["p"] = 1.0
        raw.update(
            replicas=3000, t_grid=[0.5, 1.0],
            kernel={"arity": 2, "dim": 1, "symmetric": True,
                    "terms": [{"coef": 1.0, "slots": [[[1.0]], [[1.0]]]}]},
        )
        report = run_oracle_crosscheck(ExperimentConfig.from_dict(raw))
        import math

        for check, t in zip(report.checks, (0.5, 1.0)):
            want = 2 * math.exp(2 * t) - math.exp(t)
            assert check.target == pytest.approx(want, rel=1e-9)
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_run_clt_slow_linear(self):
        cfg = config(replicas=2500, t_grid=[8.0], regime="slow")
        report = run_clt(cfg)
        names = {c.name for c in report.checks}
        assert {"clt_two_sample_ks", "clt_mean_agreement",
                "clt_variance_agreement", "clt_variance_vs_formula",
                "clt_ks_vs_normal", "independence_corr_with_size",
                "g1_fluctuation_variance"} <= names
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_run_clt_fast_regime(self):
        raw = json.loads(json.dumps(BASE))
        raw["params"]["mu"] = 0.1
        raw.update(replicas=600, t_grid=[10.0], regime="fast", fast_t_approx=14.0,
                   g1={"replicas": 300, "t": 4.0, "t_max": 10.0})
        report = run_clt(ExperimentConfig.from_dict(raw))
        names = {c.name for c in report.checks}
        assert {"fast_same_trajectory_correlation", "fast_mean_agreement",
                "clt_two_sample_ks"} <= names
        corr = next(c for c in report.checks
                    if c.name == "fast_same_trajectory_correlation")
        assert corr.value == pytest.approx(1.0, abs=1e-9)  # n=1: same quantity
        assert report.passed, [c for c in report.checks if not c.passed]

    FAST_SMALL = dict(params=dict(BASE["params"], mu=0.1), replicas=100,
                      t_grid=[6.0], regime="fast", fast_t_approx=6.0,
                      g1={"replicas": 100, "t": 3.0, "t_max": 6.0})

    def test_run_clt_fast_ks_takes_nonzero_draws(self, monkeypatch):
        # an extinct trajectory gives a limit draw of exactly 0; the
        # statistic is taken on survivors, so the KS check keeps the
        # nonzero draws (the limit law on survival) and records their number;
        # fewer survivors than FAST_LIMIT_DRAWS take one draw each
        sampled = []

        def recording(*args, **kwargs):
            sampled.append(fast_limit_sampler(*args, **kwargs))
            return sampled[-1]

        monkeypatch.setattr(harness, "fast_limit_sampler", recording)
        report = run_clt(config(**self.FAST_SMALL))
        (draws,) = sampled
        checks = {c.name: c for c in report.checks}
        survivors = checks["fast_same_trajectory_correlation"].extra["survivors"]
        assert survivors < harness.FAST_LIMIT_DRAWS
        ks = checks["clt_two_sample_ks"]
        assert draws.size == survivors and 0 < np.count_nonzero(draws) < draws.size
        assert ks.extra["draws"] == np.count_nonzero(draws)

    def test_run_clt_fast_refuses_vanishing_limit(self, monkeypatch):
        # x^2 - 5 has stationary mean 0 at mu = 0.1 (variance 5) and its
        # derivative has mean 0 too, so the limit polynomial is identically
        # 0: refused before the sampler draws anything
        monkeypatch.setattr(harness, "fast_limit_sampler", None)
        slot = [[-5.0, 0.0, 1.0]]
        spec = {"arity": 2, "dim": 1, "symmetric": True,
                "terms": [{"coef": 1.0, "slots": [slot, slot]}]}
        with pytest.raises(ConfigError, match="vanishes"):
            run_clt(config(**dict(self.FAST_SMALL, kernel=spec)))

    def test_run_clt_requires_canonical(self):
        cfg = config(kernel=KERNEL_X2Y2)
        with pytest.raises(ConfigError):
            run_clt(cfg)

    def test_run_clt_regime_mismatch(self):
        cfg = config(regime="fast")
        with pytest.raises(ConfigError):
            run_clt(cfg)

    def test_distributional_tests_need_replicas(self):
        with pytest.raises(ConfigError):
            run_clt(config(replicas=50))
        with pytest.raises(ConfigError):
            run_w_law(config(replicas=50, t_grid=[8.0]))

    @pytest.mark.parametrize("g1_replicas", [1, 2, 99])
    def test_g1_check_needs_replicas(self, g1_replicas, monkeypatch, tmp_path, capsys):
        # one replica gave an SE of NaN and two an SE of 4.9: the floor of
        # the other distributional checks holds before any farm is drawn
        def no_farm(*args, **kwargs):
            raise AssertionError("a farm was drawn")

        monkeypatch.setattr(harness, "simulate_farm", no_farm)
        monkeypatch.setattr(harness, "farm_counts", no_farm)
        g1 = {"replicas": g1_replicas, "t": 4.0, "t_max": 10.0}
        with pytest.raises(ConfigError, match=f"g1.replicas = {g1_replicas}$"):
            run_clt(config(g1=g1))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE, g1=g1)))
        assert cli_main(["clt", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "g1.replicas" in capsys.readouterr().err

    def test_run_clt_fast_refuses_all_extinct_draws(self, monkeypatch, tmp_path, capsys):
        # no nonzero limit draw leaves the KS check no sample: refused
        # rather than reported as NaN
        monkeypatch.setattr(harness, "fast_limit_sampler",
                            lambda *args, size, **kwargs: np.zeros(size))
        with pytest.raises(AllExtinctError, match="every fast limit draw is extinct"):
            run_clt(config(**self.FAST_SMALL))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE, **self.FAST_SMALL)))
        assert cli_main(["clt", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "every fast limit draw is extinct" in capsys.readouterr().err

    def test_run_clt_fast_draws_over_budget_refused(self, monkeypatch, tmp_path,
                                                    capsys):
        # 200 limit draws to t = 27 expect 200 * 2 e^13.5, about 2.9e8 tree
        # lines: refused at time 0, before the farm and any genealogy
        def no_draw(*args, **kwargs):
            raise AssertionError("a farm or a genealogy was drawn")

        monkeypatch.setattr(harness, "simulate_farm", no_draw)
        monkeypatch.setattr("branching_ou.limits.position_sum", no_draw)
        raw = {**BASE, **self.FAST_SMALL, "fast_t_approx": 27.0}
        with pytest.raises(ResourceCapError, match="2.92e\\+08 tree lines") as refused:
            run_clt(ExperimentConfig.from_dict(raw))
        assert refused.value.time_reached == 0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["clt", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "MAX_FARM_PARTICLES" in capsys.readouterr().err

    def test_run_clt_fast_draws_count_tree_lines(self, monkeypatch):
        # at t = 24.5 the draws expect 200 * 2 e^12.25, about 8.4e7 tree
        # lines, within the budget, though their full trees would bear
        # 200 * 3 e^12.25, about 1.25e8 births
        horizons = []

        def stub(f, params, rng, size, *, t_approx):
            horizons.append(t_approx)
            return rng.standard_normal(size)

        monkeypatch.setattr(harness, "fast_limit_sampler", stub)
        report = run_clt(config(**dict(self.FAST_SMALL, fast_t_approx=24.5)))
        assert horizons == [24.5]
        assert "clt_two_sample_ks" in {c.name for c in report.checks}

    @pytest.mark.parametrize("regime", ["slow", "fast"])
    def test_run_clt_refuses_too_few_carriers(self, regime, monkeypatch, tmp_path,
                                              capsys):
        # at t = 0.001 almost every replica holds one particle, too few for
        # an arity-2 kernel: fewer than 2 carriers are refused as a config
        # error before any limit draw, not reported as a failed check (slow)
        # or as every limit draw being extinct (fast)
        def no_draw(*args, **kwargs):
            raise AssertionError("a limit law was sampled")

        for name in ("slow_limit_sampler", "fast_limit_sampler"):
            monkeypatch.setattr(harness, name, no_draw)
        raw = {**BASE, **(self.FAST_SMALL if regime == "fast" else {}),
               "kernel": KERNEL_XX, "t_grid": [0.001], "replicas": 100,
               "regime": regime}
        with pytest.raises(ConfigError, match="too few replicas"):
            run_clt(ExperimentConfig.from_dict(raw))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["clt", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "too few replicas" in capsys.readouterr().err

    def test_run_oracle_crosscheck(self):
        cfg = config(kernel=KERNEL_XX, replicas=4000, t_grid=[1.0, 2.0])
        report = run_oracle_crosscheck(cfg)
        assert len(report.checks) == 2
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_run_variance(self):
        report = run_variance(config())
        assert report.checks[0].value == pytest.approx(1.0, abs=1e-10)
        assert report.passed

    def test_missing_kernel(self):
        with pytest.raises(ConfigError):
            run_lln(config(kernel=None))


class TestCli:
    def write_cfg(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_variance_subcommand(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, BASE)
        code = cli_main(["variance", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out

    def test_lln_subcommand_csv(self, tmp_path, capsys):
        raw = dict(BASE, kernel=KERNEL_X2Y2, replicas=1500, t_grid=[5.0])
        cfg = self.write_cfg(tmp_path, raw)
        code = cli_main(["lln", "--config", str(cfg), "--format", "csv",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report_lln.csv").exists()

    def test_simulate_subcommand(self, tmp_path, capsys):
        raw = dict(BASE, replicas=20, t_grid=[1.0])
        cfg = self.write_cfg(tmp_path, raw)
        code = cli_main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "snapshots.csv").exists()

    def test_parser_built_once_and_reused(self, tmp_path, capsys):
        # one parser serves every call, and a usage error or --help in one
        # call leaves the next call's arguments and exit code its own
        from branching_ou import cli

        assert cli._build_parser() is cli._build_parser()
        cfg = self.write_cfg(tmp_path, BASE)
        assert cli_main(["--help"]) == 0
        assert cli_main(["variance", "--config", str(cfg), "--bogus"]) == 2
        assert cli_main(["variance", "--config", str(cfg), "--seed", "4",
                         "--format", "csv", "--out", str(tmp_path / "a")]) == 0
        assert cli_main(["variance", "--config", str(cfg),
                         "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report_variance.csv").exists()
        assert not (tmp_path / "b" / "report_variance.csv").exists()
        assert json.loads((tmp_path / "b" / "report_variance.jsonl")
                          .read_text().splitlines()[0])["seed"] == 5

    def test_seed_and_t_overrides(self, tmp_path):
        # --seed overrides the config's seed; the grid and the replica
        # count come from the config alone
        raw = dict(BASE, kernel=KERNEL_X2Y2, replicas=500, t_grid=[3.0, 5.0])
        cfg = self.write_cfg(tmp_path, raw)
        code = cli_main(["lln", "--config", str(cfg), "--seed", "9",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        meta = json.loads((tmp_path / "out" / "report_lln.jsonl")
                          .read_text().splitlines()[0])
        assert meta["seed"] == 9
        assert meta["config_hash"] == config(**dict(raw, seed=9)).config_hash()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli_main(["lln", "--config", str(path)]) == 2

    def test_critical_clt_of_canonical_kernel_with_uncentered_slots(self, tmp_path):
        # (x + 1)(y) - 1(y) equals x y, a canonical kernel whose slots are not
        # centered: the critical run writes its report, as x y's does
        kernel = {"arity": 2, "dim": 1, "symmetric": True,
                  "terms": [{"coef": 1.0, "slots": [[[1.0, 1.0]], [[0.0, 1.0]]]},
                            {"coef": -1.0, "slots": [[[1.0]], [[0.0, 1.0]]]}]}
        raw = dict(BASE, params=dict(BASE["params"], mu=0.25), kernel=kernel,
                   t_grid=[6.0], replicas=200, regime="critical")
        verdicts = []
        for name, spec in (("canonical", kernel), ("xx", KERNEL_XX)):
            cfg = self.write_cfg(tmp_path, dict(raw, kernel=spec))
            assert cli_main(["clt", "--config", str(cfg), "--format", "csv",
                             "--out", str(tmp_path / name)]) in (0, 1)
            with open(tmp_path / name / "report_clt.csv") as fh:
                verdicts.append([(row["check"], row["passed"]) for row in csv.DictReader(fh)])
        assert verdicts[0] == verdicts[1]
        assert "clt_two_sample_ks" in dict(verdicts[0])

    def test_slow_clt_of_canonical_sixth_degree_kernel(self, tmp_path):
        # He_6(x / s) He_6(y / s), s = 1/sqrt(2) the stationary standard
        # deviation, is canonical, though the slot means round off zero; an
        # arity-2 slow run writes every check but the two arity-1 ones
        he6 = [[-15.0, 0.0, 90.0, 0.0, -60.0, 0.0, 8.0]]
        kernel = {"arity": 2, "dim": 1, "symmetric": True,
                  "terms": [{"coef": 1.0, "slots": [he6, he6]}]}
        raw = dict(BASE, kernel=kernel, t_grid=[6.0], replicas=300, regime="slow")
        cfg = self.write_cfg(tmp_path, raw)
        assert cli_main(["clt", "--config", str(cfg), "--format", "csv",
                         "--out", str(tmp_path)]) in (0, 1)
        with open(tmp_path / "report_clt.csv") as fh:
            names = {row["check"] for row in csv.DictReader(fh)}
        assert names == {"clt_two_sample_ks", "clt_mean_agreement",
                         "clt_variance_agreement", "independence_corr_with_size",
                         "g1_fluctuation_variance"}

    def test_missing_kernel_exit_2(self, tmp_path):
        raw = {k: v for k, v in BASE.items() if k != "kernel"}
        cfg = self.write_cfg(tmp_path, raw)
        assert cli_main(["clt", "--config", str(cfg)]) == 2

    def test_usage_error_exit_2(self, tmp_path, capsys):
        assert cli_main(["frobnicate"]) == 2
        # the config file alone sets the replica count and the time grid
        cfg = self.write_cfg(tmp_path, BASE)
        # and only a flag's full name is taken, not a prefix of it
        for flags in (["--replicas", "500"], ["--t", "3.0,5.0"], ["--t=-1,2"],
                      ["--se", "4", "--o", str(tmp_path / "out"), "--f", "csv"]):
            assert cli_main(["variance", "--config", str(cfg), *flags,
                             "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_threads_refused_exit_2(self, tmp_path, capsys):
        # farms run their batches serially, in batches the simulator sizes,
        # under its per-replica limits, the subcommand names the test, and
        # the check thresholds and limit-draw counts are harness constants:
        # no flag or key sets any of them
        cfg = self.write_cfg(tmp_path, BASE)
        assert cli_main(["variance", "--config", str(cfg), "--threads", "2",
                         "--out", str(tmp_path / "out")]) == 2
        for key, value in (("threads", 2), ("batch_size", 500), ("test", "variance"),
                           ("caps", {"max_particles": 1000}),
                           ("tolerances", {"se_mult": 4.0}), ("limit_draws", 300),
                           ("fast_limit_draws", 200)):
            cfg = self.write_cfg(tmp_path, dict(BASE, **{key: value}))
            assert cli_main(["variance", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 2
            assert f"unknown key {key!r}" in capsys.readouterr().err

    @staticmethod
    def refuse_farm(monkeypatch):
        def no_farm(*args, **kwargs):
            raise AssertionError("the farm was simulated")

        for name in ("harness.simulate_farm", "harness.farm_counts",
                     "cli.simulate_farm"):
            monkeypatch.setattr(f"branching_ou.{name}", no_farm)

    def test_oracle_above_tree_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        self.refuse_farm(monkeypatch)
        kernel = {"arity": 7, "dim": 1, "symmetric": True,
                  "terms": [{"coef": 1.0, "slots": [[[0.0, 1.0]]] * 7}]}
        raw = dict(BASE, kernel=kernel, replicas=20, t_grid=[1.0])
        cfg = self.write_cfg(tmp_path, raw)
        assert cli_main(["oracle", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: arity 7")

    def test_oracle_repeated_grid_time_exit_2(self, tmp_path, capsys, monkeypatch):
        self.refuse_farm(monkeypatch)
        raw = dict(BASE, kernel=KERNEL_XX, replicas=20, t_grid=[1.0, 1.0])
        cfg = self.write_cfg(tmp_path, raw)
        assert cli_main(["oracle", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: t_grid must be increasing")

    def test_oracle_over_budget_exit_1_before_simulating(self, tmp_path, capsys,
                                                         monkeypatch):
        self.refuse_farm(monkeypatch)
        slots = [[[0.1 * i, -1.0, 0.5, 1.0]] for i in range(6)]
        kernel = {"arity": 6, "dim": 1, "terms": [{"coef": 1.0, "slots": slots}]}
        raw = dict(BASE, kernel=kernel, replicas=20, t_grid=[1.0])
        cfg = self.write_cfg(tmp_path, raw)
        assert cli_main(["oracle", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and len(err.splitlines()) == 1

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        raw = dict(BASE, g1={"replicas": 300, "tmax": 10.0})
        cfg = self.write_cfg(tmp_path, raw)
        assert cli_main(["lln", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'tmax'" in err

    def test_t_not_a_number_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, dict(BASE, t_grid=["abc"]))
        assert cli_main(["lln", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_t_nan_exit_2(self, tmp_path, capsys):
        # json writes and reads a NaN as the bare token NaN
        cfg = self.write_cfg(tmp_path, dict(BASE, t_grid=[float("nan")]))
        assert "NaN" in cfg.read_text()
        assert cli_main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert "expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fractional_replicas_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, dict(BASE, replicas=2.7))
        assert cli_main(["lln", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert "replicas: expected an integer" in capsys.readouterr().err

    def test_negative_grid_time_exit_2(self, tmp_path, capsys, monkeypatch):
        # a negative grid time or seed is refused as the config is read,
        # before any farm is drawn; SeedSequence would raise on the seed
        self.refuse_farm(monkeypatch)
        cfg = self.write_cfg(tmp_path, dict(BASE, t_grid=[-1.0, 2.0]))
        assert cli_main(["lln", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert "grid times must be nonnegative" in capsys.readouterr().err
        for command in ("wlaw", "simulate"):
            for raw, flags in ((dict(BASE, seed=-1), []), (BASE, ["--seed", "-1"])):
                cfg = self.write_cfg(tmp_path, raw)
                assert cli_main([command, "--config", str(cfg), *flags,
                                 "--out", str(tmp_path / "out")]) == 2
                assert capsys.readouterr().err.startswith(
                    "config error: seed must be nonnegative")

    def test_config_not_an_object_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, [BASE])
        assert cli_main(["lln", "--config", str(cfg), "--seed", "3",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_farm_above_budget_exit_1_before_simulating(self, tmp_path, capsys,
                                                        monkeypatch):
        # 10^4 replicas to t = 30 expect 10^4 e^{15} ~ 3.3e10 particles
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch was simulated")

        monkeypatch.setattr("branching_ou.simulator._run_batch", no_batch)
        shipped = Path(__file__).resolve().parents[1] / "configs" / "oracle.json"
        cfg = self.write_cfg(tmp_path, dict(json.loads(shipped.read_text()),
                                            t_grid=[30.0]))
        assert cli_main(["lln", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("resource cap:")

    def test_kernel_dim_mismatch_exit_2_before_simulating(self, tmp_path, capsys,
                                                          monkeypatch):
        # so is a kernel with no slot, which lln would have reported on and
        # clt and oracle met with a traceback
        self.refuse_farm(monkeypatch)
        mismatched = {"arity": 2, "dim": 2, "symmetric": True,
                      "terms": [{"coef": 1.0,
                                 "slots": [[[0.0, 1.0], [0.0, 1.0]]] * 2}]}
        slotless = {"terms": [{"coef": 1.0, "slots": []}]}
        for kernel in (mismatched, slotless):
            raw = dict(BASE, kernel=kernel, replicas=50, t_grid=[3.0])
            cfg = self.write_cfg(tmp_path, raw)
            for command in ("lln", "clt", "oracle"):
                assert cli_main([command, "--config", str(cfg),
                                 "--out", str(tmp_path / "out")]) == 2
                assert capsys.readouterr().err.startswith("config error:")

    def test_lln_above_expansion_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        self.refuse_farm(monkeypatch)
        kernel = {"arity": 7, "dim": 1, "symmetric": True,
                  "terms": [{"coef": 1.0, "slots": [[[0.0, 1.0]]] * 7}]}
        raw = dict(BASE, kernel=kernel, replicas=20, t_grid=[3.0])
        cfg = self.write_cfg(tmp_path, raw)
        assert cli_main(["lln", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: arity 7")

    def test_lln_all_extinct_exit_2(self, tmp_path, capsys):
        # the first seed whose single replica is extinct by t = 4 (about a
        # third of them are)
        params = ModelParams(lam=1.0, p=0.75, mu=1.0, sigma=1.0)
        seed = next(s for s in range(50)
                    if simulate_farm(params, (4.0,), 1, s)[0].count == 0)
        raw = dict(BASE, replicas=1, seed=seed, t_grid=[4.0])
        cfg = self.write_cfg(tmp_path, raw)
        assert cli_main(["lln", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: every replica")

    def test_variance_large_linear_coefficient(self, tmp_path, capsys):
        # sigma_slow(a x) = a^2 s^2 (1 + 2 lam p / (2 mu - growth)) with
        # s^2 = 1/2, 2 lam p = 1.5, growth = 0.5
        kernel = {"arity": 1, "dim": 1, "symmetric": True,
                  "terms": [{"coef": 3.0, "slots": [[[0.0, 1.0]]]}]}
        cfg = self.write_cfg(tmp_path, dict(BASE, kernel=kernel))
        out = tmp_path / "out"
        assert cli_main(["variance", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "report_variance.jsonl").read_text().splitlines()
        value = json.loads(rows[1])["value"]
        assert value == pytest.approx(9.0 * 0.5 * (1.0 + 1.5 / 1.5), rel=1e-12)
