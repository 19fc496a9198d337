"""Unit tests for config parsing/validation and the command-line front end."""

import csv
import json
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from horus.aggregation import HorusConfig
from horus.attacks import AttackKind, PerturbationDirection
from horus.cli import DIAGNOSTIC_FIELDS, main
from horus.config import (
    AGGREGATOR_DEFAULTS,
    ClientTemplate,
    RunConfig,
    config_to_dict,
    load_config,
    parse_config,
)
from horus.detection import Percentile, TopM
from horus.errors import ConfigurationError
from horus.sim import Simulation

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(ROOT.glob("configs/*.yaml")) + sorted(
    ROOT.glob("bench/configs/*.yaml")
)

BASE = {
    "task": {"feature_dim": 8, "num_classes": 3, "samples_per_class": 30,
             "class_separation": 4.0, "noise_scale": 0.5,
             "dirichlet_alpha": 0.5, "signal_dim": 3, "seed": 1},
    "clients": [
        {"count": 2, "hidden_width": 6, "participation_rate": 1.0},
        {"count": 2, "hidden_width": 8, "participation_rate": 1.0},
    ],
    "aggregator": {"kind": "horus"},
    "detection": {"lambda": 0.5, "k": 2, "mode": {"top_m": 1}},
    "attack": {"kind": "none"},
    "rounds": 5,
    "lr": 0.1,
    "epochs": 1,
    "batch": 16,
    "rank": 2,
    "warmup_epochs": 2,
    "master_seed": 3,
}


# float keys and values each must reject
NOT_FINITE_OR_NEGATIVE = {
    "lr": [math.nan, math.inf, -math.inf],
    "warmup_lr": [-1.0, math.nan, math.inf],
    "task.class_separation": [math.nan, math.inf],
    "task.noise_scale": [math.nan, math.inf],
    "task.dirichlet_alpha": [math.nan, math.inf],
    "attack.z_override": [math.nan, math.inf, -math.inf],
}


def write_config(tmp_path, overrides=None, name="run.yaml"):
    data = json.loads(json.dumps(BASE))
    for key, val in (overrides or {}).items():
        if isinstance(val, dict) and isinstance(data.get(key), dict):
            data[key].update(val)
        else:
            data[key] = val
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


class TestParsing:
    def test_round_trip_identity(self):
        cfg = parse_config(BASE)
        again = parse_config(config_to_dict(cfg))
        assert cfg == again

    def test_unknown_top_level_key_rejected(self):
        bad = dict(BASE, banana=1)
        with pytest.raises(ConfigurationError, match="banana"):
            parse_config(bad)

    def test_unknown_keys_of_mixed_types_rejected(self):
        bad = dict(BASE, banana=1)
        bad[7] = 1
        with pytest.raises(ConfigurationError, match=r"\[7, 'banana'\]"):
            parse_config(bad)

    def test_unknown_nested_key_rejected_with_path(self):
        bad = json.loads(json.dumps(BASE))
        bad["detection"]["krum"] = 1
        with pytest.raises(ConfigurationError, match="detection"):
            parse_config(bad)

    def test_type_errors_carry_field_path(self):
        bad = json.loads(json.dumps(BASE))
        bad["attack"] = {"kind": "lie", "start_round": "soon",
                         "attacker_ids": [0]}
        with pytest.raises(ConfigurationError, match="start_round"):
            parse_config(bad)

    def test_attacker_ids_bounds_checked(self):
        bad = json.loads(json.dumps(BASE))
        bad["attack"] = {"kind": "lie", "start_round": 1, "attacker_ids": [99],
                         "z_override": 1.0}
        with pytest.raises(ConfigurationError, match="attacker_ids"):
            parse_config(bad)

    @pytest.mark.parametrize("count, attackers, knowledge", [
        (2, [0], "all"),  # s = 1, q = 0
        (3, [0, 1], "own"),  # s = 0
        (4, [0, 1, 2], "all"),  # s = 0
    ])
    def test_undefined_lie_z_rejected_at_parse(self, count, attackers, knowledge):
        data = dict(BASE, clients=[{"count": count, "hidden_width": 6}],
                    aggregator="fedavg")
        data["attack"] = {"kind": "lie", "attacker_ids": attackers,
                          "knowledge": knowledge}
        with pytest.raises(ConfigurationError, match="attack: z undefined"):
            parse_config(data)
        data["attack"]["z_override"] = 1.0
        assert parse_config(data).attack.z_override == 1.0

    @pytest.mark.parametrize("path", list(NOT_FINITE_OR_NEGATIVE))
    def test_non_finite_floats_rejected_at_parse(self, path):
        *section, key = path.split(".")
        for value in NOT_FINITE_OR_NEGATIVE[path]:
            data = json.loads(json.dumps(BASE))
            data["attack"] = {"kind": "lie", "attacker_ids": [0], "z_override": 1.0}
            (data[section[0]] if section else data)[key] = value
            with pytest.raises(ConfigurationError, match=key):
                parse_config(data)

    def test_krum_feasibility_checked_at_parse(self):
        bad = dict(BASE, aggregator={"kind": "krum", "f": 3})
        with pytest.raises(ConfigurationError, match="krum"):
            parse_config(bad)

    def test_more_clients_than_pool_samples_rejected(self):
        # 2 classes x 2 samples: 4 samples cannot give 6 clients one each
        tiny = dict(BASE["task"], num_classes=2, samples_per_class=2)
        clients = [{"count": 6, "hidden_width": 6, "participation_rate": 1.0}]
        with pytest.raises(ConfigurationError, match="6 clients"):
            parse_config(dict(BASE, task=tiny, clients=clients))
        cfg = parse_config(dict(BASE, task=tiny, clients=[dict(clients[0], count=4)]))
        assert cfg.num_clients == 4

    def test_aggregator_shorthand_gets_defaults(self):
        cfg = parse_config(dict(BASE, clients=[
            {"count": 10, "hidden_width": 6, "participation_rate": 1.0}
        ], aggregator="trimmed_mean"))
        assert cfg.aggregator.name == "trimmed_mean"
        assert cfg.aggregator.beta == 0.2

    def test_mode_requires_single_entry(self):
        bad = json.loads(json.dumps(BASE))
        bad["detection"]["mode"] = {"percentile": 95, "top_m": 2}
        with pytest.raises(ConfigurationError, match="mode"):
            parse_config(bad)

    def test_load_config_applies_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, seed_override=42, output_override="elsewhere")
        assert cfg.master_seed == 42
        assert cfg.output_dir == "elsewhere"

    def test_load_config_reports_yaml_errors(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("rounds: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="YAML"):
            load_config(path)

    def test_minimal_mapping_takes_every_default(self):
        clients = [{"count": 3, "hidden_width": 4}]
        assert parse_config({"clients": clients, "rounds": 1}) == RunConfig(
            clients=(ClientTemplate(3, 4),), rounds=1
        )

    @pytest.mark.parametrize("overrides, path", [
        ({"detection": {"mode": {"percentile": True}}},
         "config.detection.mode.percentile"),
        ({"detection": {"mode": {"top_m": True}}}, "config.detection.mode.top_m"),
        ({"attack": {"kind": "lie", "attacker_ids": [True]}},
         "config.attack.attacker_ids[0]"),
    ])
    def test_bools_rejected_as_numbers(self, overrides, path):
        with pytest.raises(ConfigurationError, match=re.escape(f"{path}: expected")):
            parse_config(dict(BASE, **overrides))

    @pytest.mark.parametrize("overrides, path", [
        ({"task": {"feature_dim": "x"}}, "config.task.feature_dim"),
        ({"attack": {"kind": "lie", "start_round": "soon", "attacker_ids": [0]}},
         "config.attack.start_round"),
        ({"aggregator": {"kind": "krum", "f": "x"}}, "config.aggregator.f"),
        ({"clients": [{"count": "a", "hidden_width": 6}]}, "config.clients[0].count"),
    ])
    def test_nested_error_names_its_path_once(self, overrides, path):
        with pytest.raises(ConfigurationError) as exc:
            parse_config(dict(BASE, **overrides))
        assert str(exc.value).startswith(f"{path}: expected ")

    @pytest.mark.parametrize("build", [
        lambda: Percentile(150),
        lambda: TopM(-1),
        lambda: HorusConfig(lam=2.0),
        lambda: HorusConfig(k=0),
    ], ids=["percentile-150", "top_m-negative", "lambda-2", "k-0"])
    def test_library_built_configs_validate_themselves(self, build):
        with pytest.raises(ConfigurationError):
            build()

    @pytest.mark.parametrize(
        "path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(ROOT))
    )
    def test_shipped_config_parses_and_round_trips(self, path):
        cfg = load_config(path)
        dumped = yaml.safe_dump(config_to_dict(cfg), sort_keys=True)
        assert parse_config(yaml.safe_load(dumped)) == cfg


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


# Every aggregator bare and as a mapping; case i also fixes the attack kind,
# direction and knowledge and the detection mode, so each value of each
# appears in some case.
AGGREGATOR_FORMS = sorted(AGGREGATOR_DEFAULTS) + [
    {"kind": name} for name in sorted(AGGREGATOR_DEFAULTS)
]


@st.composite
def config_mappings(draw, case):
    """Valid config mappings with optional keys present or absent."""
    template = st.fixed_dictionaries(
        {"count": st.integers(7, 9), "hidden_width": st.integers(1, 64)}
    )
    task = st.fixed_dictionaries({}, optional={
        "feature_dim": st.integers(8, 64),
        "class_separation": _floats(0.5, 5.0),
        "seed": st.integers(0, 2**31),
    })
    form = AGGREGATOR_FORMS[case]
    aggregator = st.just(form) if isinstance(form, str) else st.fixed_dictionaries(
        {"kind": st.just(form["kind"])},
        optional={"f": st.integers(0, 2), "m": st.integers(1, 4),
                  "beta": _floats(0.0, 0.45)},
    )
    mode = (st.builds(lambda p: {"percentile": p}, _floats(0, 100) | st.integers(0, 100))
            if case % 2 else st.builds(lambda m: {"top_m": m}, st.integers(0, 6)))
    detection = st.fixed_dictionaries({"mode": mode}, optional={
        "lambda": _floats(0.0, 1.0), "k": st.integers(1, 8),
        "source": st.sampled_from(["a", "b"]),
    })
    attack = st.fixed_dictionaries({
        "kind": st.just(list(AttackKind)[case % len(AttackKind)].value),
        "attacker_ids": st.lists(st.integers(0, 6), min_size=1, max_size=3,
                                 unique=True),
        "direction": st.just(list(PerturbationDirection)[case % 2].value),
        "knowledge": st.just(("own", "all")[case // 6]),
    }, optional={"start_round": st.integers(1, 50)})
    data = draw(st.fixed_dictionaries({
        "clients": st.lists(template, min_size=1, max_size=2),
        "rounds": st.integers(1, 100),
        "task": task, "aggregator": aggregator, "detection": detection,
        "attack": attack,
    }, optional={
        "lr": _floats(0.0, 1.0), "rank": st.integers(1, 16),
        "workers": st.integers(0, 4),
        "output_dir": st.text("abc/", min_size=1, max_size=8),
    }))
    # keys that may be null are left out, null or set by case, so that
    # every case sees each key in a different one of the three states
    for i, (mapping, key, value) in enumerate([
        (data, "warmup_lr", _floats(0.05, 1.0)),
        (data["clients"][0], "participation_rate", _floats(0.05, 1.0)),
        (data["attack"], "z_override", _floats(0.1, 3.0)),
        (data["task"], "signal_dim", st.integers(1, 8)),
    ]):
        state = (case + i) % 3
        if state:
            mapping[key] = None if state == 1 else draw(value)
    return data


@pytest.mark.parametrize("case", range(len(AGGREGATOR_FORMS)))
def test_config_round_trips_through_yaml(case):
    @settings(max_examples=3, derandomize=True, deadline=None)
    @given(config_mappings(case))
    def round_trip(data):
        cfg = parse_config(data)
        written = config_to_dict(cfg)
        assert parse_config(yaml.safe_load(yaml.safe_dump(written))) == cfg
        # only a None whose default is None is left out
        assert ("warmup_lr" in written) == (data.get("warmup_lr") is not None)
        assert "signal_dim" in written["task"]
        assert [("participation_rate" in t) for t in written["clients"]] == [
            t.get("participation_rate") is not None for t in data["clients"]
        ]

    round_trip()


class TestCliRun:
    def test_smoke_run_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"output_dir": str(out)})
        assert main(["run", str(path)]) == 0
        rounds = (out / "rounds.jsonl").read_text().splitlines()
        assert len(rounds) == 5
        records = [json.loads(line) for line in rounds]
        assert [r["round"] for r in records] == [1, 2, 3, 4, 5]
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["final10_global_accuracy"]) > 0
        assert (out / "detection.jsonl").exists()
        assert (out / "config.yaml").exists()

    def test_krum_with_undershooting_participation_runs_to_the_end(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {
            "output_dir": str(out), "rounds": 6,
            "aggregator": {"kind": "krum", "f": 2},
            "clients": [{"count": 4, "hidden_width": 6, "participation_rate": 0.5},
                        {"count": 4, "hidden_width": 8, "participation_rate": 0.5}],
        })
        assert main(["run", str(path)]) == 0
        records = [json.loads(line)
                   for line in (out / "rounds.jsonl").read_text().splitlines()]
        assert [r["round"] for r in records] == [1, 2, 3, 4, 5, 6]
        # krum with f=2 needs at least 7 participants
        flags = [r["aggregation_skipped"] for r in records]
        assert flags == [len(r["participants"]) < 7 for r in records]
        assert any(flags)

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"output_dir": str(out)})
        assert main(["run", str(path)]) == 0
        first = (out / "rounds.jsonl").read_bytes()
        assert main(["run", str(path)]) == 0
        assert (out / "rounds.jsonl").read_bytes() == first

    def test_detection_records_schema(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"output_dir": str(out)})
        main(["run", str(path)])
        lines = (out / "detection.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        assert set(rec) == {"round", "client_id", "h", "r_k", "sub", "score",
                            "theta", "flagged"}
        assert set(rec["h"]) == {"feature_first", "classifier"}

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"rounds": "many"})
        assert main(["run", str(path)]) == 2
        assert "rounds" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2

    def test_runtime_invariant_exits_3(self, tmp_path, monkeypatch):
        from horus import cli as cli_mod
        from horus.errors import SimulationError

        def boom(cfg, out_dir, diagnostics=False):
            raise SimulationError("backbone changed")

        monkeypatch.setattr(cli_mod, "execute_run", boom)
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 3

    def test_seed_override_changes_trace(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        path = write_config(tmp_path)
        main(["run", str(path), "--seed", "1", "--output-dir", str(out1)])
        main(["run", str(path), "--seed", "2", "--output-dir", str(out2)])
        assert (out1 / "rounds.jsonl").read_bytes() != (out2 / "rounds.jsonl").read_bytes()


class TestCliSweep:
    def test_lambda_sweep_structure(self, tmp_path):
        out = tmp_path / "sweep"
        path = write_config(tmp_path, {"output_dir": str(out), "rounds": 2})
        assert main(["sweep", str(path), "--axis", "lambda",
                     "--values", "0.3,0.5,0.7"]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["0.3", "0.5", "0.7"]
        for val in ("0.3", "0.5", "0.7"):
            assert (out / f"lambda_{val}" / "rounds.jsonl").exists()

    def test_rank_sweep_payload_increases(self, tmp_path):
        out = tmp_path / "sweep"
        path = write_config(tmp_path, {"output_dir": str(out), "rounds": 2})
        assert main(["sweep", str(path), "--axis", "rank",
                     "--values", "2,4,8"]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        payloads = [int(r["total_payload_bytes"]) for r in rows]
        assert payloads[0] < payloads[1] < payloads[2]

    def test_aggregator_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        path = write_config(tmp_path, {
            "output_dir": str(out), "rounds": 2,
            "clients": [{"count": 10, "hidden_width": 6,
                         "participation_rate": 1.0}],
        })
        assert main(["sweep", str(path), "--axis", "aggregator",
                     "--values", "fedavg,median,krum"]) == 0
        with open(out / "sweep.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 3

    @pytest.mark.parametrize(
        "axis, value", [("aggregator", "bogus"), ("rank", "abc"), ("lambda", "x")]
    )
    def test_unknown_sweep_value_exits_2(self, tmp_path, capsys, axis, value):
        path = write_config(tmp_path, {"rounds": 2})
        assert main(["sweep", str(path), "--axis", axis, "--values", value]) == 2
        assert repr(value) in capsys.readouterr().err


class TestCliDiagnose:
    def test_diagnostics_csv_schema(self, tmp_path):
        out = tmp_path / "diag"
        path = write_config(tmp_path, {"output_dir": str(out), "rounds": 2})
        assert main(["diagnose", str(path)]) == 0
        with open(out / "diagnostics.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["round", "client_id", "arch_id", "layer", "matrix",
                          "topk_ratio", "flagged"]
        assert len(header) == 7
        assert len(rows) == 2 * 4 * 2 * 2  # rounds x clients x layers x matrices

    @pytest.mark.parametrize("aggregator", ["horus", "fedavg"])
    def test_diagnostics_csv_matches_in_process_run(self, tmp_path, aggregator):
        # horus reads the rows from its own decompositions; fedavg
        # decomposes for them. Adapters keep rank r/2 = 2 > k, so the
        # ratios are not all 1.
        out = tmp_path / "diag"
        path = write_config(tmp_path, {"output_dir": str(out), "rank": 4,
                                       "detection": {"k": 1},
                                       "aggregator": {"kind": aggregator}})
        assert main(["diagnose", str(path)]) == 0
        with open(out / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        want = [d for r in Simulation(load_config(path), diagnostics=True).run()
                for d in r.diagnostics]
        assert len(rows) == len(want) == 5 * 4 * 2 * 2
        assert any(d.flagged for d in want) == (aggregator == "horus")
        assert len({d.topk_ratio for d in want}) > len(want) // 2
        for row, d in zip(rows, want):
            assert row == {f: str(getattr(d, f)) for f in DIAGNOSTIC_FIELDS}
            assert float(row["topk_ratio"]) == d.topk_ratio
