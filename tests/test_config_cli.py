"""Unit tests for config parsing/validation and the command-line front end."""

import csv
import json
from pathlib import Path

import pytest
import yaml

from horus.cli import main
from horus.config import config_to_dict, load_config, parse_config
from horus.errors import ConfigurationError

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

    def test_krum_feasibility_checked_at_parse(self):
        bad = dict(BASE, aggregator={"kind": "krum", "f": 3})
        with pytest.raises(ConfigurationError, match="krum"):
            parse_config(bad)

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

    def test_unknown_sweep_value_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"rounds": 2})
        assert main(["sweep", str(path), "--axis", "aggregator",
                     "--values", "bogus"]) == 2


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
