"""Command-line front end: run experiments, sweep hyperparameters, emit logs.

Every output file is built in memory and atomically renamed into place, so a
re-run either fully replaces a file or leaves the previous one intact.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

import yaml

from .config import RunConfig, config_to_dict, load_config, parse_config
from .errors import ConfigurationError, SimulationError
from .lora import LayerId
from .sim import DiagnosticRow, RoundResult, Simulation, finite_or_none

__all__ = [
    "SUMMARY_FIELDS", "DIAGNOSTIC_FIELDS", "summarize", "execute_run", "cmd_sweep",
    "main",
]

log = logging.getLogger(__name__)

SUMMARY_FIELDS = [
    "final10_global_accuracy",
    "final10_local_accuracy",
    "attack_precision",
    "attack_recall",
    "attack_fpr",
    "total_payload_bytes",
]

DIAGNOSTIC_FIELDS = [f.name for f in dataclasses.fields(DiagnosticRow)]


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def _csv_text(header: list[str], rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def summarize(cfg: RunConfig, results: list[RoundResult]) -> dict:
    """Final-10-round accuracy means, detection means over attack rounds, and
    the total upload payload."""
    tail = results[-10:]
    attack_rounds = [r for r in results if cfg.attack.active(r.metrics.round)]

    def mean(vals):
        return float(sum(vals) / len(vals)) if vals else 0.0

    return {
        "final10_global_accuracy": mean([r.metrics.global_accuracy for r in tail]),
        "final10_local_accuracy": mean([r.metrics.mean_local_accuracy for r in tail]),
        "attack_precision": mean([r.metrics.precision for r in attack_rounds]),
        "attack_recall": mean([r.metrics.recall for r in attack_rounds]),
        "attack_fpr": mean([r.metrics.fpr for r in attack_rounds]),
        "total_payload_bytes": sum(r.metrics.payload_bytes for r in results),
    }


def _detection_records(results: list[RoundResult]) -> list[dict]:
    records = []
    for r in results:
        det = r.outcome.detection if r.outcome else None
        if det is None:
            continue
        theta = finite_or_none(det.threshold_theta)
        for cid in sorted(det.scores):
            score = det.scores[cid]
            f = r.outcome.features[cid]
            records.append({
                "round": r.metrics.round,
                "client_id": cid,
                "h": {lid.value: f[lid].entropy_h for lid in LayerId},
                "r_k": {lid.value: f[lid].ratio_rk for lid in LayerId},
                "sub": {lid.value: score.per_layer[lid] for lid in LayerId},
                "score": score.score,
                "theta": theta,
                "flagged": cid in det.flagged,
            })
    return records


def execute_run(cfg: RunConfig, out_dir: Path, diagnostics: bool = False) -> dict:
    """Run the full simulation and write this run's output files."""
    sim = Simulation(cfg, diagnostics=diagnostics)
    results = sim.run()

    _atomic_write(out_dir / "config.yaml",
                  yaml.safe_dump(config_to_dict(cfg), sort_keys=True))
    _atomic_write(out_dir / "rounds.jsonl",
                  _jsonl([r.metrics.to_record() for r in results]))
    _atomic_write(out_dir / "detection.jsonl", _jsonl(_detection_records(results)))
    summary = summarize(cfg, results)
    _atomic_write(
        out_dir / "summary.csv",
        _csv_text(SUMMARY_FIELDS, [[summary[k] for k in SUMMARY_FIELDS]]),
    )
    if diagnostics:
        rows = [dataclasses.astuple(d) for r in results for d in r.diagnostics]
        _atomic_write(out_dir / "diagnostics.csv",
                      _csv_text(DIAGNOSTIC_FIELDS, rows))
    log.info(
        "run complete: %d rounds, final-10 global accuracy %.4f",
        cfg.rounds, summary["final10_global_accuracy"],
    )
    return summary


def _cell_config(cfg: RunConfig, axis: str, raw: str, cell_dir: Path) -> RunConfig:
    """One sweep cell: ``cfg`` re-parsed with the axis key set to ``raw``
    (a bare aggregator name gets its default parameters) and the output
    directory set to ``cell_dir``."""
    data = config_to_dict(cfg)
    data["output_dir"] = str(cell_dir)
    if axis == "aggregator":
        data["aggregator"] = raw
    elif axis in ("lambda", "rank"):
        try:
            value = float(raw) if axis == "lambda" else int(raw)
        except ValueError:
            raise ConfigurationError(f"sweep value {raw!r} is not a valid {axis}") from None
        if axis == "lambda":
            data["detection"]["lambda"] = value
        else:
            data["rank"] = value
    else:
        raise ConfigurationError(f"unknown sweep axis {axis!r}")
    return parse_config(data)


def cmd_sweep(cfg: RunConfig, axis: str, values: list[str]) -> int:
    """One full run per value in its own sub-directory, joined in sweep.csv.

    A failing cell aborts the sweep; completed cells and the partial
    sweep.csv stay on disk.
    """
    base = Path(cfg.output_dir)
    header = ["axis", "value"] + SUMMARY_FIELDS
    rows: list[list] = []
    for raw in values:
        cell_dir = base / f"{axis}_{raw}"
        cell_cfg = _cell_config(cfg, axis, raw, cell_dir)
        log.info("sweep cell %s=%s -> %s", axis, raw, cell_dir)
        try:
            summary = execute_run(cell_cfg, cell_dir)
        except Exception:
            _atomic_write(base / "sweep.csv", _csv_text(header, rows))
            log.error("sweep cell %s=%s failed; partial results kept", axis, raw)
            raise
        rows.append([axis, raw] + [summary[k] for k in SUMMARY_FIELDS])
        _atomic_write(base / "sweep.csv", _csv_text(header, rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horus",
        description="Robust federated learning on low-rank adapter updates: "
                    "deterministic simulator, detection, and baselines.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute one experiment from a config file"),
        ("sweep", "run one experiment per value of a hyperparameter"),
        ("diagnose", "run and additionally log per-client A/B energy ratios"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the YAML run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override master_seed")
        p.add_argument("--output-dir", default=None,
                       help="override output_dir")
        if name == "sweep":
            p.add_argument("--axis", required=True,
                           choices=["lambda", "rank", "aggregator"])
            p.add_argument("--values", required=True,
                           help="comma-separated list of axis values")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(
            args.config,
            seed_override=args.seed,
            output_override=getattr(args, "output_dir", None),
        )
    except (ConfigurationError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command in ("run", "diagnose"):
            execute_run(cfg, Path(cfg.output_dir),
                        diagnostics=args.command == "diagnose")
            return 0
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        if not values:
            print("sweep: --values must list at least one value", file=sys.stderr)
            return 2
        return cmd_sweep(cfg, args.axis, values)
    except ConfigurationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"runtime invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
