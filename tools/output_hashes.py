"""sha256 of the output files of the reference runs, to check that a change
keeps every output bit.

Runs ``horus run`` (and ``horus diagnose`` on the LIE scenario) on the
configurations of the hash list, each in a fresh temporary directory with
``OPENBLAS_NUM_THREADS=1``, and prints one ``<sha256>  <run> <file>`` line
per output file. ``config.yaml`` is left out, because it records the
temporary output directory.

    python3 tools/output_hashes.py > hashes.txt
    python3 tools/output_hashes.py --expect tools/output_hashes.txt

With ``--expect`` the digests are compared with a list saved in that format;
the exit status is 1 if any line differs, is missing or is new.
``tools/output_hashes.txt`` is the list for numpy 2.4 with OpenBLAS 0.3.31
on x86-64; another BLAS build may round differently.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent

# (run name, horus command, config path relative to the repo, detection overrides)
RUNS = (
    ("lie_attack", "run", "configs/lie_attack.yaml", None),
    ("lie_attack-diagnose", "diagnose", "configs/lie_attack.yaml", None),
    ("benign", "run", "configs/benign.yaml", None),
    ("crowd", "run", "bench/configs/crowd.yaml", None),
    ("baselines-krum", "run", "bench/configs/baselines-krum.yaml", None),
    ("baselines-median", "run", "bench/configs/baselines-median.yaml", None),
    ("baselines-trimmed_mean", "run", "bench/configs/baselines-trimmed_mean.yaml", None),
    ("lie_attack-source_b", "run", "configs/lie_attack.yaml", {"source": "b"}),
)


def _run(name: str, command: str, config: str, detection: dict | None,
         tmp: Path) -> list[str]:
    out = tmp / name
    path = ROOT / config
    if detection is not None:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
        data["detection"].update(detection)
        path = tmp / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "horus.cli", command, str(path), "--output-dir", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{name}: horus {command} exited {proc.returncode}\n{proc.stderr}")
    return [
        f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {name} {f.name}"
        for f in sorted(out.iterdir()) if f.name != "config.yaml"
    ]


def _parse(lines) -> dict[str, str]:
    entries = (line.split(maxsplit=1) for line in lines if line.strip())
    return {label: digest for digest, label in entries}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--expect", type=Path, default=None,
                    help="saved list to compare with; exit 1 on any difference")
    args = ap.parse_args(argv)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in RUNS:
            for line in _run(*run, Path(tmp)):
                print(line, flush=True)
                lines.append(line)
    if args.expect is None:
        return 0
    got = _parse(lines)
    want = _parse(args.expect.read_text(encoding="utf-8").splitlines())
    bad = sorted(label for label in want.keys() | got.keys()
                 if want.get(label) != got.get(label))
    for label in bad:
        print(f"MISMATCH {label}: expected {want.get(label)}, got {got.get(label)}",
              file=sys.stderr)
    print(f"{len(got) - len(bad)} of {len(want.keys() | got.keys())} digests match",
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
