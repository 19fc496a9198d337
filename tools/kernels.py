"""Per-call times of the training kernels at the benchmark's shapes.

Prints one JSON line: the best-of-``--repeat`` time in µs per call of

* ``local_train`` at the ``reference`` shape: 3 epochs over 2,560 rows in
  batches of 256, hidden width 32 and 48;
* ``local_train`` at the ``crowd`` shape: one epoch over 107 rows (one
  step), hidden width 32, 48 and 64;
* ``_backprop`` alone on one batch of 256 rows, at each of those widths.

Every shape has 64 features, 10 classes and rank-8 adapters. Each
``local_train`` call starts from the same pairs and the same RNG state: as
in a round, where every client of one width trains from the same broadcast
pairs, the pairs' delta is formed by the first call only. BLAS runs on one
thread, as in the benchmark. Run from the root of a checkout:

    python3 tools/kernels.py
    PYTHONPATH=../other/src python3 tools/kernels.py  # another checkout's code
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import timeit
from pathlib import Path

# after PYTHONPATH, so that another checkout's code can be timed
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from horus import sim
from horus.lora import LayerId, LoraPair

D, C, RANK, BATCH = 64, 10, 8, 256


def _setup(h: int, rows: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    model = sim.new_model(0, 0, D, C, h, rng)
    init = {LayerId.FEATURE_FIRST: (0.05 * rng.normal(size=(RANK, D)),
                                    0.05 * rng.normal(size=(h, RANK))),
            LayerId.CLASSIFIER: (0.05 * rng.normal(size=(RANK, h)),
                                 0.05 * rng.normal(size=(C, RANK)))}
    shard = sim.Dataset(rng.normal(size=(rows, D)), rng.integers(0, C, size=rows))
    return model, init, shard


def _best_us(call, repeat: int, number: int) -> float:
    return 1e6 * min(timeit.repeat(call, repeat=repeat, number=number)) / number


def time_local_train(h: int, rows: int, epochs: int, repeat: int, number: int) -> float:
    model, init, shard = _setup(h, rows)
    pairs = {lid: LoraPair._trusted(a, b) for lid, (a, b) in init.items()}

    def call():
        model.lora = dict(pairs)
        sim.local_train(model, shard, epochs, 0.3, BATCH, np.random.default_rng(1))

    return _best_us(call, repeat, number)


def time_backprop(h: int, repeat: int, number: int) -> float:
    model, _, shard = _setup(h, BATCH)
    x, y = shard

    def call():
        sim._backprop(model.w1, model.w2, x, y)

    return _best_us(call, repeat, number)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="timed repeats (best is kept)")
    args = ap.parse_args(argv)
    us = {}
    for h in (32, 48):
        us[f"local_train reference h={h}"] = time_local_train(h, 2560, 3, args.repeat, 20)
    for h in (32, 48, 64):
        us[f"local_train crowd h={h}"] = time_local_train(h, 107, 1, args.repeat, 500)
    for h in (32, 48, 64):
        us[f"_backprop n={BATCH} h={h}"] = time_backprop(h, args.repeat, 500)
    print(json.dumps({
        "unit": "us per call, best of repeats",
        "repeat": args.repeat,
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src": str(Path(sim.__file__).resolve().parent),
        "us": {k: round(v, 2) for k, v in us.items()},
    }))


if __name__ == "__main__":
    main()
