"""Per-call times of the training, measuring and server kernels at the
benchmark's shapes.

Prints one JSON line: the best-of-``--repeat`` time in µs per call of

* ``local_train`` at the ``reference`` shape: 3 epochs over 2,560 rows in
  batches of 256, hidden width 32 and 48;
* ``local_train`` at the ``crowd`` shape: one epoch over 107 rows (one
  step), hidden width 32, 48 and 64;
* ``local_train`` at the ``baselines`` shape: one epoch over 320 rows (a
  batch of 256 and one of 64), hidden width 32, 48 and 64;
* ``_backprop`` alone on one batch of 256 rows, at each of those widths;
* ``certify`` at the ``crowd`` shapes: one model's first full float32 pass
  over the 2,000-row global test set at hidden width 32, 48 and 64, and
  the carry of a 75-model group of width 48 (about one width's
  participants) whose shared B factors moved by 1e-3 of their scale;
* ``decompose_many`` of a round's 4 n adapter factors, ``pad_round`` of its
  n submissions, ``projection_weights`` of their decompositions, and
  ``krum_select`` (f = 2) and ``masked_mean`` of its padded (n, P) matrix,
  for n = 10, 100 and 300 clients whose widths cycle through 32, 48 and 64.

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
from horus.aggregation import krum_select, masked_mean, projection_weights
from horus.detection import decompose_round
from horus.lora import ClientUpdate, GlobalState, LayerDims, LayerId, LoraPair, pad_round
from horus.spectral import decompose_many

D, C, RANK, BATCH = 64, 10, 8, 256
WIDTHS = (32, 48, 64)


def _pairs(h: int, rng: np.random.Generator) -> tuple[LoraPair, ...]:
    """Adapter pairs of width ``h`` in ``LayerId`` order."""
    return (LoraPair._trusted(0.05 * rng.normal(size=(RANK, D)),
                              0.05 * rng.normal(size=(h, RANK))),
            LoraPair._trusted(0.05 * rng.normal(size=(RANK, h)),
                              0.05 * rng.normal(size=(C, RANK))))


def _setup(h: int, rows: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    model = sim.new_model(0, 0, D, C, h, rng)
    pairs = dict(zip(LayerId, _pairs(h, rng)))
    shard = sim.Dataset(rng.normal(size=(rows, D)), rng.integers(0, C, size=rows))
    return model, pairs, shard


def _best_us(call, repeat: int, number: int) -> float:
    return 1e6 * min(timeit.repeat(call, repeat=repeat, number=number)) / number


def time_local_train(h: int, rows: int, epochs: int, repeat: int, number: int) -> float:
    model, pairs, shard = _setup(h, rows)

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


def _global_test() -> sim.Dataset:
    """The ``crowd`` task's 2,000-row global test set."""
    _, test = sim.generate_task(sim.TaskConfig(feature_dim=D, num_classes=C,
                                               samples_per_class=1000))
    return test


def _stack(models, pairs):
    """The models' effective weights under the shared ``pairs``, as
    ``Simulation._measure_group`` stacks them, and their norms."""
    w1, w2 = np.stack([m.w1 for m in models]), np.stack([m.w2 for m in models])
    w1 += pairs[0].delta
    w2 += pairs[1].delta
    return (w1, w2), sim._layer_norms(w1, w2)


def time_certify_full(h: int, test, cast, repeat: int, number: int) -> float:
    rng = np.random.default_rng(h)
    weights, norms = _stack([sim.new_model(0, 0, D, C, h, rng)], _pairs(h, rng))
    nan = np.array([np.nan])

    def call():
        sim.certify(weights, norms, test, cast, [None], nan)

    return _best_us(call, repeat, number)


def time_certify_carry(h: int, g: int, test, cast, repeat: int,
                       number: int) -> tuple[float, dict[str, int]]:
    """µs per carry of ``g`` models, and how many it carried and the rows
    those recomputed."""
    rng = np.random.default_rng(h)
    models = [sim.new_model(i, 0, D, C, h, rng) for i in range(g)]
    old = _pairs(h, rng)
    new = tuple(LoraPair._trusted(p.a, p.b + 1e-3 * 0.05 * rng.normal(size=p.b.shape))
                for p in old)
    weights, norms = _stack(models, old)
    priors = sim.certify(weights, norms, test, cast, [None] * g, np.full(g, np.nan))
    weights, new_norms = _stack(models, new)
    drift = sim._drift_bound(D, h, (norms.f, norms.m), (new_norms.f, new_norms.m),
                             sim.delta_moves(old, new))
    certs = sim.certify(weights, new_norms, test, cast, priors, drift)

    def call():
        sim.certify(weights, new_norms, test, cast, priors, drift)

    rows = [c.recomputed for c in certs if c.recomputed is not None]
    return _best_us(call, repeat, number), {"carried": len(rows), "recomputed": sum(rows)}


def _round(n: int) -> list[ClientUpdate]:
    rng = np.random.default_rng(n)
    return [ClientUpdate(dict(zip(LayerId, _pairs(WIDTHS[i % 3], rng)))) for i in range(n)]


def time_server_kernels(n: int, repeat: int) -> dict[str, float]:
    updates = _round(n)
    state = GlobalState.zeros({LayerId.FEATURE_FIRST: LayerDims(D, max(WIDTHS)),
                               LayerId.CLASSIFIER: LayerDims(max(WIDTHS), C)}, RANK)
    rng = np.random.default_rng(n)
    for layer in state.layers.values():  # tracked directions, as after round 1
        layer.v_a, layer.v_b = rng.normal(size=layer.a.shape[1]), rng.normal(size=RANK)
    values, masks = pad_round(updates, state)
    factors = [getattr(u.layers[lid], f) for u in updates for lid in LayerId for f in "ab"]
    decompositions = list(decompose_round(dict(enumerate(updates))).values())
    ones, previous = np.ones((n, 1)), np.zeros(values.shape[1])
    number = max(1, 1000 // n)
    return {
        f"decompose_many n={n}": _best_us(lambda: decompose_many(factors), repeat, number),
        f"pad_round n={n}": _best_us(lambda: pad_round(updates, state), repeat, 10 * number),
        f"projection_weights n={n}": _best_us(
            lambda: projection_weights(decompositions, state), repeat, 10 * number),
        f"krum_select n={n}": _best_us(lambda: krum_select(values, masks, 2), repeat, number),
        f"masked_mean n={n}": _best_us(lambda: masked_mean(values, masks, ones, previous),
                                       repeat, 10 * number),
    }


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
        us[f"local_train baselines h={h}"] = time_local_train(h, 320, 1, args.repeat, 200)
    for h in (32, 48, 64):
        us[f"_backprop n={BATCH} h={h}"] = time_backprop(h, args.repeat, 500)
    test = _global_test()
    cast = sim.float32_copy(test)
    for h in WIDTHS:
        us[f"certify full pass h={h}"] = time_certify_full(h, test, cast, args.repeat, 50)
    us["certify carry g=75 h=48"], carry = time_certify_carry(48, 75, test, cast,
                                                             args.repeat, 10)
    for n in (10, 100, 300):
        us.update(time_server_kernels(n, args.repeat))
    print(json.dumps({
        "unit": "us per call, best of repeats",
        "repeat": args.repeat,
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src": str(Path(sim.__file__).resolve().parent),
        "certify carry g=75 h=48": carry,
        "us": {k: round(v, 2) for k, v in us.items()},
    }))


if __name__ == "__main__":
    main()
