"""Correctness checks on one round of a horus simulation.

Each check recomputes a result from the inputs the program was handed (the
updates passed to the server step, the knowledge passed to the attack) with
code of its own, and compares it with what the program produced. Nothing
here calls a horus function; only the simulation's public attributes
(``models``, ``state``, ``cfg``) and the captured call arguments are read.
The checks run outside every timed interval.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
from statistics import NormalDist

import numpy as np

import horus.attacks
import horus.sim

# Relative tolerance for recomputed floating-point results: sums taken in a
# different order differ in the last digits, never by this much.
REL_TOL = 1e-9

# Calls whose arguments and results the checks read, at the names their
# caller looks up: (module, attribute, tag).
CAPTURED = (
    (horus.sim, "horus_aggregate", "horus"),
    (horus.sim, "baseline_aggregate", "baseline"),
    (horus.attacks, "craft_malicious_vectors", "craft"),
)


@contextlib.contextmanager
def capturing(calls: list):
    """Append (tag, bound arguments, result) to ``calls`` for each captured call."""
    undo = []

    def wrap(fn, tag):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((tag, sig.bind(*args, **kwargs).arguments, out))
            return out

        return captured

    try:
        for owner, attr, tag in CAPTURED:
            orig = getattr(owner, attr)
            undo.append((owner, attr, orig))
            setattr(owner, attr, wrap(orig, tag))
        yield calls
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# --- layout helpers -------------------------------------------------------


def _global_blocks(state):
    """(layer, factor, global matrix) in a fixed order of this module's own."""
    return [
        (lid, f, getattr(layer, f))
        for lid, layer in state.layers.items()
        for f in ("a", "b")
    ]


def _flat_state(state) -> np.ndarray:
    return np.concatenate([m.ravel() for _, _, m in _global_blocks(state)])


def _padded(updates, cids, state) -> tuple[np.ndarray, np.ndarray]:
    """Values (n, P) and coverage (n, P) of the clients' matrices, each
    placed top-left in the global matrix of its layer and factor."""
    vals, cover = [], []
    for lid, f, g in _global_blocks(state):
        v = np.zeros((len(cids),) + g.shape)
        c = np.zeros((len(cids),) + g.shape, dtype=bool)
        for i, cid in enumerate(cids):
            m = getattr(updates[cid].layers[lid], f)
            v[i, : m.shape[0], : m.shape[1]] = m
            c[i, : m.shape[0], : m.shape[1]] = True
        vals.append(v.reshape(len(cids), -1))
        cover.append(c.reshape(len(cids), -1))
    return np.concatenate(vals, axis=1), np.concatenate(cover, axis=1)


def _unflatten_program_layout(vec, state):
    """Global-shape (A, B) per layer from a flat attack vector, in the layout
    ``horus.lora.flatten_padded`` documents: every layer's A, then every B."""
    out, offset = {}, 0
    for f in ("a", "b"):
        for lid, layer in state.layers.items():
            shape = getattr(layer, f).shape
            n = shape[0] * shape[1]
            out[(lid, f)] = vec[offset : offset + n].reshape(shape)
            offset += n
    return out


def _scale(x) -> float:
    return max(1.0, float(np.max(np.abs(x)))) if np.size(x) else 1.0


# --- the checks -----------------------------------------------------------


def check_payload(metrics, updates, models) -> list[str]:
    """payload_bytes is 8 bytes per submitted entry, and every submission has
    its client's local shapes."""
    problems = []
    entries = 0
    for cid, u in updates.items():
        h, d = models[cid].w1.shape
        c = models[cid].w2.shape[0]
        pairs = list(u.layers.values())
        r = pairs[0].a.shape[0]
        shapes = [(p.a.shape, p.b.shape) for p in pairs]
        if shapes != [((r, d), (h, r)), ((r, h), (c, r))]:
            problems.append(f"client {cid}: submitted shapes {shapes}")
        entries += sum(p.a.size + p.b.size for p in pairs)
    if metrics.payload_bytes != 8 * entries:
        problems.append(
            f"payload_bytes {metrics.payload_bytes} != 8 x {entries} entries"
        )
    return problems


def _spectral_features(a: np.ndarray, k: int) -> tuple[float, float]:
    """(entropy, top-k energy ratio) of a matrix's singular values."""
    s = np.linalg.svd(a, compute_uv=False)
    total = float(s.sum())
    if total <= 0.0:
        return 0.0, 1.0
    p = s / total
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum()), float(s[: min(k, len(s))].sum() / total)


def _linear_percentile(xs, q: float) -> float:
    xs = sorted(xs)
    rank = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(rank), math.ceil(rank)
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def check_detection(updates, hcfg, detection) -> list[str]:
    """Recompute each A's spectrum, the HOPS scores and the flag rule."""
    cids = sorted(updates)
    if len(cids) < 2:
        return [] if not detection.flagged else ["flags without round statistics"]
    lam, k = hcfg.lam, hcfg.k
    source = hcfg.source.value
    subs = np.zeros((len(cids), 0))
    for lid in updates[cids[0]].layers:
        feats = [
            _spectral_features(getattr(updates[c].layers[lid], source), k)
            for c in cids
        ]
        ent = np.array([h for h, _ in feats])
        dev = np.array([1.0 - r for _, r in feats])
        sigma = ent.std()
        ent_term = (
            np.abs(ent - ent.mean()) / sigma if sigma > 1e-12 else np.zeros_like(ent)
        )
        sub = lam * np.abs(dev - dev.mean()) + (1.0 - lam) * ent_term
        subs = np.column_stack([subs, sub])
    scores = dict(zip(cids, subs.mean(axis=1).tolist()))

    problems = []
    for c in cids:
        got = detection.scores[c].score
        if abs(got - scores[c]) > REL_TOL * max(1.0, abs(scores[c])):
            problems.append(f"client {c}: score {got!r} != recomputed {scores[c]!r}")
    mode = detection.mode
    if hasattr(mode, "m"):
        ordered = sorted(cids, key=lambda c: (-scores[c], c))
        m = min(mode.m, len(ordered))
        expected = set(ordered[:m])
        boundary = scores[ordered[m]] if m < len(ordered) else -math.inf
    else:
        boundary = _linear_percentile(scores.values(), mode.p)
        expected = {c for c in cids if scores[c] > boundary}
    # a client whose score ties the boundary to within rounding may go either way
    disputed = {
        c for c in set(detection.flagged) ^ expected
        if not (math.isfinite(boundary)
                and abs(scores[c] - boundary) <= REL_TOL * max(1.0, abs(boundary)))
    }
    if disputed:
        problems.append(
            f"flagged {sorted(detection.flagged)} but the rule flags {sorted(expected)}"
        )
    return problems


def check_kept_where_uncovered(new, prev, cover, what: str) -> list[str]:
    uncovered = ~cover.any(axis=0)
    if np.array_equal(new[uncovered], prev[uncovered]):
        return []
    return [f"{what}: {int(uncovered.sum())} uncovered entries changed"]


def check_horus_aggregate(updates, prev_state, new_state, detection, skipped) -> list[str]:
    """Each entry covered by an unflagged client lies within their [min, max]
    there; an entry covered by none keeps its previous value."""
    prev = _flat_state(prev_state)
    new = _flat_state(new_state)
    benign = sorted(set(updates) - set(detection.flagged))
    if not benign or skipped:
        if benign:
            return ["round skipped although some clients were not flagged"]
        return [] if np.array_equal(new, prev) else ["state changed in a skipped round"]
    vals, cover = _padded(updates, benign, prev_state)
    lo = np.where(cover, vals, np.inf).min(axis=0)
    hi = np.where(cover, vals, -np.inf).max(axis=0)
    covered = cover.any(axis=0)
    tol = REL_TOL * _scale(vals)
    outside = covered & ((new < lo - tol) | (new > hi + tol))
    problems = check_kept_where_uncovered(new, prev, cover, "horus")
    if outside.any():
        problems.append(
            f"horus: {int(outside.sum())} covered entries outside the unflagged clients' range"
        )
    return problems


def check_broadcast(participants, models, state) -> list[str]:
    """Each participant's adapters are the top-left block of the new state."""
    problems = []
    for cid in participants:
        for lid, pair in models[cid].lora.items():
            g = state.layers[lid]
            d_out, d_in = pair.b.shape[0], pair.a.shape[1]
            if not (np.array_equal(pair.a, g.a[:, :d_in])
                    and np.array_equal(pair.b, g.b[:d_out, :])):
                problems.append(f"client {cid} layer {lid.value}: not the global block")
    return problems


def _krum_scores(vals, cover, f: int) -> np.ndarray:
    """Sum of squared common-support distances to the n - f - 2 nearest."""
    n = len(vals)
    scores = np.empty(n)
    for i in range(n):
        both = cover & cover[i]
        d2 = (((vals - vals[i]) * both) ** 2).sum(axis=1)
        scores[i] = np.sort(np.delete(d2, i))[: n - f - 2].sum()
    return scores


def check_baseline(kind, updates, prev_state, new_state) -> list[str]:
    cids = sorted(updates)
    vals, cover = _padded(updates, cids, prev_state)
    prev, new = _flat_state(prev_state), _flat_state(new_state)
    problems = check_kept_where_uncovered(new, prev, cover, kind.name)
    covered = cover.any(axis=0)
    tol = REL_TOL * _scale(vals)
    if kind.name == "krum":
        scores = _krum_scores(vals, cover, kind.f)
        best = scores.min()
        # the lowest score wins, ties toward the lower id; a client whose
        # score ties it to within rounding may win instead
        winners = [
            i for i in range(len(cids))
            if scores[i] <= best + REL_TOL * max(1.0, best)
        ]
        if not any(
            np.array_equal(new, np.where(cover[i], vals[i], prev)) for i in winners
        ):
            problems.append(
                f"krum: new state is not the oracle winner client {cids[winners[0]]}"
            )
        return problems
    if kind.name not in ("median", "trimmed_mean"):
        return problems + [f"no check for aggregator {kind.name}"]
    # each entry's covering values in ascending order, uncovered rows last
    col = np.sort(np.where(cover, vals, np.nan), axis=0)
    c = cover.sum(axis=0)
    j = np.flatnonzero(covered)
    if kind.name == "median":
        want = 0.5 * (col[(c[j] - 1) // 2, j] + col[c[j] // 2, j])
    else:
        t = np.floor(kind.beta * c)
        row = np.arange(len(cids))[:, None]
        kept = (row >= t) & (row < c - t)
        want = (np.where(kept, col, 0.0).sum(axis=0) / kept.sum(axis=0).clip(1))[j]
    wrong = np.abs(new[j] - want) > tol
    if wrong.any():
        first = j[np.argmax(wrong)]
        problems.append(
            f"{kind.name}: {int(wrong.sum())} entries differ from the order "
            f"statistics, e.g. entry {first}: {new[first]!r}"
        )
    return problems


def check_crafted(args, crafted, submissions, state) -> list[str]:
    """The crafted vector obeys its attack's definition, and each attacker
    submits it at its local shape."""
    cfg, knowledge = args["cfg"], np.asarray(args["knowledge"])
    problems = []
    kind = cfg.kind.value
    if kind == "lie":
        n, m = args["n_total"], len(cfg.attacker_ids)
        if cfg.z_override is not None:
            z = cfg.z_override
        else:
            s = n // 2 + 1 - m
            z = NormalDist().inv_cdf((n - m - s) / (n - m))
        sigma = knowledge.std(axis=0)
        want = knowledge.mean(axis=0) + z * sigma
        # the program's inverse normal CDF is exact to ~1e-9, so z may differ
        # by that much times sigma
        tol = 1e-6 * _scale(sigma) + REL_TOL * _scale(want)
        for a, vec in crafted.items():
            if np.max(np.abs(vec - want)) > tol:
                problems.append(f"lie: client {a}'s vector is not mean + {z:.6f} std")
    elif kind == "min_max":
        bound = max(
            float(np.linalg.norm(knowledge - row, axis=1).max()) for row in knowledge
        )
        for a, vec in crafted.items():
            far = float(np.linalg.norm(knowledge - vec, axis=1).max())
            if far > bound * (1.0 + REL_TOL):
                problems.append(
                    f"min_max: client {a}'s vector is {far!r} from a knowledge "
                    f"vector, farther than the largest pairwise distance {bound!r}"
                )
    else:
        problems.append(f"no check for attack {kind}")
    for a, vec in crafted.items():
        if not np.all(np.isfinite(vec)):
            continue
        blocks = _unflatten_program_layout(vec, state)
        if not all(
            np.array_equal(m, blocks[(lid, f)][: m.shape[0], : m.shape[1]])
            for lid, pair in submissions[a].layers.items()
            for f, m in (("a", pair.a), ("b", pair.b))
        ):
            problems.append(f"client {a} did not submit its crafted vector")
    return problems


def check_round(sim, result, calls) -> list[str]:
    """Every check that applies to one finished round; an empty list passes."""
    metrics = result.metrics
    server = [c for c in calls if c[0] in ("horus", "baseline")]
    crafts = [c for c in calls if c[0] == "craft"]
    if not metrics.participants:
        return ["server step ran without participants"] if server else []
    if len(server) != 1:
        return [f"{len(server)} server steps in one round"]
    tag, args, out = server[0]
    updates, prev = args["updates"], args["g"]
    if sorted(updates) != sorted(metrics.participants):
        return ["submissions differ from the participants"]
    problems = check_payload(metrics, updates, sim.models)
    if tag == "horus":
        problems += check_detection(updates, args["cfg"], out.detection)
        problems += check_horus_aggregate(
            updates, prev, sim.state, out.detection, out.skipped
        )
    else:
        problems += check_baseline(args["kind"], updates, prev, sim.state)
    problems += check_broadcast(metrics.participants, sim.models, sim.state)
    for _, cargs, crafted in crafts:
        problems += check_crafted(cargs, crafted, updates, prev)
    return problems
