"""Dense real-matrix spectral primitives and small statistical utilities.

Everything here is a pure function on immutable inputs; the heavy lifting
(thin SVD) is delegated to LAPACK via numpy, in :func:`decompose_many`, the
one place adapter factors are decomposed, with one stacked call per shape.
A spectrum is the plain 1-D array of singular values it hands out, checked
there once per stack. Spectral entropy and the top-k energy ratio are
computed on the normalized singular-value distribution and are therefore
invariant to positive rescaling and to zero-padding of the source matrix.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "decompose_many",
    "spectral_entropy",
    "topk_energy_ratio",
    "percentile",
    "inverse_normal_cdf",
]


def decompose_many(ms) -> list[tuple[np.ndarray, np.ndarray]]:
    """Singular values and first right singular vector of every p x q real
    matrix, in input order, one SVD per shape.

    The singular values are a 1-D array of min(p, q) entries, sorted
    non-increasing. The vector is the unit right singular vector of the
    largest singular value, with its sign canonicalized so the entry of
    largest magnitude is positive. A zero matrix has no principal direction;
    its vector is the first standard basis vector.

    Matrices of one shape are stacked and decomposed by a single LAPACK call,
    each array object once; each result is bit-identical to decomposing its
    matrix alone. Input and singular values (finite, non-negative, sorted)
    are checked once per stack, so the rows handed out need no more check.
    """
    ms = [np.asarray(m, dtype=float) for m in ms]
    by_shape: dict[tuple[int, int], list[np.ndarray]] = {}
    for m in {id(m): m for m in ms}.values():  # each object once
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
        by_shape.setdefault(m.shape, []).append(m)
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for group in by_shape.values():
        stack = np.stack(group)
        if not np.isfinite(stack).all():
            raise ValueError("matrix contains non-finite entries")
        _, s, vt = np.linalg.svd(stack, full_matrices=False)
        if not np.isfinite(s).all() or (s < 0).any():
            raise ValueError("singular values must be finite and non-negative")
        if (np.diff(s, axis=1) > 0).any():
            raise ValueError("singular values must be sorted non-increasing")
        v = vt[:, 0, :].copy()  # a view would keep the whole (n, k, q) stack alive
        flip = v[np.arange(len(v)), np.abs(v).argmax(axis=1)] < 0
        v[flip] = -v[flip]
        zero = ~stack.any(axis=(1, 2))
        v[zero] = np.eye(1, v.shape[1])[0]
        for m, s_row, v_row in zip(group, s, v):
            out[id(m)] = (s_row, v_row)
    return [out[id(m)] for m in ms]


def spectral_entropy(s: np.ndarray) -> float:
    """Shannon entropy (natural log) of the normalized singular values ``s``.

    Zero-valued modes contribute nothing (0 * ln 0 := 0). An all-zero
    spectrum returns 0 by convention: a dead update carries no dispersion.
    """
    total = float(s.sum())
    if total <= 0.0:
        return 0.0
    p = s / total
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def topk_energy_ratio(s: np.ndarray, k: int) -> float:
    """Fraction of the total mass of the singular values ``s`` carried by the
    k largest.

    ``k`` is clamped to ``len(s)``. An all-zero spectrum returns 1 by
    convention (maximally concentrated).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = float(s.sum())
    if total <= 0.0:
        return 1.0
    return float(s[: min(int(k), len(s))].sum() / total)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile on the ascending sort.

    The fractional rank is (n - 1) * p / 100; the result interpolates
    between the floor and ceil order statistics.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    if xs.size == 0:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must be in [0, 100], got {p}")
    rank = (xs.size - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return float(xs[lo] + frac * (xs[hi] - xs[lo]))


# Rational approximation coefficients (Acklam's algorithm for the inverse
# standard normal CDF), refined below by one Halley step on erfc.
_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
           1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
           6.680131188771972e+01, -1.328068155288572e+01)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
           -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
           3.754408661907416e+00)
_ICDF_P_LOW = 0.02425


def inverse_normal_cdf(q: float) -> float:
    """Quantile function of the standard normal distribution.

    Accurate to well below 1e-9 in CDF terms over (0, 1).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in the open interval (0, 1), got {q}")
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    if q < _ICDF_P_LOW:
        u = math.sqrt(-2.0 * math.log(q))
        x = ((((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5])
             / ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0))
    elif q > 1.0 - _ICDF_P_LOW:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -((((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5])
              / ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0))
    else:
        u = q - 0.5
        t = u * u
        x = ((((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]) * u
             / (((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0))
    # One Halley refinement step against the exact CDF.
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - q
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)
