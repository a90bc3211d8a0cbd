"""Quasi-random sampling boxes and the probabilistic zero test.

Zero testing is two-tier: the structural normal form decides exact zero for
rational functions; otherwise the canonical numerator polynomial is evaluated
at low-discrepancy points (Halton sequence with a seeded Cranley-Patterson
rotation).  A value above the tolerance, measured relative to the sum of the
magnitudes of the numerator terms at that point, certifies NonZero with a
witness.  If every trial stays below tolerance the verdict is Unknown: exact
equality of transcendental expressions is undecidable here.  An Unknown
counts as zero when its largest residual is below UNKNOWN_TOL; one that
evaluated no point carries residual 1.0 and never does.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .expressions import Add, Expr, compile_exprs, _to_rf, _poly_tree
from . import memo

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
MAX_DIMS = len(_PRIMES)  # one Halton base per coordinate

MAX_SEED = 2**64 - 1  # unit_points reads a seed modulo 2**64
TRIALS = 64  # zero-test sample points
ZERO_TOL = 1e-10
UNKNOWN_TOL = 1e-9  # an Unknown below this residual counts as zero
JITTER = 1e-3


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return state, (z ^ (z >> 31)) / 2.0**64


def unit_points(count: int, dims: int, seed: int) -> np.ndarray:
    """`count` low-discrepancy points in [0,1)^dims, deterministic in seed,
    as the rows of an array: Halton indices 1..count, one prime base and
    one seeded shift (mod 1) per coordinate, all indices' digits at once."""
    if dims > MAX_DIMS:
        raise ValueError(f"at most {MAX_DIMS} dimensions supported")
    state = (seed * 0x9E3779B97F4A7C15 + 0x1234567) & 0xFFFFFFFFFFFFFFFF
    out = np.empty((count, dims))
    for d in range(dims):
        state, shift = _splitmix64(state)
        base, rest = _PRIMES[d], np.arange(1, count + 1)
        h, f = np.zeros(count), 1.0
        while rest.any():
            f /= base
            h += f * (rest % base)
            rest //= base
        out[:, d] = (h + shift) % 1.0
    return out


def box_points(box: Sequence, count: int, seed: int) -> np.ndarray:
    """Sample points inside a box given as a sequence of (lo, hi) pairs, as
    the rows of a (count, len(box)) float64 array.  The array is memoized
    and read-only: every caller with the same box, count and seed shares
    it, and one that must write copies it."""
    box = tuple((lo, hi) for lo, hi in box)
    key = ("box_points", box, count, seed)
    points = memo.get(key)
    if points is None:
        u = unit_points(count, len(box), seed)
        for d, (lo, hi) in enumerate(box):
            u[:, d] = lo + u[:, d] * (hi - lo)
        u.flags.writeable = False
        points = memo.put(key, u)
    return points


class ZeroVerdict(NamedTuple):
    kind: str  # "zero" | "nonzero" | "unknown"
    witness: Optional[Mapping[str, float]] = None  # read-only
    value: Optional[float] = None
    max_residual: float = 0.0
    trials: int = 0
    diagnostic: Optional[str] = None

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.kind == "nonzero"


def _jittered(point, box):
    """Shift a point toward the box interior by the fixed jitter fraction."""
    out = []
    for x, (lo, hi) in zip(point, box):
        step = JITTER * (hi - lo)
        out.append(x + step if x <= 0.5 * (lo + hi) else x - step)
    return tuple(out)


class ZeroProbe(NamedTuple):
    """The zero test on one chart with one seed: the coordinate names, their
    (lo, hi) intervals in the same order, and the Halton seed.  It hashes and
    compares by value, so a memo key holds the probe itself.  Calling it
    runs `is_zero`, which spends TRIALS points at tolerance ZERO_TOL."""

    names: tuple
    box: tuple
    seed: int = 0

    def __call__(self, e: Expr) -> ZeroVerdict:
        return is_zero(e, self)


def is_zero(e: Expr, probe: ZeroProbe) -> ZeroVerdict:
    """Decide zero-ness of `e` on the probe's box with the probe's seed.

    Structural zero (canonical numerator empty) gives Zero.  Otherwise the
    numerator is sampled at TRIALS quasi-random points; the first value above
    ZERO_TOL times the term-magnitude sum yields NonZero with a witness point.
    All values below tolerance give Unknown with the largest relative
    residual; if no point evaluates, that residual is 1.0, the largest there
    is, so the Unknown never counts as zero (see UNKNOWN_TOL).
    """
    key = ("is_zero", e, probe)
    hit = memo.get(key)
    return hit if hit is not None else memo.put(key, _decide_zero(e, probe))


def _decide_zero(e: Expr, probe: ZeroProbe) -> ZeroVerdict:
    p, _ = _to_rf(e)
    if not p:
        return ZeroVerdict("zero")
    numerator = _poly_tree(p)
    terms = numerator.terms if isinstance(numerator, Add) else (numerator,)
    evaluator = compile_exprs(terms, probe.names)
    points = box_points(probe.box, TRIALS, probe.seed)
    values, errors = evaluator(points.T)
    live = np.ones(TRIALS, dtype=bool)
    if errors:
        # each failed point is retried once, shifted toward the box interior
        failed = sorted(errors)
        shifted = [_jittered(points[k].tolist(), probe.box) for k in failed]
        points = points.copy()
        again, still = evaluator(np.array(shifted).T)
        for col, k in enumerate(failed):
            if col in still:
                live[k] = False
            else:
                points[k] = shifted[col]
                values[:, k] = again[:, col]
    # the terms are summed in order, as `evaluate` sums an Add
    totals = np.zeros(TRIALS)
    scales = np.zeros(TRIALS)
    with np.errstate(all="ignore"):
        for row in values:
            totals += row
            scales += np.abs(row)
        residuals = np.abs(totals) / scales
        witnesses = np.flatnonzero(live & (np.abs(totals) > ZERO_TOL * scales))
    if witnesses.size:
        k = int(witnesses[0])
        return ZeroVerdict(
            "nonzero",
            witness=MappingProxyType(dict(zip(probe.names,
                                              points[k].tolist()))),
            value=float(totals[k]),
            max_residual=abs(float(totals[k])),
            trials=TRIALS,
        )
    if not live.any():
        return ZeroVerdict(
            "unknown", max_residual=1.0, trials=TRIALS,
            diagnostic="all trial points hit evaluation domain errors",
        )
    # fmax skips the NaN of 0/0 and inf/inf, as the builtin max does
    max_residual = float(np.fmax.reduce(residuals[live], initial=0.0))
    skipped = TRIALS - int(live.sum())
    diagnostic = None
    if skipped:
        diagnostic = f"{skipped} of {TRIALS} trial points skipped"
    return ZeroVerdict("unknown", max_residual=max_residual, trials=TRIALS,
                       diagnostic=diagnostic)
