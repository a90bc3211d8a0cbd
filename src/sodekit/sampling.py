"""Quasi-random sampling boxes and the probabilistic zero test.

Zero testing is two-tier: the structural normal form decides exact zero for
rational functions; otherwise the canonical numerator polynomial is evaluated
at low-discrepancy points (Halton sequence with a seeded Cranley-Patterson
rotation).  A value above the tolerance, measured relative to the sum of the
magnitudes of the numerator terms at that point, certifies NonZero with a
witness.  If every trial stays below tolerance the verdict is Unknown: exact
equality of transcendental expressions is undecidable here and callers decide
how severe an Unknown is.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .expressions import (
    Add, EvalDomainError, Expr, compile_exprs, _to_rf, _poly_tree,
)
from . import memo

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
MAX_DIMS = len(_PRIMES)  # one Halton base per coordinate

ZERO_TOL = 1e-10
JITTER = 1e-3


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return state, (z ^ (z >> 31)) / 2.0**64


def _halton(index: int, base: int) -> float:
    result = 0.0
    f = 1.0
    i = index
    while i > 0:
        f /= base
        result += f * (i % base)
        i //= base
    return result


def unit_points(count: int, dims: int, seed: int):
    """`count` low-discrepancy points in [0,1)^dims, deterministic in seed."""
    if dims > MAX_DIMS:
        raise ValueError(f"at most {MAX_DIMS} dimensions supported")
    state = (seed * 0x9E3779B97F4A7C15 + 0x1234567) & 0xFFFFFFFFFFFFFFFF
    shifts = []
    for _ in range(dims):
        state, u = _splitmix64(state)
        shifts.append(u)
    points = []
    for i in range(1, count + 1):
        pt = tuple(
            (_halton(i, _PRIMES[d]) + shifts[d]) % 1.0 for d in range(dims)
        )
        points.append(pt)
    return points


def box_points(box: Sequence, count: int, seed: int):
    """Sample points inside a box given as a sequence of (lo, hi) pairs."""
    box = tuple((lo, hi) for lo, hi in box)
    key = ("box_points", box, count, seed)
    points = memo.get(key)
    if points is None:
        points = memo.put(key, tuple(
            tuple(lo + u * (hi - lo) for u, (lo, hi) in zip(pt, box))
            for pt in unit_points(count, len(box), seed)
        ))
    return list(points)


@dataclass(frozen=True)
class ZeroVerdict:
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

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "max_residual": self.max_residual}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
            out["value"] = self.value
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        return out


def _jittered(point, box):
    """Shift a point toward the box interior by the fixed jitter fraction."""
    out = []
    for x, (lo, hi) in zip(point, box):
        step = JITTER * (hi - lo)
        out.append(x + step if x <= 0.5 * (lo + hi) else x - step)
    return tuple(out)


def is_zero(
    e: Expr,
    box: Mapping[str, Sequence[float]],
    trials: int = 64,
    seed: int = 0,
    tol: float = ZERO_TOL,
) -> ZeroVerdict:
    """Decide zero-ness of `e` on the box (names -> (lo, hi)).

    Structural zero (canonical numerator empty) gives Zero.  Otherwise the
    numerator is sampled at `trials` quasi-random points; any value above
    tol times the term-magnitude sum yields NonZero with a witness point.
    All values below tolerance give Unknown.  Deterministic for fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    key = ("is_zero", e, _probe_key(box, trials, seed, tol))
    hit = memo.get(key)
    return hit if hit is not None else memo.put(
        key, _decide_zero(e, box, trials, seed, tol))


def _probe_key(box: Mapping[str, Sequence[float]], trials: int, seed: int,
               tol: float) -> tuple:
    return (tuple((n, tuple(iv)) for n, iv in box.items()), trials, seed, tol)


def _decide_zero(e: Expr, box: Mapping[str, Sequence[float]], trials: int,
                 seed: int, tol: float) -> ZeroVerdict:
    p, _ = _to_rf(e)
    if not p:
        return ZeroVerdict("zero")
    numerator = _poly_tree(p)
    terms = numerator.terms if isinstance(numerator, Add) else (numerator,)
    names = list(box.keys())
    ranges = [tuple(box[n]) for n in names]
    evaluator = compile_exprs(list(terms), names)
    points = box_points(ranges, trials, seed)
    max_residual = 0.0
    errors = 0
    for point in points:
        values = None
        for pt in (point, _jittered(point, ranges)):
            try:
                values = evaluator(pt)
                point = pt
                break
            except EvalDomainError:
                continue
        if values is None:
            errors += 1
            continue
        total = 0.0
        scale = 0.0
        for v in values:
            total += v
            scale += abs(v)
        if abs(total) > tol * scale:
            return ZeroVerdict(
                "nonzero",
                witness=MappingProxyType(dict(zip(names, point))),
                value=total,
                max_residual=abs(total),
                trials=trials,
            )
        residual = abs(total) / scale if scale > 0.0 else 0.0
        max_residual = max(max_residual, residual)
    if errors == len(points):
        return ZeroVerdict(
            "unknown", trials=trials,
            diagnostic="all trial points hit evaluation domain errors",
        )
    diagnostic = None
    if errors:
        diagnostic = f"{errors} of {len(points)} trial points skipped"
    return ZeroVerdict("unknown", max_residual=max_residual, trials=trials,
                       diagnostic=diagnostic)


@dataclass(frozen=True)
class ZeroProbe:
    """Bundle of box/trials/seed/tolerance threaded through the pipeline."""

    box: dict
    trials: int = 64
    seed: int = 0
    tol: float = ZERO_TOL

    def __call__(self, e: Expr) -> ZeroVerdict:
        return is_zero(e, self.box, self.trials, self.seed, self.tol)

    @property
    def key(self) -> tuple:
        """Hashable form of the box, trials, seed and tolerance."""
        return _probe_key(self.box, self.trials, self.seed, self.tol)
