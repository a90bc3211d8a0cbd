"""Numeric construction of the normalizing coordinates.

The transform composes flows: for the autonomous case the base point is a
point where F is vertical, the parameter directions are tilted to stay on
that locus, the x-parameters flow the (sign-reversed) projectable
representatives of the W-basis tangent to the locus, and the y-parameters
flow the adapted commuting V-basis.  For the time-dependent case the first
parameter flows F itself, which realizes the time normalization without
solving for it.  Fibre coordinates are finally redefined as the x-components
of the pushed-forward field, which forces the xdot = y block by construction
and leaves the t-block and chart validity as the substantive checks.

Jacobians of flow compositions are composed from each flow's Jacobian,
exact for a closed-form flow and from the variational equations otherwise;
the innermost flow starts at the fixed base point, so only its field's
column enters and it flows without one.  Central finite differences of the
whole map serve as a cross-check.  Where the V-basis is not adapted (the
adaptation is numeric), the matrix A of the basis change is carried as n^2
extra coordinates of every stage: the fibre fields transport A along their
own flows, so they are symbolic fields like all the others.
Every flow goes through `integrate_flows`, many members of one stage at a
time.  A stage field X whose Lie series ends, X^k z_a = 0 for every
coordinate with k <= LIE_DEPTH, flows in closed form,
z + sum_{j<k} s^j/j! (X^j z)(z0), with the exact Jacobian; every other flow
is one solve_ivp call.

The residual stage reads F in the final chart from five-point stencils.
The quadratic fit needs only the fibre components, D(ytilde)(p)*v with
v = J^-1 F the field in the parameter chart, so it differentiates along the
straight line p + s*v and makes no F-flow and no Newton step.  The
cross-check, which must not rest on the variational Jacobian, flows F and
inverts each stencil point by Newton's method from the same p + s*v; the
line rows of the fit ride in that first Newton walk.  The residual grid, the
fit nodes, the fibre check and the shifted rows of the finite-difference
Jacobians share one walk, so timedep-scrambled's residual stage makes four
solve_ivp calls: the grid walk, the F-flow and two Newton walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .expressions import (
    NEG, Num, Sym, ZERO, _to_rf, compile_exprs, differentiate, dot,
    normalize,
)
from .geometry import Chart, VectorField
from . import memo
from .ode import StepFailure, solve_ivp
from .analysis import (
    AnalysisError, AnalysisReport, CASE1, CASE2, ExtendedFrame,
)


class NumericFailure(RuntimeError):
    """Integration, root finding or conditioning failure (exit code 3)."""

    def __init__(self, message: str, last_point=None):
        super().__init__(message)
        self.last_point = last_point


# Integrator tolerances, and the fraction of the box width by which a flow of
# the chart may leave the box.
RTOL = 1e-10
ATOL = 1e-12
BOX_SLACK = 1.0
# Central-difference step of the transform (the Jacobian cross-check and the
# fibre check).
FD_STEP = 1e-5
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
STENCIL_STEP = 3e-3
# A chart whose Jacobian has a larger 2-norm condition number at the base
# point fails, and a grid node with one is flagged.  On the grid the bound
# (2 / |det J|) (|J|_F / sqrt(m))^m >= cond_2 (Guggenheimer, Edelman and
# Johnson 1995) clears most nodes without an SVD; it clears only below
# COND_LIMIT / 2, far outside the rounding of either route, so every flag is
# the one np.linalg.cond gives.
COND_LIMIT = 1e8
CROSSCHECK_CAP = 12       # about this many grid nodes are cross-checked
PATH_CHECK_TOL = 1e-7     # basis transport: gap between the two flow orders
QUADRATIC_GRID = 5        # fibre nodes per axis of the quadratic fit
FLOW_ROWS = 1024          # members per flow call of a walk, to bound ODE state
# A stage field flows in closed form when X^k z_a normalizes to zero for every
# coordinate with k <= LIE_DEPTH.  The attempt stops at a level whose normal
# forms hold more than LIE_TERMS terms (numerators and denominators), so a
# field whose series does not end stays cheap to try.
LIE_DEPTH = 3
LIE_TERMS = 64


def _variational_evaluator(fld: VectorField):
    """Compiled components of the field followed by its Jacobian, row-major:
    the right-hand side of the variational equations."""
    names = fld.chart.names
    key = ("variational", fld.components, names)
    hit = memo.get(key)
    return hit if hit is not None else memo.put(key, compile_exprs(
        list(fld.components)
        + [differentiate(c, n) for c in fld.components for n in names],
        names))


_ENDLESS = ("the Lie series does not end",)   # the memo's failed attempt


def _lie_series(fld: VectorField):
    """The Lie series of the flow of fld when it ends within LIE_DEPTH:
    (order, values, with_jacobian), or None.  `order` is k - 1 for the
    least k with X^k z_a = 0 for every coordinate z_a; `values` is the
    compiled X^j z_a for j = 1..order, j major, and `with_jacobian` the same
    followed by their chart derivatives, d(X^j z_a)/dz_b row-major per j.
    Memoized, a failed attempt too."""
    key = ("lie_series", fld.components, fld.chart.names)
    hit = memo.get(key)
    if hit is None:
        hit = memo.put(key, _ending_series(fld) or _ENDLESS)
    return None if hit is _ENDLESS else hit


def _ending_series(fld: VectorField) -> Optional[tuple]:
    """`_lie_series`'s result, computed."""
    names = fld.chart.names
    levels: list = []
    level = fld.components   # X z_a as given: the integrator's values
    while any(normalize(c) != ZERO for c in level):
        if len(levels) == LIE_DEPTH - 1 or sum(
                len(p) + len(q) for p, q in
                (_to_rf(normalize(c)) for c in level)) > LIE_TERMS:
            return None
        levels.append(level)
        # the last allowed level is only tested: it is formed one component
        # at a time, up to the first that does not vanish
        level = (fld.directional(c) for c in level)
        if len(levels) < LIE_DEPTH - 1:
            level = tuple(level)
    values = [c for lv in levels for c in lv]
    derivatives = [differentiate(c, n) for c in values for n in names]
    return (len(levels), compile_exprs(values, names),
            compile_exprs(values + derivatives, names))


def _series_flow(series: tuple, z, jac, s, what: str) -> tuple:
    """The closed-form flow of every row of z over its own time s[k]:
    (ends, Jacobians or None, failures), `jac` the Jacobians it starts from
    (the identity) or None.  A member whose series terms fail to evaluate
    at its start fails with the integrator's domain-error wording."""
    order, values, with_jacobian = series
    K, m = z.shape
    terms, errors = (values if jac is None else with_jacobian)(z.T)
    failures = {k: NumericFailure(f"{what} hit a domain error: {err}",
                                  last_point=tuple(z[k]))
                for k, err in errors.items()}
    with np.errstate(all="ignore"):     # a failed member's NaN, an overflow
        for j in range(order):
            c = s ** (j + 1) / math.factorial(j + 1)
            z = z + c[:, None] * terms[j * m:(j + 1) * m].T
            if jac is not None:
                first = order * m + j * m * m
                jac = jac + c[:, None, None] * terms[
                    first:first + m * m].T.reshape(K, m, m)
    return z, jac, failures


# --------------------------------------------------------------------------
# Flows: many members of one stage in a single solve_ivp call
# --------------------------------------------------------------------------

def integrate_flows(fld: VectorField, z, s, with_jacobian: bool = False,
                    chart: Optional[Chart] = None) -> tuple:
    """Endpoint of the flow of `fld` from each row of z over its own time
    s[k]; `with_jacobian` adds the Jacobian of each flow map.  A field whose
    Lie series ends (`_lie_series`) flows in closed form, with the exact
    Jacobian, and makes no solve_ivp call; every other field flows all
    members in one solve_ivp call with a step size and error control per
    member, its Jacobians from the variational equations.  Without
    `with_jacobian` the states are the m coordinates alone, and a failure
    reads "flow ..."; with it, "variational flow ...".

    Returns (ends (K, m), Jacobians (K, m, m) or None, failures), failures
    mapping each failed member to its NumericFailure; a failed member's rows
    are NaN and do not spoil the others.  `chart` also fails a member whose
    end leaves the box by more than BOX_SLACK of its width.  Only `chart`'s
    own coordinates are guarded, so a field on a chart extended by the
    transport matrix's entries is guarded by the chart it extends."""
    z = np.array(z, dtype=float)
    s = np.asarray(s, dtype=float)
    K, m = z.shape
    jac = np.tile(np.eye(m), (K, 1, 1)) if with_jacobian else None
    failures: dict = {}
    moving = np.flatnonzero(s != 0.0)
    # every member moving (the usual case): views of the rows, not copies
    rows = slice(None) if len(moving) == K else moving
    what = "variational flow" if with_jacobian else "flow"
    series = _lie_series(fld)
    if moving.size and series is not None:
        ends, jm, errs = _series_flow(
            series, z[rows], jac[rows] if with_jacobian else None,
            s[rows], what)
        z[rows] = ends
        if with_jacobian:
            jac[rows] = jm
        failures = {int(moving[i]): err for i, err in errs.items()}
    elif moving.size:
        count = len(moving)
        y0 = z[rows]
        if with_jacobian:
            y0 = np.hstack([y0, jac[rows].reshape(count, m * m)])
            ev = _variational_evaluator(fld)

            def rhs(_t, y):
                values, errors = ev(y[:, :m].T)
                if errors:  # the integrator drops these members
                    return None, errors
                out = np.empty_like(y)
                out[:, :m] = values[:m].T
                D = values[m:].reshape(m, m, len(y)).transpose(2, 0, 1)
                out[:, m:] = (D @ y[:, m:].reshape(-1, m, m)).reshape(
                    len(y), -1)
                return out, errors
        else:
            ev = fld.evaluator()

            def rhs(_t, y):
                values, errors = ev(y.T)
                return (None if errors else values.T), errors

        sol = solve_ivp(rhs, (0.0, s[rows]), y0, rtol=RTOL, atol=ATOL)
        for i in sorted(sol.failures):
            err = sol.failures[i]
            failures[int(moving[i])] = NumericFailure(
                f"{what} failed: {err}" if isinstance(err, StepFailure)
                else f"{what} hit a domain error: {err}",
                last_point=tuple(sol.y[i, :m]))
        z[rows] = sol.y[:, :m]
        if with_jacobian:
            jac[rows] = sol.y[:, m:].reshape(count, m, m)
    if chart is not None:
        lo, hi = np.array(chart.box).T
        pad = BOX_SLACK * (hi - lo)
        ends = z[rows, :len(lo)]
        # a NaN end compares false, so it fails too
        inside = ((lo - pad <= ends) & (ends <= hi + pad)).all(axis=1)
        for k in moving[~inside]:
            if k not in failures:
                failures[int(k)] = NumericFailure(
                    "flow left the sampling box (beyond the allowed slack)",
                    last_point=tuple(z[k]))
    for k in failures:
        z[k] = np.nan
        if jac is not None:
            jac[k] = np.nan
    return z, jac, failures


def _field_values(fld: VectorField, z) -> tuple:
    """Values of a stage field at each row of z: (values (K, m), failures)."""
    values, errors = fld.evaluator()(z.T)
    return values.T, {
        k: NumericFailure(f"field hit a domain error: {err}",
                          last_point=tuple(z[k]))
        for k, err in errors.items()}


def _solve_each(A, b, message: str, points) -> tuple:
    """np.linalg.solve(A[k], b[k]) for each member: (x, failures), a singular
    member flagged with `message`.  A stack with a singular member is solved
    again by halves, batched, so s singular members of K cost O(s log K)
    solves; batched and single solves agree bit for bit."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], {}
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return np.full_like(b, np.nan), {
                0: NumericFailure(message, last_point=tuple(points[0]))}
    mid = len(b) // 2
    x, failures = _solve_each(A[:mid], b[:mid], message, points[:mid])
    x2, failures2 = _solve_each(A[mid:], b[mid:], message, points[mid:])
    failures.update((mid + k, err) for k, err in failures2.items())
    return np.concatenate([x, x2]), failures


def _live_rows(count: int, failures) -> np.ndarray:
    """The indices 0..count-1 that are not keys of failures, ascending.  (A
    mask, not np.setdiff1d: that imports numpy.ma on its first call.)"""
    live = np.ones(count, dtype=bool)
    live[list(failures)] = False
    return np.flatnonzero(live)


def _median(values) -> float:
    """np.median of a nonempty 1-d array, bit for bit, without the numpy.ma
    import np.median makes on its first call."""
    s = np.sort(values)
    k = len(s) // 2
    if np.isnan(s[-1]):
        return float("nan")
    return float(s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2)


def _well_conditioned(J) -> np.ndarray:
    """np.linalg.cond(J[k]) <= COND_LIMIT for each matrix of the stack, and
    False for a non-finite one; the SVD only where the determinant bound
    does not clear the matrix: a bound above COND_LIMIT / 2, or one that is
    NaN or infinite because the determinant or the power under- or
    overflows, or a determinant below the smallest normal float, whose
    rounding the margin would not cover."""
    m = J.shape[-1]
    with np.errstate(all="ignore"):
        det = np.abs(np.linalg.det(J))
        bound = 2 * np.sqrt(np.einsum("kij,kij->k", J, J) / m) ** m / det
    ok = (bound <= COND_LIMIT / 2) & (det >= np.finfo(float).tiny)
    unsure = np.flatnonzero(~ok)
    finite = unsure[np.isfinite(J[unsure]).all(axis=(1, 2))]
    if finite.size:
        ok[finite] = np.linalg.cond(J[finite]) <= COND_LIMIT
    return ok


def _take(walked: tuple, index) -> tuple:
    """Rows `index` of a walk's (z, J, failures), failures renumbered."""
    z, J, failures = walked
    return z[index], J[index], {i: failures[k] for i, k in enumerate(index)
                                if k in failures}


def _keep_live(failures: dict, owners, recorded: dict, *arrays) -> tuple:
    """Record each failed member's failure under its owner (the first one
    recorded wins) and return the owners and rows of the other members."""
    for i, err in failures.items():
        recorded.setdefault(int(owners[i]), err)
    live = _live_rows(len(owners), failures)
    return (owners[live],) + tuple(a[live] for a in arrays)


# --------------------------------------------------------------------------
# Numeric basis transport (the linear system of the commuting-basis change)
# --------------------------------------------------------------------------

def _completion_directions(fields, z0) -> np.ndarray:
    """Singular vectors completing the span of the fields at z0, each signed
    so that its largest entry is positive."""
    cols = np.array([f.at(z0) for f in fields], dtype=float).T
    u, sv, _ = np.linalg.svd(cols, full_matrices=True)
    extra = u[:, len(fields):]
    for j in range(extra.shape[1]):
        col = extra[:, j]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            extra[:, j] = -col
    return extra


def transported_fibre_fields(ef: ExtendedFrame, w) -> list:
    """The adapted V-basis with its transport matrix A carried along.

    Field i lives on the chart extended by the n^2 entries a^k_j of A,
    row-major after the chart's coordinates.  They are named `akj`, the
    prefix lengthened by underscores until no coordinate starts with it, and
    their box is nominal: no guard reads it.  The chart block of field i is
    sum_l a^l_i V_l and its A block is
    a^k_j -> -sum_{l,p} a^l_i w^k_lp a^p_j, with w[l][p][k] = w^k_lp as in
    `BracketCoefficients.w`.  Along these flows A solves
    V_l(A^k_j) + A^p_j w^k_lp = 0, so flowed from A = id on a section
    transverse to V the chart blocks are a commuting V-basis whose brackets
    with the W-fields are vertical."""
    chart, n = ef.chart, ef.n
    prefix = "a"
    while any(name.startswith(prefix) for name in chart.names):
        prefix = "_" + prefix
    names = [f"{prefix}{k + 1}{j + 1}" for k in range(n) for j in range(n)]
    extended = Chart(chart.names + tuple(names),
                     chart.box + ((-1.0, 1.0),) * (n * n))
    a = [[Sym(names[k * n + j]) for j in range(n)] for k in range(n)]
    fields = []
    for i in range(n):
        block = [dot((a[l][i], v.components[c])
                     for l, v in enumerate(ef.vbasis))
                 for c in range(chart.dim)]
        carried = [dot((NEG, a[l][i], w[l][p][k], a[p][j])
                       for l in range(n) for p in range(n))
                   for k in range(n) for j in range(n)]
        fields.append(VectorField(extended, block + carried))
    return fields


def _check_path_independence(fields, start, chart: Chart):
    """Flow the fibre fields from start over `default_extent(chart)` each, in
    ascending and in descending order, guarded by the base chart; the ends
    differ when the transported basis does not commute, i.e. the
    integrability identities fail numerically."""
    extent = default_extent(chart)
    ends = []
    for order in (fields, fields[::-1]):
        z = np.asarray(start, dtype=float)[None]
        for fld in order:
            z, _, failures = integrate_flows(fld, z, [extent], chart=chart)
            if failures:
                raise failures[0]
        ends.append(z[0])
    gap = float(np.max(np.abs(ends[0] - ends[1])))
    if gap > PATH_CHECK_TOL:
        raise NumericFailure(
            f"basis transport is path dependent (gap {gap:.2e}); "
            "integrability identities are not holding numerically"
        )


# --------------------------------------------------------------------------
# The coordinate transform
# --------------------------------------------------------------------------

@dataclass
class Stage:
    fld: VectorField
    label: str


class CoordinateTransform:
    """Numeric chart (t^p, x^i, y^i) -> point of M built from composed flows.

    Parameters are applied innermost first in the stored stage order.  A
    stage whose Lie series ends flows in closed form, with its exact
    Jacobian, and takes no integrator step; the others are integrated, their
    Jacobians from the variational equations (see `integrate_flows`).
    After the forward map, fibre coordinates are redefined as the
    x-components of the pushed-forward field (`final_coords`).

    Every map works on stacks of parameter rows through one stage walk,
    `map_batch`, each flow stage in calls of at most FLOW_ROWS members.
    Rows that share a prefix of parameters share its inner flows, whatever
    their order; each row steps as it would alone, and a failure flags only
    the rows that share the failing prefix.  Every flow of the chart is
    guarded: a member whose flow ends outside the box by more than
    BOX_SLACK of its width fails.  A batched map returns its failures as a
    {row: NumericFailure} dict, and a caller that reports one failure of a
    batch reports its lowest row's.  A transform keeps no state after
    construction, so threads may share one.

    The flows start from `start`: the base point z0, followed by the entries
    of the identity matrix when the stages carry a transport matrix along
    (see `transported_fibre_fields`).  The maps return the chart's own m
    coordinates only."""

    def __init__(self, report: AnalysisReport, ef: ExtendedFrame,
                 start, stages: Sequence[Stage]):
        self.chart = ef.chart
        self.F = ef.problem.F
        self.case = report.classification
        self.m = self.chart.dim
        self.start = np.asarray(start, dtype=float)
        self.z0 = self.start[:self.m]
        self.stages = list(stages)
        self.n = ef.n
        if len(self.stages) != self.m:
            raise AnalysisError("need exactly one stage per coordinate")
        self.param_names = [st.label for st in self.stages]
        self.t_count = self.m - 2 * self.n
        _, J0, failures = self.map_batch(np.zeros((1, self.m)))
        if failures:
            raise failures[0]
        self.base_condition = float(np.linalg.cond(J0[0]))
        if not np.isfinite(self.base_condition) or \
                self.base_condition > COND_LIMIT:
            raise NumericFailure(
                f"transform Jacobian is singular at the base point "
                f"(condition {self.base_condition:.2e})"
            )

    def metadata(self) -> dict:
        return {
            "case": self.case,
            "base_point": [float(v) for v in self.z0],
            "parameters": self.param_names,
            "composition_order": "innermost first, ascending index per block",
            "x_flow_sign": "x-parameters flow the negated projectable "
                           "W-representatives",
            "fibre_redefinition": "y^i := x-components of the pushed-forward "
                                  "field",
            "base_condition_number": self.base_condition,
        }

    def map_batch(self, params) -> tuple:
        """Point and Jacobian of each row of params: (z (K, m), J (K, m, m),
        failures), a failed row's rows NaN.

        One walk of the stages: stage k below the last flows each distinct
        prefix params[:, :k+1] once, from the end of its stage-(k - 1)
        member (from `start` at k = 0); the last stage has one member per
        row, in row order.  A stage's live members go through
        integrate_flows calls of at most FLOW_ROWS, guarded by the box; a
        member whose parent failed takes on that failure and is not flowed,
        so a failing prefix flags all its rows.  The Jacobians are composed
        stage by stage, appending each stage field's column.  Stage 0 flows
        from the fixed `start`, whose parent block has no columns, so it
        flows without its flow Jacobian and contributes its column only."""
        params = np.asarray(params, dtype=float)
        K = len(params)
        z = self.start[None]
        J = np.zeros((1, len(self.start), 0))
        failed = np.full(1, None, dtype=object)   # per member: its failure
        member = np.zeros(K, dtype=int)           # per row: its member
        for k, fld in enumerate(st.fld for st in self.stages):
            if k < self.m - 1:
                # one member per distinct (member, time) of the sorted rows
                order = np.lexsort((params[:, k], member))
                parent, s = member[order], params[order, k]
                new = np.ones(K, dtype=bool)
                new[1:] = (parent[1:] != parent[:-1]) | (s[1:] != s[:-1])
                parent, s = parent[new], s[new]
                member = np.empty(K, dtype=int)
                member[order] = np.cumsum(new) - 1
            else:
                parent, s = member, params[:, k]
            failed = failed[parent]
            live = np.flatnonzero(np.equal(failed, None))
            zk = np.full((len(parent), len(self.start)), np.nan)
            Jk = np.full(zk.shape + (k + 1,), np.nan)
            for first in range(0, len(live), FLOW_ROWS):
                rows = live[first:first + FLOW_ROWS]
                at = parent[rows]
                ends, Jf, errs = integrate_flows(
                    fld, z[at], s[rows], with_jacobian=k > 0,
                    chart=self.chart)
                zk[rows] = ends
                col, col_errs = _field_values(fld, ends)
                Jk[rows] = np.concatenate(
                    [J[at] if Jf is None else Jf @ J[at], col[:, :, None]],
                    axis=2)
                for i, err in {**col_errs, **errs}.items():
                    failed[rows[i]] = err
            z, J = zk, Jk
        lost = np.flatnonzero(np.not_equal(failed, None))
        z[lost] = np.nan
        J[lost] = np.nan
        return z[:, :self.m], J[:, :self.m], {int(i): failed[i] for i in lost}

    def invert(self, z_targets, guesses, mapped=None) -> tuple:
        """Newton inversion of the map for each row of z_targets, all members
        stepping together and converged members dropping out:
        (params, z, J, failures) with z, J the map at the returned params.
        `mapped` is `map_batch(guesses)`'s triple when the caller has it
        already; the first iterate is then not walked again."""
        targets = np.asarray(z_targets, dtype=float)
        params = np.array(guesses, dtype=float)
        z = np.full_like(params, np.nan)
        J = np.full((len(params), self.m, self.m), np.nan)
        failures: dict = {}
        live = np.arange(len(params))
        for _ in range(NEWTON_MAX_ITER):
            if not live.size:
                break
            zl, Jl, errs = (self.map_batch(params[live]) if mapped is None
                            else mapped)
            mapped = None
            live, zl, Jl = _keep_live(errs, live, failures, zl, Jl)
            r = zl - targets[live]
            done = np.max(np.abs(r), axis=1) < NEWTON_TOL
            z[live[done]] = zl[done]
            J[live[done]] = Jl[done]
            live, zl, Jl, r = (a[~done] for a in (live, zl, Jl, r))
            step, errs = _solve_each(Jl, -r, "singular Jacobian during "
                                     "inversion", zl)
            live, step = _keep_live(errs, live, failures, step)
            params[live] = params[live] + step
        for k in live:
            failures[int(k)] = NumericFailure(
                "transform inversion did not converge",
                last_point=tuple(targets[k]))
        params[list(failures)] = np.nan
        return params, z, J, failures

    def _pushforward_batch(self, z, J) -> tuple:
        """Components of F in the raw parameter chart at each row:
        (v (K, m), failures)."""
        f, failures = _field_values(self.F, z)
        v, singular = _solve_each(J, f, "singular Jacobian in pushforward", z)
        for k, err in singular.items():
            failures.setdefault(k, err)
        return v, failures

    def _with_fibre(self, params, v) -> np.ndarray:
        """Each row of params with the y-block replaced by the x-components
        of the pushed field v."""
        out = np.array(params, dtype=float)
        tc, n = self.t_count, self.n
        out[:, tc + n:] = v[:, tc: tc + n]
        return out

    def final_coords(self, params, mapped=None) -> tuple:
        """Final coordinates (t, x, ytilde) of each row of params, ytilde the
        x-components of the pushed-forward field: (final (K, m), z (K, m),
        v (K, m), failures), with z the row's point and v the
        components of F in the raw parameter chart; the rows of a failed
        member are NaN.  `mapped` is `map_batch(params)`'s triple when the
        caller has it already; the rows are then not walked again."""
        params = np.asarray(params, dtype=float)
        if mapped is None:
            z, J, failures = self.map_batch(params)
        else:
            z, J, failures = np.array(mapped[0]), mapped[1], dict(mapped[2])
        live = _live_rows(len(params), failures)
        pushed, errs = self._pushforward_batch(z[live], J[live])
        v = np.full_like(z, np.nan)
        v[live] = pushed
        for i, err in errs.items():
            failures.setdefault(int(live[i]), err)
        dead = list(failures)
        final = self._with_fibre(params, v)
        for rows in (final, z, v):
            rows[dead] = np.nan
        return final, z, v, failures

    def fibre_rows(self, params) -> np.ndarray:
        """The 2n rows of `fibre_jacobian_min_sv` at params: each fibre
        coordinate shifted by +FD_STEP and by -FD_STEP in turn."""
        tc, n = self.t_count, self.n
        rows = np.repeat(np.asarray(params, dtype=float)[None], 2 * n, axis=0)
        for a in range(n):
            rows[2 * a, tc + n + a] += FD_STEP
            rows[2 * a + 1, tc + n + a] -= FD_STEP
        return rows

    def fibre_jacobian_min_sv(self, params, mapped=None) -> float:
        """Smallest singular value of d(ytilde)/d(y_raw): the fibre
        redefinition must be invertible (with an adapted commuting basis it
        is the identity in exact arithmetic), checked numerically.  The 2n
        `fibre_rows` are mapped together; `mapped` is as in `final_coords`,
        of those rows."""
        tc, n = self.t_count, self.n
        final, _, _, failures = self.final_coords(self.fibre_rows(params),
                                                  mapped)
        if failures:
            raise failures[min(failures)]
        fibre = final[:, tc + n:].reshape(n, 2, n)
        G = (fibre[:, 0] - fibre[:, 1]).T / (2 * FD_STEP)
        return float(np.linalg.svd(G, compute_uv=False)[-1])

    def field_in_final_chart(self, nodes, mapped=None, fit: int = 0) -> tuple:
        """All components of F in the final chart at each row of nodes, by a
        five-point stencil of the final coordinates with step STENCIL_STEP.
        Returns (values (K, m), final (K, m), failures): the components, the
        node's final coordinates and a failed node's failure, its rows NaN.
        `mapped` is as in `final_coords`.

        The stencil of the first K - fit nodes (the cross-check's) runs along
        the F-flow through the node's point, each point inverted by Newton's
        method from the guess p + s*v, v the field in the parameter chart at
        the node p: independent of the variational Jacobian.  The stencil of
        the last `fit` nodes (the quadratic fit's) runs along the straight
        line p + s*v itself, so it needs no F-flow and no Newton step.  Both
        kinds of rows are the same p + s*v; they are mapped in one walk, the
        first Newton iterate of the cross-check."""
        nodes = np.asarray(nodes, dtype=float)
        K, m = nodes.shape
        final, z, v, failures = self.final_coords(nodes, mapped)
        live = _live_rows(K, failures)
        # the four stencil points of each live node, consecutive
        owner = np.repeat(live, 4)
        shift = np.tile(STENCIL_STEP * np.array([-2.0, -1.0, 1.0, 2.0]),
                        len(live))
        line = nodes[owner] + shift[:, None] * v[owner]
        checked = np.flatnonzero(owner < K - fit)
        on_line = np.flatnonzero(owner >= K - fit)
        point_failures: dict = {}
        targets, _, errs = integrate_flows(self.F, z[owner[checked]],
                                           shift[checked], chart=self.chart)
        checked, targets = _keep_live(errs, checked, point_failures, targets)
        c = len(checked)
        first = self.map_batch(np.concatenate([line[checked],
                                               line[on_line]]))
        ps, zp, Jp, errs = self.invert(targets, line[checked],
                                       _take(first, np.arange(c)))
        checked, ps, zp, Jp = _keep_live(errs, checked, point_failures,
                                         ps, zp, Jp)
        samples = np.full((len(owner), m), np.nan)
        for points, params, walked in (
                (checked, ps, (zp, Jp, {})),
                (on_line, line[on_line],
                 _take(first, c + np.arange(len(on_line))))):
            fin, _, _, errs = self.final_coords(params, walked)
            points, fin = _keep_live(errs, points, point_failures, fin)
            samples[points] = fin
        for p in sorted(point_failures):
            failures.setdefault(int(owner[p]), point_failures[p])
        s4 = samples.reshape(len(live), 4, m)
        values = np.full((K, m), np.nan)
        values[live] = (s4[:, 0] - 8 * s4[:, 1] + 8 * s4[:, 2]
                        - s4[:, 3]) / (12 * STENCIL_STEP)
        final[list(failures)] = np.nan
        return values, final, failures

    def jacobian_fd(self, nodes, mapped=None) -> tuple:
        """Central differences of the flow map at each row of nodes (no
        variational equations): (J (K, m, m), failures), a node failing with
        the failure of its lowest failing shifted row, its rows NaN.  The 2mK
        `fd_rows` are walked together; `mapped` is as in `final_coords`, of
        those rows.  The quotient reads only the mapped points."""
        nodes = np.asarray(nodes, dtype=float)
        K, m = nodes.shape
        ends, _, errs = (self.map_batch(fd_rows(nodes)) if mapped is None
                         else mapped)
        failures: dict = {}
        for i, err in errs.items():
            failures.setdefault(i // (2 * m), err)
        ends = np.array(ends).reshape(K, m, 2, m)
        ends[list(failures)] = np.nan
        return ((ends[:, :, 0] - ends[:, :, 1]).transpose(0, 2, 1)
                / (2 * FD_STEP), failures)


def fd_rows(nodes) -> np.ndarray:
    """The rows of `jacobian_fd` at each row of nodes: 2m rows per node,
    consecutive, each coordinate shifted by +FD_STEP and by -FD_STEP in
    turn."""
    nodes = np.asarray(nodes, dtype=float)
    K, m = nodes.shape
    shift = FD_STEP * np.eye(m)
    return np.stack([nodes[:, None] + shift, nodes[:, None] - shift],
                    axis=2).reshape(2 * m * K, m)


def _tilt_to_locus(fld: VectorField, b_exprs, vbasis) -> VectorField:
    """Add vertical corrections so the field is tangent to {b = 0}
    (valid because V_k(b^j) = -delta^j_k in the adapted basis)."""
    out = fld
    for k, v in enumerate(vbasis):
        corr = fld.directional(b_exprs[k])
        if corr != ZERO:
            out = out + v.scaled(corr)
    return out


def _constant_direction_field(chart: Chart, direction) -> VectorField:
    comps = [Num(float(d)) for d in direction]
    return VectorField(chart, comps)


def build_normal_coordinates(report: AnalysisReport) -> CoordinateTransform:
    """Assemble the flow-composition chart for a classified problem."""
    if report.classification not in (CASE1, CASE2):
        raise AnalysisError(
            f"cannot straighten a problem classified {report.classification}"
        )
    ef = report.extended
    chart = ef.chart
    n = ef.n
    m = chart.dim
    stages: list = []

    if report.classification == CASE1:
        if not report.zero_section_points:
            raise NumericFailure("cross-section not found in box")
        z0 = np.asarray(report.zero_section_points[0], dtype=float)
        b_exprs = [normalize(b) for b in report.f_w_coefficients]
        if m > 2 * n:
            extra = _completion_directions(ef.combined.fields, tuple(z0))
            for p in range(extra.shape[1]):
                direction = _constant_direction_field(chart, extra[:, p])
                tilted = _tilt_to_locus(direction, b_exprs, ef.vbasis)
                stages.append(Stage(tilted, f"t{p + 1}"))
        for i, w in enumerate(ef.wfields):
            tangent = _tilt_to_locus(w, b_exprs, ef.vbasis)
            stages.append(Stage(tangent.scaled(Num(-1)), f"x{i + 1}"))
    else:
        z0 = np.asarray(chart.center(), dtype=float)
        if m > 2 * n + 1:
            # extra slice directions are innermost so that the F-flow and the
            # leaf flows come after them; F(z0) spans one completion
            # direction, keep the remainder
            extra = _completion_directions(ef.combined.fields, tuple(z0))
            f0 = ef.problem.F.at(tuple(z0))
            f0 = f0 / np.linalg.norm(f0)
            kept = []
            for p in range(extra.shape[1]):
                col = extra[:, p] - (extra[:, p] @ f0) * f0
                norm = np.linalg.norm(col)
                if norm > 1e-8:
                    kept.append(col / norm)
                if len(kept) == m - 2 * n - 1:
                    break
            if len(kept) != m - 2 * n - 1:
                raise NumericFailure(
                    "could not complete the time-slice directions"
                )
            for p, col in enumerate(kept):
                stages.append(Stage(
                    _constant_direction_field(chart, col), f"t{p + 2}"
                ))
        stages.append(Stage(ef.problem.F, "t1"))
        for i, w in enumerate(ef.wfields):
            stages.append(Stage(w.scaled(Num(-1)), f"x{i + 1}"))

    if report.adaptation.mode == "numeric":
        fibre = transported_fibre_fields(ef, report.bracket_coeffs.w)
        stages = [Stage(VectorField(fibre[0].chart, st.fld.components
                                    + (ZERO,) * (n * n)), st.label)
                  for st in stages]
        start = np.concatenate([z0, np.eye(n).ravel()])
        if n > 1:
            _check_path_independence(fibre, start, chart)
    else:
        fibre, start = ef.vbasis, z0
    stages += [Stage(fld, f"y{i + 1}") for i, fld in enumerate(fibre)]
    return CoordinateTransform(report, ef, start, stages)


# --------------------------------------------------------------------------
# Residual evaluation on a grid
# --------------------------------------------------------------------------

@dataclass
class ResidualReport:
    grid_shape: tuple
    extent: list
    node_count: int
    max_t_residual: float
    median_t_residual: float
    max_structural_residual: float
    crosscheck_nodes: int
    max_crosscheck_residual: float
    max_jacobian_gap: float
    flagged_nodes: int
    fibre_min_sv: float
    # field_in_final_chart's (values, final, failures) of the fit nodes, when
    # the caller sent some; not part of the report
    fit_stencil: Optional[tuple] = field(default=None, repr=False,
                                         compare=False)

    def as_dict(self) -> dict:
        return {
            "grid_shape": list(self.grid_shape),
            "extent": self.extent,
            "node_count": self.node_count,
            "max_t_residual": self.max_t_residual,
            "median_t_residual": self.median_t_residual,
            "max_structural_residual": self.max_structural_residual,
            "crosscheck_nodes": self.crosscheck_nodes,
            "max_crosscheck_residual": self.max_crosscheck_residual,
            "max_jacobian_gap": self.max_jacobian_gap,
            "flagged_nodes": self.flagged_nodes,
            "fibre_min_sv": self.fibre_min_sv,
        }


def default_grid_points(m: int) -> int:
    if m <= 4:
        return 10
    if m <= 6:
        return 5
    raise AnalysisError("desk-scale cap: charts up to dimension 6")


def default_extent(chart: Chart) -> float:
    return 0.35 * min(0.5 * (hi - lo) for lo, hi in chart.box)


def _mesh(axes) -> np.ndarray:
    """Every node of the grid with the given axes, one row each, C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=1)


def pushforward_residuals(transform: CoordinateTransform,
                          grid_points: Optional[int] = None,
                          extent: Optional[float] = None,
                          fit_nodes=None) -> ResidualReport:
    """Structural residuals of the pushed-forward field on a parameter grid.

    t-components are compared against their target (zero, or one for the
    flow-time coordinate); x-components equal the redefined fibre coordinates
    by construction, so the independent five-point stencil along the F-flow
    is used as the sanity cross-check on a capped subsample of nodes, along
    with a finite-difference check of the variational Jacobian.

    One `map_batch` maps the grid nodes, then the `fit_nodes`
    (`quadratic_nodes`) when given, then the fibre check's `fibre_rows`,
    then the `fd_rows` of every stride-th node, the cross-check's
    candidates; rows that share a prefix share its flows.  The stencils
    start from the walk's rows of their nodes: the cross-check's along the
    F-flow, the fit nodes' along the straight line, both in one
    `field_in_final_chart` call.  The fit's stencil is returned as
    `fit_stencil` and enters no residual.  Only the shifted rows of the
    candidates that pass the cross-check enter the Jacobian gap."""
    m = transform.m
    n = transform.n
    tc = transform.t_count
    g = grid_points if grid_points is not None else default_grid_points(m)
    ext = extent if extent is not None else default_extent(transform.chart)
    axis = np.linspace(-ext, ext, g)
    nodes = _mesh([axis] * m)
    expected_t = np.array([
        1.0 if name == "t1" and transform.case == CASE2 else 0.0
        for name in transform.param_names[:tc]
    ])
    fit = np.zeros((0, m)) if fit_nodes is None else \
        np.asarray(fit_nodes, dtype=float)
    count = len(nodes)
    stride = max(1, count // CROSSCHECK_CAP)
    candidates = np.arange(0, count, stride)
    # the grid, fit, fibre and shifted rows in one walk, then the linear
    # algebra of all nodes at once; a node that fails or is ill-conditioned
    # is flagged
    parts = [nodes, fit, transform.fibre_rows(np.zeros(m)),
             fd_rows(nodes[candidates])]
    offset = np.cumsum([0] + [len(rows) for rows in parts])
    walked = transform.map_batch(np.concatenate(parts))
    z, J, failed = walked
    live = _live_rows(count, [k for k in failed if k < count])
    # every node live (the usual case): views, not copies of the walk's rows
    rows = slice(0, count) if live.size == count else live
    ok = np.zeros(count, dtype=bool)
    if live.size:
        v, singular = transform._pushforward_batch(z[rows], J[rows])
        ok[live] = _well_conditioned(J[rows])
        ok[live[list(singular)]] = False
    if not ok.any():
        raise NumericFailure("every grid node was flagged or failed")
    v = v[ok[live]]
    t_arr = (np.max(np.abs(v[:, :tc] - expected_t), axis=1) if tc
             else np.zeros(len(v)))
    # independent cross-check on every candidate that is not flagged, its
    # stencils solved together with those of the fit nodes: a failure flags
    # only its own row
    picked = candidates[ok[candidates]]
    c = len(picked)
    values, final, failures = transform.field_in_final_chart(
        np.concatenate([nodes[picked], fit]),
        _take(walked, np.concatenate([picked,
                                      offset[1] + np.arange(len(fit))])),
        fit=len(fit))
    fit_failures = {k - c: err for k, err in failures.items() if k >= c}
    passed = _live_rows(c, [k for k in failures if k < c])
    max_cross = 0.0
    max_jgap = 0.0
    checked = 0
    for k in passed:
        fin = values[k]
        ytilde = final[k, tc + n:]
        gap_x = float(np.max(np.abs(fin[tc: tc + n] - ytilde)))
        gap_t = float(np.max(np.abs(fin[:tc] - expected_t))) if tc else 0.0
        max_cross = max(max_cross, gap_x, gap_t)
    # the finite-difference Jacobians of every node that passed, from the
    # walk's shifted rows
    fd_nodes = picked[passed]
    shifted = (offset[3] + 2 * m * (fd_nodes // stride)[:, None]
               + np.arange(2 * m)).ravel()
    Jf, fd_failures = transform.jacobian_fd(nodes[fd_nodes],
                                            _take(walked, shifted))
    for i, index in enumerate(fd_nodes):
        if i in fd_failures:
            continue
        Jv = J[index]
        scale = max(1.0, float(np.max(np.abs(Jv))))
        max_jgap = max(max_jgap, float(np.max(np.abs(Jv - Jf[i]))) / scale)
        checked += 1
    if not checked:
        raise NumericFailure("no grid node passed the cross-check")
    fibre_sv = transform.fibre_jacobian_min_sv(
        np.zeros(m), _take(walked, np.arange(offset[2], offset[3])))
    # for m = 2n there is no t-block; the stencil cross-check is then the
    # substantive structural residual
    structural = max(float(np.max(t_arr)), max_cross)
    return ResidualReport(
        grid_shape=tuple([g] * m),
        extent=[float(ext)] * m,
        node_count=len(t_arr),
        max_t_residual=float(np.max(t_arr)),
        median_t_residual=_median(t_arr),
        max_structural_residual=structural,
        crosscheck_nodes=checked,
        max_crosscheck_residual=max_cross,
        max_jacobian_gap=max_jgap,
        flagged_nodes=count - len(t_arr),
        fibre_min_sv=fibre_sv,
        fit_stencil=None if fit_nodes is None else (
            values[c:], final[c:], fit_failures),
    )


def quadratic_nodes(transform: CoordinateTransform) -> np.ndarray:
    """The nodes of the quadratic fit: QUADRATIC_GRID^n fibre nodes over
    each of the 3^(m - n) base nodes, the fibre nodes of one base node
    consecutive."""
    n = transform.n
    ext = default_extent(transform.chart)
    return _mesh([np.linspace(-ext, ext, 3)] * (transform.m - n)
                 + [np.linspace(-ext, ext, QUADRATIC_GRID)] * n)


def extract_quadratic_coefficients(transform: CoordinateTransform,
                                   stencil=None) -> dict:
    """Fit force^k = G^k_ij y^i y^j + P^k_i y^i + Q^k per base node.

    Only sensible after a Quadratic verdict; the fit residual reports how
    well the force is represented by the quadratic model on the grid.  The
    force at a node p is D(ytilde)(p)*v, v the field in the parameter chart:
    the straight-line stencil of `field_in_final_chart`, which maps the
    nodes and then their line rows, with no F-flow and no Newton step.
    `stencil` is that triple when the caller has it already
    (`pushforward_residuals`'s `fit_stencil`); the extraction then only
    fits."""
    n, tc = transform.n, transform.t_count
    nodes = quadratic_nodes(transform)
    values, final, failures = (
        transform.field_in_final_chart(nodes, fit=len(nodes))
        if stencil is None else stencil)
    if failures:
        raise failures[min(failures)]
    per_base = QUADRATIC_GRID ** n
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    results = []
    max_fit_residual = 0.0
    for first in range(0, len(nodes), per_base):
        base = nodes[first, :tc + n]
        rows = []
        rhs = []
        for k in range(first, first + per_base):
            ytilde = final[k, tc + n:]
            row = [ytilde[i] * ytilde[j] for i, j in pairs]
            row += list(ytilde) + [1.0]
            rows.append(row)
            rhs.append(values[k, tc + n:])
        A = np.array(rows)
        B = np.array(rhs)
        sol, *_ = np.linalg.lstsq(A, B, rcond=None)
        fit_residual = float(np.max(np.abs(A @ sol - B)))
        max_fit_residual = max(max_fit_residual, fit_residual)
        entry = {
            "base": [float(v) for v in base],
            "fit_residual": fit_residual,
            "quadratic": {
                f"G[{k}][{i}{j}]": float(sol[p, k])
                for p, (i, j) in enumerate(pairs) for k in range(n)
            },
            "linear": {
                f"P[{k}][{i}]": float(sol[len(pairs) + i, k])
                for i in range(n) for k in range(n)
            },
            "constant": {
                f"Q[{k}]": float(sol[len(pairs) + n, k]) for k in range(n)
            },
        }
        results.append(entry)
    return {"max_fit_residual": max_fit_residual, "per_base_node": results}
