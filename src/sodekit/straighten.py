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

Jacobians of flow compositions are propagated by variational equations;
central finite differences serve as a cross-check only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .expressions import (
    EvalDomainError, Num, ZERO, compile_exprs, differentiate, free_symbols,
    normalize,
)
from .geometry import Chart, VectorField
from . import memo
from .analysis import (
    AnalysisError, AnalysisReport, CASE1, CASE2, ExtendedFrame,
)


class NumericFailure(RuntimeError):
    """Integration, root finding or conditioning failure (exit code 3)."""

    def __init__(self, message: str, last_point=None):
        super().__init__(message)
        self.last_point = last_point


@dataclass
class IntegratorSettings:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = np.inf
    method: str = "DOP853"
    box_slack: float = 1.0  # fraction of box width the trajectory may leave


DEFAULT_SETTINGS = IntegratorSettings()


def _component_evaluator(fld) -> Callable:
    if isinstance(fld, VectorField):
        return fld.evaluator()
    return fld  # already a callable point -> components


def _jacobian_evaluator(fld: VectorField, vectorized: bool = False):
    """Compiled Jacobian of the field, row-major."""
    names = fld.chart.names
    key = ("jacobian", fld.components, names, vectorized)
    hit = memo.get(key)
    return hit if hit is not None else memo.put(key, compile_exprs(
        [differentiate(c, n) for c in fld.components for n in names], names,
        vectorized))


def _is_constant_field(fld) -> Optional[np.ndarray]:
    if isinstance(fld, VectorField):
        if all(not free_symbols(c) for c in fld.components):
            return fld.at([0.0] * fld.chart.dim)
    return None


def integrate_flow(fld, z, s: float,
                   settings: IntegratorSettings = DEFAULT_SETTINGS,
                   chart: Optional[Chart] = None) -> np.ndarray:
    """Endpoint of the flow of `fld` from z over parameter time s."""
    z = np.asarray(z, dtype=float)
    if s == 0.0:
        return z.copy()
    const = _is_constant_field(fld)
    if const is not None:
        end = z + s * const
    else:
        ev = _component_evaluator(fld)

        def rhs(_t, state):
            return ev(tuple(state))

        try:
            sol = solve_ivp(rhs, (0.0, s), z, method=settings.method,
                            rtol=settings.rtol, atol=settings.atol,
                            max_step=settings.max_step, dense_output=False)
        except EvalDomainError as err:
            raise NumericFailure(f"flow hit a domain error: {err}",
                                 last_point=tuple(z)) from err
        if not sol.success:
            raise NumericFailure(f"flow integration failed: {sol.message}",
                                 last_point=tuple(sol.y[:, -1]))
        end = sol.y[:, -1]
    if chart is not None and not _within_slack(end, chart, settings.box_slack):
        raise NumericFailure(
            "flow left the sampling box (beyond the allowed slack)",
            last_point=tuple(end),
        )
    return end


def _within_slack(point, chart: Chart, slack_fraction: float) -> bool:
    for x, (lo, hi) in zip(point, chart.box):
        pad = slack_fraction * (hi - lo)
        if not (lo - pad <= x <= hi + pad):
            return False
    return True


def integrate_flow_with_jacobian(fld, z, s: float,
                                 settings: IntegratorSettings = DEFAULT_SETTINGS):
    """Endpoint and flow-map Jacobian, via the variational equations."""
    z = np.asarray(z, dtype=float)
    m = z.size
    if s == 0.0:
        return z.copy(), np.eye(m)
    const = _is_constant_field(fld)
    if const is not None:
        return z + s * const, np.eye(m)
    if isinstance(fld, VectorField):
        ev = fld.evaluator()
        jac = _jacobian_evaluator(fld)

        def rhs(_t, state):
            point = tuple(state[:m])
            f = ev(point)
            J = np.array(jac(point), dtype=float).reshape(m, m)
            dJ = J @ state[m:].reshape(m, m)
            return np.concatenate([np.array(f), dJ.ravel()])

        y0 = np.concatenate([z, np.eye(m).ravel()])
        try:
            sol = solve_ivp(rhs, (0.0, s), y0, method=settings.method,
                            rtol=settings.rtol, atol=settings.atol,
                            max_step=settings.max_step)
        except EvalDomainError as err:
            raise NumericFailure(f"variational flow hit a domain error: {err}",
                                 last_point=tuple(z)) from err
        if not sol.success:
            raise NumericFailure(
                f"variational flow failed: {sol.message}",
                last_point=tuple(sol.y[:m, -1]),
            )
        end = sol.y[:, -1]
        return end[:m], end[m:].reshape(m, m)
    # callable field without symbolic jacobian: difference the flow map
    end = integrate_flow(fld, z, s, settings)
    J = np.empty((m, m))
    h = 1e-6
    for a in range(m):
        zp = z.copy()
        zm = z.copy()
        zp[a] += h
        zm[a] -= h
        J[:, a] = (integrate_flow(fld, zp, s, settings)
                   - integrate_flow(fld, zm, s, settings)) / (2 * h)
    return end, J


# --------------------------------------------------------------------------
# Batched flows: many members of one stage in a single solve_ivp call
# --------------------------------------------------------------------------

class _MemberErrors(Exception):
    """Raised inside a batched right-hand side: member index -> domain error."""

    def __init__(self, errors: dict):
        super().__init__(f"{len(errors)} members hit a domain error")
        self.errors = errors


def integrate_flows(fld, z, s, settings: IntegratorSettings = DEFAULT_SETTINGS,
                    with_jacobian: bool = False,
                    chart: Optional[Chart] = None) -> tuple:
    """`integrate_flow` (or, `with_jacobian`, `integrate_flow_with_jacobian`)
    from each row of z over its own time s[k], all members in one solve_ivp
    call: the flow of X for time s is the flow of sX for time 1.

    Returns (ends (K, m), Jacobians (K, m, m) or None, failures), failures
    mapping each failed member to its NumericFailure; a failed member's rows
    are NaN and do not spoil the others.  rtol and atol are scaled by
    1/sqrt(K): scipy's error norm is an RMS over all components, so each
    member's own norm stays within the per-member tolerance.  `chart` adds
    the box-slack check of `integrate_flow`."""
    z = np.array(z, dtype=float)
    s = np.asarray(s, dtype=float)
    m = z.shape[1]
    jac = np.tile(np.eye(m), (len(z), 1, 1)) if with_jacobian else None
    failures: dict = {}
    moving = np.flatnonzero(s != 0.0)
    const = _is_constant_field(fld)
    if const is not None:
        z[moving] = z[moving] + s[moving, None] * const
    elif isinstance(fld, VectorField):
        _solve_members(fld, z, jac, s, moving, settings, failures)
    else:  # a callable field has no vectorized evaluator
        for k in moving:
            try:
                if with_jacobian:
                    z[k], jac[k] = integrate_flow_with_jacobian(
                        fld, z[k], s[k], settings)
                else:
                    z[k] = integrate_flow(fld, z[k], s[k], settings)
            except NumericFailure as err:
                failures[int(k)] = err
    if chart is not None:
        for k in moving:
            if k not in failures and not _within_slack(z[k], chart,
                                                       settings.box_slack):
                failures[int(k)] = NumericFailure(
                    "flow left the sampling box (beyond the allowed slack)",
                    last_point=tuple(z[k]))
    for k in failures:
        z[k] = np.nan
        if jac is not None:
            jac[k] = np.nan
    return z, jac, failures


def _solve_members(fld: VectorField, z, jac, s, members, settings,
                   failures: dict):
    """Integrate the given members of z (and jac) in place, together."""
    m = z.shape[1]
    ev = compile_exprs(fld.components, fld.chart.names, vectorized=True)
    dev = _jacobian_evaluator(fld, vectorized=True) if jac is not None \
        else None
    what = "flow" if jac is None else "variational flow"
    while members.size:
        K = members.size
        scale = s[members]

        def rhs(_t, y):
            state = y.reshape(K, -1)
            points = state[:, :m].T
            f, errors = ev(points)
            if dev is not None:
                D, d_errors = dev(points)
                errors = {**d_errors, **errors}
            if errors:
                raise _MemberErrors(errors)
            out = np.empty_like(state)
            out[:, :m] = scale[:, None] * f.T
            if dev is not None:
                D = D.reshape(m, m, K).transpose(2, 0, 1)
                out[:, m:] = (scale[:, None, None] * (
                    D @ state[:, m:].reshape(K, m, m))).reshape(K, -1)
            return out.ravel()

        y0 = z[members] if jac is None else np.hstack(
            [z[members], jac[members].reshape(K, m * m)])
        shrink = np.sqrt(K)
        try:
            sol = solve_ivp(rhs, (0.0, 1.0), y0.ravel(), method=settings.method,
                            rtol=settings.rtol / shrink,
                            atol=settings.atol / shrink,
                            max_step=settings.max_step / np.max(np.abs(scale)))
        except _MemberErrors as err:
            for i, e in err.errors.items():
                k = int(members[i])
                failures[k] = NumericFailure(f"{what} hit a domain error: {e}",
                                             last_point=tuple(z[k]))
            members = np.delete(members, list(err.errors))
            continue
        if not sol.success and K > 1:
            # the batch cannot tell which member failed: solve each alone
            for k in members:
                _solve_members(fld, z, jac, s, np.array([k]), settings,
                               failures)
            return
        end = sol.y[:, -1].reshape(K, -1)
        if not sol.success:
            k = int(members[0])
            failures[k] = NumericFailure(
                ("flow integration failed: " if jac is None
                 else "variational flow failed: ") + sol.message,
                last_point=tuple(end[0, :m]))
            return
        z[members] = end[:, :m]
        if jac is not None:
            jac[members] = end[:, m:].reshape(K, m, m)
        return


def _field_values(fld, z) -> tuple:
    """Values of a stage field at each row of z: (values (K, m), failures)."""
    if isinstance(fld, VectorField):
        values, errors = compile_exprs(fld.components, fld.chart.names,
                                       vectorized=True)(z.T)
        return values.T, {
            k: NumericFailure(f"field hit a domain error: {e}",
                              last_point=tuple(z[k]))
            for k, e in errors.items()}
    values = np.full_like(z, np.nan)
    failures = {}
    for k, point in enumerate(z):
        try:
            values[k] = fld(tuple(point))
        except NumericFailure as err:
            failures[k] = err
        except EvalDomainError as err:
            failures[k] = NumericFailure(f"field hit a domain error: {err}",
                                         last_point=tuple(point))
    return values, failures


def _solve_each(A, b, message: str, points) -> tuple:
    """np.linalg.solve(A[k], b[k]) for each member: (x, failures), a singular
    member flagged with `message`."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], {}
    except np.linalg.LinAlgError:
        x = np.full_like(b, np.nan)
        failures = {}
        for k in range(len(b)):
            try:
                x[k] = np.linalg.solve(A[k], b[k])
            except np.linalg.LinAlgError:
                failures[k] = NumericFailure(message,
                                             last_point=tuple(points[k]))
        return x, failures


def _keep_live(failures: dict, owners, recorded: dict, *arrays) -> tuple:
    """Record each failed member's failure under its owner (the first one
    recorded wins) and return the owners and rows of the other members."""
    for i, err in failures.items():
        recorded.setdefault(int(owners[i]), err)
    live = np.ones(len(owners), dtype=bool)
    live[list(failures)] = False
    return (owners[live],) + tuple(a[live] for a in arrays)


# --------------------------------------------------------------------------
# Numeric basis transport (the linear system of the commuting-basis change)
# --------------------------------------------------------------------------

@dataclass
class CrossSection:
    base_point: tuple
    directions: np.ndarray  # m x (m - n), transversal to the V-span


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


def default_cross_section(ef: ExtendedFrame) -> CrossSection:
    """Complete the V-span at the box center by singular-vector directions."""
    z0 = ef.chart.center()
    return CrossSection(base_point=tuple(z0),
                        directions=_completion_directions(ef.vbasis, z0))


def solve_basis_ode(bc, section: CrossSection, vbasis: Sequence[VectorField],
                    settings: IntegratorSettings = DEFAULT_SETTINGS,
                    path_check_tol: float = 1e-7) -> Callable:
    """Numeric matrix A(z) with V_l(A^k_j) + A^m_j w^k_lm = 0 and A = id on
    the cross-section.

    For a target z the section parameters and fibre times are solved by
    Newton iteration on the composed V-flows, then A is transported along
    that fibre path coordinate direction by coordinate direction.  Path
    independence (guaranteed by the integrability identities) is spot-checked
    by re-running with the flow order reversed."""
    n = len(vbasis)
    chart = vbasis[0].chart
    m = chart.dim
    z0 = np.asarray(section.base_point, dtype=float)
    dirs = np.asarray(section.directions, dtype=float)
    if dirs.shape != (m, m - n):
        raise AnalysisError("cross-section directions must be m x (m-n)")
    names = chart.names
    beta_fns = [
        [compile_exprs([bc.w[l][j][k] for k in range(n)], names)
         for j in range(n)]
        for l in range(n)
    ]
    v_evals = [v.evaluator() for v in vbasis]

    def fibre_map(params, order):
        s = params[: m - n]
        y = params[m - n:]
        z = z0 + dirs @ s
        J = dirs.copy()  # d z / d s
        Jy = np.zeros((m, n))
        for pos, l in enumerate(order):
            z, Jf = integrate_flow_with_jacobian(vbasis[l], z, y[l], settings)
            J = Jf @ J
            Jy = Jf @ Jy
            Jy[:, l] = np.array(v_evals[l](tuple(z)))
        return z, np.hstack([J, Jy])

    def transport(z_target, order):
        params = np.zeros(m)
        target = np.asarray(z_target, dtype=float)
        for it in range(60):
            z, J = fibre_map(params, order)
            r = z - target
            if np.max(np.abs(r)) < 1e-11:
                break
            try:
                step = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                raise NumericFailure(
                    "singular Jacobian while locating the fibre path",
                    last_point=tuple(z),
                ) from None
            params = params + step
        else:
            raise NumericFailure(
                "fibre-path Newton iteration did not converge",
                last_point=tuple(z_target),
            )
        s = params[: m - n]
        y = params[m - n:]
        z = z0 + dirs @ s
        A = np.eye(n)
        for l in order:
            if y[l] == 0.0:
                continue
            ev = v_evals[l]
            beta_row = beta_fns[l]

            def rhs(_t, state):
                point = tuple(state[:m])
                f = ev(point)
                A_mat = state[m:].reshape(n, n)
                B = np.array(
                    [beta_row[j](point) for j in range(n)], dtype=float
                ).T  # B[k, j] = w^k_{l j}... built from per-j rows
                dA = -B @ A_mat
                return np.concatenate([np.array(f), dA.ravel()])

            y0 = np.concatenate([z, A.ravel()])
            sol = solve_ivp(rhs, (0.0, y[l]), y0, method=settings.method,
                            rtol=settings.rtol, atol=settings.atol)
            if not sol.success:
                raise NumericFailure(
                    f"basis transport failed: {sol.message}",
                    last_point=tuple(sol.y[:m, -1]),
                )
            z = sol.y[:m, -1]
            A = sol.y[m:, -1].reshape(n, n)
            if abs(np.linalg.det(A)) < 1e-10:
                raise NumericFailure(
                    "transported basis matrix became singular",
                    last_point=tuple(z),
                )
        return A

    checked = {"done": False}

    def evaluator(z_target) -> np.ndarray:
        A = transport(z_target, list(range(n)))
        if not checked["done"] and n > 1:
            A_rev = transport(z_target, list(reversed(range(n))))
            gap = float(np.max(np.abs(A - A_rev)))
            if gap > path_check_tol:
                raise NumericFailure(
                    f"basis transport is path dependent (gap {gap:.2e}); "
                    "integrability identities are not holding numerically"
                )
            checked["done"] = True
        return A

    return evaluator


# --------------------------------------------------------------------------
# The coordinate transform
# --------------------------------------------------------------------------

class StencilBatch(NamedTuple):
    """`CoordinateTransform.field_in_final_chart` on a stack of K nodes."""
    values: np.ndarray   # K x m, F in the final chart
    final: np.ndarray    # K x m, final coordinates of each node
    failures: list       # per node its first NumericFailure, or None


@dataclass
class Stage:
    kind: str      # "t", "x", "y"
    fld: object    # VectorField or callable
    label: str


class CoordinateTransform:
    """Numeric chart (t^p, x^i, y^i) -> point of M built from composed flows.

    Parameters are applied innermost first in the stored stage order;
    the Jacobian is propagated by variational equations alongside each flow.
    After the forward map, fibre coordinates are redefined as the
    x-components of the pushed-forward field (`final_coords`).

    `map_with_jacobian` keeps the state (s_k, z_k, J_k) after each stage of
    its last evaluation and resumes after the longest leading run of equal
    parameters, so grid nodes in C order share their inner flows; results
    are the same in any order.  Not safe to share between threads.

    `map_batch`, `invert` and `field_in_final_chart` work on stacks of
    parameter rows, every flow stage of all rows in one solve_ivp call; a
    row that fails is flagged alone and leaves the others as they are."""

    def __init__(self, report: AnalysisReport, ef: ExtendedFrame,
                 z0, stages: Sequence[Stage],
                 settings: IntegratorSettings = DEFAULT_SETTINGS):
        self.report = report
        self.ef = ef
        self.chart = ef.chart
        self.F = ef.problem.F
        self.case = report.classification
        self.z0 = np.asarray(z0, dtype=float)
        self.stages = list(stages)
        self.settings = settings
        self.m = self.chart.dim
        self.n = ef.n
        if len(self.stages) != self.m:
            raise AnalysisError("need exactly one stage per coordinate")
        self.param_names = [st.label for st in self.stages]
        self.t_count = self.m - 2 * self.n
        self._stage_state: list = []
        _, J0 = self.map_with_jacobian(np.zeros(self.m))
        self.base_condition = float(np.linalg.cond(J0))
        if not np.isfinite(self.base_condition) or self.base_condition > 1e8:
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

    def map_params(self, params) -> np.ndarray:
        z = self.z0.copy()
        for st, s in zip(self.stages, params):
            z = integrate_flow(st.fld, z, float(s), self.settings, self.chart)
        return z

    def map_with_jacobian(self, params):
        params = [float(s) for s in params]
        state = self._stage_state
        k = 0
        while k < len(state) and state[k][0] == params[k]:
            k += 1
        del state[k:]
        z, J = state[-1][1:] if state else (self.z0, np.zeros((self.m, 0)))
        for st, s in zip(self.stages[k:], params[k:]):
            z, Jf = integrate_flow_with_jacobian(st.fld, z, s, self.settings)
            J = Jf @ J if J.size else J
            ev = _component_evaluator(st.fld)
            col = np.array(ev(tuple(z)), dtype=float).reshape(self.m, 1)
            J = np.hstack([J, col]) if J.size else col
            state.append((s, z, J))
        return z.copy(), J.copy()

    def map_batch(self, params, guard: bool = False) -> tuple:
        """`map_with_jacobian` of each row of params, every stage integrated
        for all rows together: (z (K, m), J (K, m, m), failures).  `guard`
        adds the box-slack check of `map_params` after each stage."""
        params = np.asarray(params, dtype=float)
        K, m = params.shape
        z = np.tile(self.z0, (K, 1))
        J = np.zeros((K, m, 0))
        failures: dict = {}
        live = np.arange(K)
        for k, st in enumerate(self.stages):
            zk, Jf, errs = integrate_flows(
                st.fld, z[live], params[live, k], self.settings,
                with_jacobian=True, chart=self.chart if guard else None)
            col, col_errs = _field_values(st.fld, zk)
            grown = np.full((K, m, k + 1), np.nan)
            grown[live, :, :k] = Jf @ J[live]
            grown[live, :, k] = col
            z[live] = zk
            J = grown
            live, = _keep_live({**col_errs, **errs}, live, failures)
        dead = list(failures)
        z[dead] = np.nan
        J[dead] = np.nan
        return z, J, failures

    def invert(self, z_targets, guesses, tol: float = 1e-10,
               max_iter: int = 50) -> tuple:
        """Newton inversion of the map for each row of z_targets, all members
        stepping together and converged members dropping out:
        (params, z, J, failures) with z, J the map at the returned params."""
        targets = np.asarray(z_targets, dtype=float)
        params = np.array(guesses, dtype=float)
        z = np.full_like(params, np.nan)
        J = np.full((len(params), self.m, self.m), np.nan)
        failures: dict = {}
        live = np.arange(len(params))
        for _ in range(max_iter):
            if not live.size:
                break
            zl, Jl, errs = self.map_batch(params[live])
            live, zl, Jl = _keep_live(errs, live, failures, zl, Jl)
            r = zl - targets[live]
            done = np.max(np.abs(r), axis=1) < tol
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
        """params (one node or a stack) with the y-block replaced by the
        x-components of the pushed field v."""
        out = np.array(params, dtype=float)
        tc, n = self.t_count, self.n
        out[..., tc + n:] = v[..., tc: tc + n]
        return out

    def pushforward_components(self, params):
        """(components of F in the raw parameter chart, condition number)."""
        z, J = self.map_with_jacobian(params)
        f = self.F.at(z)
        cond = float(np.linalg.cond(J))
        try:
            v = np.linalg.solve(J, f)
        except np.linalg.LinAlgError:
            raise NumericFailure("singular Jacobian in pushforward",
                                 last_point=tuple(z)) from None
        return v, cond

    def final_coords(self, params) -> np.ndarray:
        """(t, x, ytilde) with ytilde = x-components of the pushed field."""
        v, _ = self.pushforward_components(params)
        return self._with_fibre(params, v)

    def fibre_jacobian_min_sv(self, params, h: float = 1e-5) -> float:
        """Smallest singular value of d(ytilde)/d(y_raw): the fibre
        redefinition must be invertible (with an adapted commuting basis it
        is the identity in exact arithmetic), checked numerically."""
        tc, n = self.t_count, self.n
        G = np.empty((n, n))
        for a in range(n):
            up = np.array(params, float)
            dn = np.array(params, float)
            up[tc + n + a] += h
            dn[tc + n + a] -= h
            G[:, a] = (self.final_coords(up)[tc + n:]
                       - self.final_coords(dn)[tc + n:]) / (2 * h)
        return float(np.linalg.svd(G, compute_uv=False)[-1])

    def field_in_final_chart(self, params, step: float = 1e-2):
        """All components of F in the final chart by a five-point stencil
        along the F-flow through each node (independent of the variational
        route).  The stencil points of all nodes are solved together.

        `params` is one node or a (K, m) stack of nodes.  For one node the
        result is the components, or its NumericFailure is raised.  For a
        stack it is a StencilBatch: per node the components, the node's final
        coordinates, and its first failure (rows of a failed node are NaN)."""
        nodes = np.asarray(params, dtype=float)
        if nodes.ndim == 1:
            batch = self.field_in_final_chart(nodes[None, :], step)
            if batch.failures[0] is not None:
                raise batch.failures[0]
            return batch.values[0]
        K, m = nodes.shape
        failures: dict = {}
        z, J, errs = self.map_batch(nodes, guard=True)
        live, z, J, live_nodes = _keep_live(errs, np.arange(K), failures,
                                            z, J, nodes)
        v, errs = self._pushforward_batch(z, J)
        live, z, v, live_nodes = _keep_live(errs, live, failures,
                                            z, v, live_nodes)
        final = np.full((K, m), np.nan)
        final[live] = self._with_fibre(live_nodes, v)
        # the four stencil points of each live node, consecutive
        owner = np.repeat(np.arange(len(live)), 4)
        shift = np.tile(step * np.array([-2.0, -1.0, 1.0, 2.0]), len(live))
        point_failures: dict = {}
        zs, _, errs = integrate_flows(self.F, z[owner], shift, self.settings)
        points, zs, guesses = _keep_live(
            errs, np.arange(len(owner)), point_failures,
            zs, live_nodes[owner] + shift[:, None] * v[owner])
        ps, zp, Jp, errs = self.invert(zs, guesses)
        points, ps, zp, Jp = _keep_live(errs, points, point_failures,
                                        ps, zp, Jp)
        vp, errs = self._pushforward_batch(zp, Jp)
        points, ps, vp = _keep_live(errs, points, point_failures, ps, vp)
        samples = np.full((len(owner), m), np.nan)
        samples[points] = self._with_fibre(ps, vp)
        for p in sorted(point_failures):
            failures.setdefault(int(live[owner[p]]), point_failures[p])
        s4 = samples.reshape(len(live), 4, m)
        values = np.full((K, m), np.nan)
        values[live] = (s4[:, 0] - 8 * s4[:, 1] + 8 * s4[:, 2]
                        - s4[:, 3]) / (12 * step)
        final[list(failures)] = np.nan
        return StencilBatch(values, final,
                            [failures.get(k) for k in range(K)])

    def jacobian_fd(self, params, h: float = 1e-5) -> np.ndarray:
        J = np.empty((self.m, self.m))
        for a in range(self.m):
            up = np.array(params, float)
            dn = np.array(params, float)
            up[a] += h
            dn[a] -= h
            J[:, a] = (self.map_params(up) - self.map_params(dn)) / (2 * h)
        return J


def _tilt_to_locus(fld: VectorField, b_exprs, vbasis) -> VectorField:
    """Add vertical corrections so the field is tangent to {b = 0}
    (valid because V_k(b^j) = -delta^j_k in the adapted basis)."""
    out = fld
    for k, v in enumerate(vbasis):
        corr = normalize(fld.directional(b_exprs[k]))
        if corr != ZERO:
            out = out + v.scaled(corr)
    return out


def _constant_direction_field(chart: Chart, direction) -> VectorField:
    from fractions import Fraction
    comps = [Num(Fraction(float(d))) for d in direction]
    return VectorField(chart, comps)


def build_normal_coordinates(report: AnalysisReport,
                             settings: IntegratorSettings = DEFAULT_SETTINGS
                             ) -> CoordinateTransform:
    """Assemble the flow-composition chart for a classified problem."""
    if report.classification not in (CASE1, CASE2):
        raise AnalysisError(
            f"cannot straighten a problem classified {report.classification}"
        )
    ef = report.extended
    chart = ef.chart
    n = ef.n
    m = chart.dim
    adaptation = report.adaptation
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
                stages.append(Stage("t", tilted, f"t{p + 1}"))
        for i, w in enumerate(ef.wfields):
            tangent = _tilt_to_locus(w, b_exprs, ef.vbasis)
            stages.append(Stage("x", tangent.scaled(Num(-1)), f"x{i + 1}"))
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
                    "t", _constant_direction_field(chart, col), f"t{p + 2}"
                ))
        stages.append(Stage("t", ef.problem.F, "t1"))
        for i, w in enumerate(ef.wfields):
            stages.append(Stage("x", w.scaled(Num(-1)), f"x{i + 1}"))

    if adaptation is not None and adaptation.mode == "numeric" \
            and adaptation.evaluator is not None:
        v_evals = [v.evaluator() for v in ef.vbasis]

        def make_field(index):
            def call(point):
                A = adaptation.evaluator(point)
                cols = np.array([ev(point) for ev in v_evals], dtype=float)
                return tuple(A[:, index] @ cols)
            return call

        for i in range(n):
            stages.append(Stage("y", make_field(i), f"y{i + 1}"))
    else:
        for i, v in enumerate(ef.vbasis):
            stages.append(Stage("y", v, f"y{i + 1}"))

    return CoordinateTransform(report, ef, z0, stages, settings)


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


def pushforward_residuals(transform: CoordinateTransform,
                          grid_points: Optional[int] = None,
                          extent: Optional[float] = None,
                          crosscheck_cap: int = 12,
                          cond_limit: float = 1e8) -> ResidualReport:
    """Structural residuals of the pushed-forward field on a parameter grid.

    t-components are compared against their target (zero, or one for the
    flow-time coordinate); x-components equal the redefined fibre coordinates
    by construction, so the independent five-point stencil along the F-flow
    is used as the sanity cross-check on a capped subsample of nodes, along
    with a finite-difference check of the variational Jacobian."""
    m = transform.m
    n = transform.n
    tc = transform.t_count
    g = grid_points if grid_points is not None else default_grid_points(m)
    ext = extent if extent is not None else default_extent(transform.chart)
    axes = [np.linspace(-ext, ext, g) for _ in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([ax.ravel() for ax in mesh], axis=1)
    expected_t = np.array([
        1.0 if name == "t1" and transform.case == CASE2 else 0.0
        for name in transform.param_names[:tc]
    ])
    # the cross-check reuses the condition numbers of its strided nodes
    stride = max(1, len(nodes) // crosscheck_cap)
    strided_conds = []
    t_residuals = []
    flagged = 0
    for i, node in enumerate(nodes):
        try:
            v, cond = transform.pushforward_components(node)
        except NumericFailure:
            flagged += 1
            cond = None
        if i % stride == 0:
            strided_conds.append(cond)
        if cond is None:
            continue
        if cond > cond_limit:
            flagged += 1
            continue
        if tc:
            t_residuals.append(float(np.max(np.abs(v[:tc] - expected_t))))
        else:
            t_residuals.append(0.0)
    if not t_residuals:
        raise NumericFailure("every grid node was flagged or failed")
    # independent cross-check on a subsample, its stencils solved together
    checked_nodes = [node for node, cond in zip(nodes[::stride], strided_conds)
                     if cond is not None and cond <= cond_limit]
    max_cross = 0.0
    max_jgap = 0.0
    checked = 0
    try:
        batch = transform.field_in_final_chart(np.array(checked_nodes)) \
            if checked_nodes else None
    except NumericFailure:
        batch = None
    for k, node in enumerate(checked_nodes if batch is not None else ()):
        if batch.failures[k] is not None:
            continue
        fin = batch.values[k]
        ytilde = batch.final[k, tc + n:]
        gap_x = float(np.max(np.abs(fin[tc: tc + n] - ytilde)))
        gap_t = float(np.max(np.abs(fin[:tc] - expected_t))) if tc else 0.0
        max_cross = max(max_cross, gap_x, gap_t)
        try:
            _, Jv = transform.map_with_jacobian(node)
            Jf = transform.jacobian_fd(node)
        except NumericFailure:
            continue
        scale = max(1.0, float(np.max(np.abs(Jv))))
        max_jgap = max(max_jgap, float(np.max(np.abs(Jv - Jf))) / scale)
        checked += 1
    fibre_sv = transform.fibre_jacobian_min_sv(np.zeros(m))
    t_arr = np.array(t_residuals)
    # for m = 2n there is no t-block; the stencil cross-check is then the
    # substantive structural residual
    structural = max(float(np.max(t_arr)), max_cross)
    return ResidualReport(
        grid_shape=tuple([g] * m),
        extent=[float(ext)] * m,
        node_count=len(t_residuals),
        max_t_residual=float(np.max(t_arr)),
        median_t_residual=float(np.median(t_arr)),
        max_structural_residual=structural,
        crosscheck_nodes=checked,
        max_crosscheck_residual=max_cross,
        max_jacobian_gap=max_jgap,
        flagged_nodes=flagged,
        fibre_min_sv=fibre_sv,
    )


def extract_quadratic_coefficients(transform: CoordinateTransform,
                                   grid_points: int = 5,
                                   extent: Optional[float] = None) -> dict:
    """Fit force^k = G^k_ij y^i y^j + P^k_i y^i + Q^k per base node.

    Only sensible after a Quadratic verdict; the fit residual reports how
    well the force is represented by the quadratic model on the grid."""
    m, n, tc = transform.m, transform.n, transform.t_count
    ext = extent if extent is not None else default_extent(transform.chart)
    base_axes = [np.linspace(-ext, ext, 3) for _ in range(tc + n)]
    y_axes = [np.linspace(-ext, ext, grid_points) for _ in range(n)]
    base_mesh = np.meshgrid(*base_axes, indexing="ij") if base_axes else []
    base_nodes = (np.stack([ax.ravel() for ax in base_mesh], axis=1)
                  if base_axes else np.zeros((1, 0)))
    y_mesh = np.meshgrid(*y_axes, indexing="ij")
    y_nodes = np.stack([ax.ravel() for ax in y_mesh], axis=1)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    batch = transform.field_in_final_chart(np.array(
        [np.concatenate([base, ypt]) for base in base_nodes for ypt in y_nodes]))
    first = next((err for err in batch.failures if err is not None), None)
    if first is not None:
        raise first
    results = []
    max_fit_residual = 0.0
    for b, base in enumerate(base_nodes):
        rows = []
        rhs = []
        for k in range(b * len(y_nodes), (b + 1) * len(y_nodes)):
            ytilde = batch.final[k, tc + n:]
            row = [ytilde[i] * ytilde[j] for i, j in pairs]
            row += list(ytilde) + [1.0]
            rows.append(row)
            rhs.append(batch.values[k, tc + n:])
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
