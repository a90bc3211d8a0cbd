"""DOP853, the explicit Runge-Kutta pair of order 8(5,3) of Hairer, Norsett
and Wanner (Solving ODEs I, Sec. II.10), stepping a batch of members at once.

Every member has its own time span, step size, error norm and accept/reject
decision.  The arithmetic of one member never mixes with another's, so a
member's trajectory is the one it has in a batch of one, to the last bit.
A member whose right-hand side fails leaves the batch and the others go on.
The step controller follows scipy's DOP853 operation for operation: the
initial step of `select_initial_step`, safety 0.9, step factors within
[0.2, 10], error exponent -1/8 and the combined 5th/3rd-order error norm.
There is no dense output and no record of the accepted steps: a run gives
each member's last time and state.  A member that has not reached its end
after MAX_ATTEMPTS step attempts fails, so every run ends.  A run raises no
floating-point warning: non-finite values fail their member.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

N_STAGES = 12

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])

A = np.zeros((N_STAGES, N_STAGES))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

B = np.zeros(N_STAGES)
B[0] = 5.42937341165687622380535766363e-2
B[5] = 4.45031289275240888144113950566
B[6] = 1.89151789931450038304281599044
B[7] = -5.8012039600105847814672114227
B[8] = 3.1116436695781989440891606237e-1
B[9] = -1.52160949662516078556178806805e-1
B[10] = 2.01365400804030348374776537501e-1
B[11] = 4.47106157277725905176885569043e-2

# The error estimates weigh the 12 stages and the derivative at the new point.
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 8      # -1 / (error estimator order 7 + 1)
MAX_ATTEMPTS = 1000          # step attempts per member, rejected ones too
SUCCESS = "The solver successfully reached the end of the integration interval."
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
OUT_OF_ATTEMPTS = f"The end was not reached in {MAX_ATTEMPTS} step attempts."

_A_ROWS = tuple(A[s, :s] for s in range(N_STAGES))


class StepFailure(ArithmeticError):
    """The step size of a member fell below the spacing of its time, or the
    member ran out of step attempts."""


class OdeResult(NamedTuple):
    """Each member's last time `t` (K,) and state `y` (K, d); for a failed
    member, the time and state of its last accepted step.  `nfev` counts
    right-hand-side calls; `failures` maps a failed member to its
    right-hand side's exception or a StepFailure."""
    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str
    failures: dict


def solve_ivp(fun, t_span, y0, rtol: float = 1e-3,
              atol: float = 1e-6) -> OdeResult:
    """Integrate y' = fun(t, y) from t_span[0] to t_span[1] by DOP853 for a
    batch of K members, the rows of y0 (K, d); either end of t_span may be
    an array of K times.

    fun(t, y) takes the (k,) times and (k, d) states of the members still
    running and returns (derivatives (k, d), errors), errors mapping a row
    to the exception its member hit.  That member fails and leaves the
    batch, and the others redo the step attempt, so the derivatives that
    come with errors are not used.  Any exception fun raises propagates."""
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 2:
        raise ValueError("y0 must hold one member per row, shape (K, d)")
    with np.errstate(all="ignore"):
        run = _Batch(fun, t_span, y0, rtol, atol)
    return OdeResult(run.t_end, run.y_end, run.nfev, not run.failures,
                     f"{len(run.failures)} members failed"
                     if run.failures else SUCCESS, run.failures)


def _norm(x) -> np.ndarray:
    """np.linalg.norm of each row, by the same BLAS dot."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _pow(x, p) -> np.ndarray:
    """x ** p per element by the C library's pow, as numpy computes it for a
    single float64; its vectorized power may differ in the last bit."""
    try:
        return np.array([v ** p for v in x.tolist()])
    except (OverflowError, ZeroDivisionError):
        with np.errstate(all="ignore"):
            return np.array([np.float64(v) ** p for v in x.tolist()])


class _Batch:
    """Integrates the members, one row each while they run.  A step attempt
    that meets a failed member is dropped and redone for the others, which
    gives them the same floats.  Every running member attempts once per
    loop, so the loop count bounds each member's attempts."""

    ROWS = ("who", "t", "t1", "sign", "y", "f", "h_abs", "rejected")

    def __init__(self, fun, t_span, y0, rtol, atol):
        t0, t1 = (np.broadcast_to(np.asarray(t, dtype=float), len(y0))
                  for t in t_span)
        self.fun, self.rtol, self.atol = fun, rtol, atol
        self.t_end, self.y_end = t0.copy(), y0.copy()
        self.failures, self.nfev = {}, 0
        self.who = np.flatnonzero(t1 != t0)
        self.t, self.t1, self.y = t0[self.who], t1[self.who], y0[self.who]
        self.sign = np.sign(self.t1 - self.t)
        self.f = self.h_abs = None
        self.rejected = np.zeros(len(self.who), dtype=bool)
        while len(self.who) and self.f is None:
            self.f = self._evaluate(self.t, self.y)
        while len(self.who) and self.h_abs is None:
            self.h_abs = self._initial_step()
        for _ in range(MAX_ATTEMPTS):
            if not len(self.who):
                break
            self._attempt()
        if len(self.who):
            running = np.arange(len(self.who))
            self._leave(running, {row: StepFailure(OUT_OF_ATTEMPTS)
                                  for row in running})

    def _leave(self, rows, errors=None):
        """Record the ends of the members in `rows`, failed with errors[row]
        if errors are given, and drop their rows."""
        self.t_end[self.who[rows]] = self.t[rows]
        self.y_end[self.who[rows]] = self.y[rows]
        for row in rows if errors else ():
            self.failures[int(self.who[row])] = errors[row]
        keep = np.ones(len(self.who), dtype=bool)
        keep[rows] = False
        for name in self.ROWS:
            if getattr(self, name) is not None:
                setattr(self, name, getattr(self, name)[keep])

    def _evaluate(self, t, y):
        """fun at the rows, or None when it failed on some: their members
        leave."""
        self.nfev += 1
        f, errors = self.fun(t, y)
        if errors:
            return self._leave(sorted(errors), errors)
        return f

    def _initial_step(self):
        """select_initial_step of each row (Hairer-Norsett-Wanner II.4)."""
        dim = self.y.shape[1] ** 0.5
        scale = self.atol + np.abs(self.y) * self.rtol
        d0 = _norm(self.y / scale) / dim
        d1 = _norm(self.f / scale) / dim
        h0 = np.full(len(d0), 1e-6)
        big = (d0 >= 1e-5) & (d1 >= 1e-5)
        h0[big] = 0.01 * d0[big] / d1[big]
        h0 = np.minimum(h0, np.abs(self.t1 - self.t))
        step = h0 * self.sign
        f1 = self._evaluate(self.t + step, self.y + step[:, None] * self.f)
        if f1 is None:
            return None
        d2 = _norm((f1 - self.f) / scale) / dim / h0
        flat = (d1 <= 1e-15) & (d2 <= 1e-15)
        h1 = np.maximum(1e-6, h0 * 1e-3)
        h1[~flat] = _pow(0.01 / np.maximum(d1, d2)[~flat], 1 / 8)
        return np.minimum(np.minimum(100 * h0, h1), np.abs(self.t1 - self.t))

    def _attempt(self):
        """One step attempt of every row: a row whose error norm is below one
        advances, the others retry with a smaller step."""
        t, y, sign = self.t, self.y, self.sign
        min_step = 10 * np.abs(np.nextafter(t, sign * np.inf) - t)
        h_abs = np.where(self.rejected, self.h_abs,
                         np.maximum(self.h_abs, min_step))
        stuck = np.flatnonzero(h_abs < min_step)
        if stuck.size:
            return self._leave(stuck, {row: StepFailure(TOO_SMALL_STEP)
                                       for row in stuck})
        t_new = t + h_abs * sign
        t_new = np.where(sign * t_new > sign * self.t1, self.t1, t_new)
        h = (t_new - t)[:, None]
        times = (t[:, None] + C * h).T   # the last stage, at t + h, has c = 1
        stages = np.empty((len(t), N_STAGES + 1, y.shape[1]))
        stages[:, 0] = self.f
        # np.matmul on each member's (d, s) stage columns makes the BLAS call
        # of np.dot(K[:s].T, a) for that member alone
        columns = stages.transpose(0, 2, 1)
        for s in range(1, N_STAGES + 1):
            y_new = np.matmul(columns[:, :, :s], _A_ROWS[s] if s < N_STAGES
                              else B)
            y_new *= h
            y_new += y
            k = self._evaluate(times[min(s, N_STAGES - 1)], y_new)
            if k is None:
                return None
            stages[:, s] = k
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        err5 = _pow(_norm(np.matmul(columns, E5) / scale), 2)
        err3 = _pow(_norm(np.matmul(columns, E3) / scale), 2)
        denom = err5 + 0.01 * err3
        h_abs = np.abs(h[:, 0])
        norm = np.divide(h_abs * err5, np.sqrt(denom * y.shape[1]),
                         out=np.zeros(len(t)), where=denom != 0)
        accepted = norm < 1
        power = SAFETY * _pow(norm, ERROR_EXPONENT)
        # an accepted retry does not grow the step
        grow = np.minimum(np.where(self.rejected, 1.0, MAX_FACTOR), power)
        if np.count_nonzero(accepted) == len(t):
            self.h_abs, self.t, self.y, self.f = h_abs * grow, t_new, y_new, k
        else:
            self.h_abs = h_abs * np.where(accepted, grow,
                                          np.fmax(MIN_FACTOR, power))
            self.t = np.where(accepted, t_new, t)
            self.y = np.where(accepted[:, None], y_new, y)
            self.f = np.where(accepted[:, None], k, self.f)
        self.rejected = ~accepted
        done = np.flatnonzero(accepted & (sign * self.t >= sign * self.t1))
        if done.size:
            self._leave(done)
