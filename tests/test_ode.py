"""The in-house DOP853 integrator: its tableau and batches of one against
scipy's DOP853 (a test-only oracle), batches against batches of one, and a
CLI run that never imports scipy.  A run gives each member's last time and
state only, so scipy's run is compared at its last accepted step."""

import os
import subprocess
import sys

import numpy as np
import pytest

from sodekit import ode
from sodekit.expressions import EvalDomainError
from sodekit.parser import parse

scipy_integrate = pytest.importorskip("scipy.integrate")

RTOL, ATOL = 1e-10, 1e-12


def oscillator(t, y):
    return np.array([y[1], -y[0]])


def planar(t, y):
    return np.array([y[1] - y[0] ** 3, np.sin(y[0]) * y[1] + 0.5 * t])


def pendulum_variational(t, state):
    """Damped pendulum with its flow-map Jacobian, as the flows carry it."""
    x, v = state[:2]
    J = np.array([[0.0, 1.0], [-np.cos(x), -0.1]])
    return np.concatenate([[v, -np.sin(x) - 0.1 * v],
                           (J @ state[2:].reshape(2, 2)).ravel()])


CASES = [
    (oscillator, (0.0, 10.0), [1.0, 0.0]),
    (oscillator, (0.0, -2.5), [0.5, 0.5]),
    (planar, (0.0, 3.0), [0.3, -0.2]),
    (pendulum_variational, (0.0, 5.0), [1.0, 0.2, 1.0, 0.0, 0.0, 1.0]),
]


def test_tableau_equals_scipys():
    coefficients = pytest.importorskip(
        "scipy.integrate._ivp.dop853_coefficients")
    n = coefficients.N_STAGES
    assert ode.N_STAGES == n
    assert np.array_equal(ode.A, coefficients.A[:n, :n])
    assert np.array_equal(ode.B, coefficients.B)
    assert np.array_equal(ode.C, coefficients.C[:n])
    assert np.array_equal(ode.E3, coefficients.E3)
    assert np.array_equal(ode.E5, coefficients.E5)


def one(fun):
    """A scipy-shaped right-hand side fun(t, y) as the right-hand side of a
    batch of one member."""
    return lambda t, y: (np.asarray(fun(t[0], y[0]), dtype=float)[None], {})


@pytest.mark.parametrize("fun,span,y0", CASES,
                         ids=["oscillator", "backwards", "planar",
                              "variational"])
@pytest.mark.parametrize("tol", [(RTOL, ATOL), (1e-6, 1e-9)],
                         ids=["tight", "loose"])
def test_single_run_agrees_with_scipy(fun, span, y0, tol):
    rtol, atol = tol
    got = ode.solve_ivp(one(fun), span, [y0], rtol=rtol, atol=atol)
    want = scipy_integrate.solve_ivp(fun, span, np.array(y0), method="DOP853",
                                     rtol=rtol, atol=atol)
    assert got.success and got.message == want.message
    assert got.nfev == want.nfev
    assert got.t.shape == (1,) and got.y.shape == (1, len(y0))
    assert abs(got.t[0] - want.t[-1]) <= 1e-12
    assert np.max(np.abs(got.y[0] - want.y[:, -1])) <= 1e-12


def test_single_run_reports_a_step_failure_as_scipy_does():
    # y' = y^2 from y = 1 blows up at t = 1
    def blowup(t, y):
        return y * y

    got = ode.solve_ivp(one(blowup), (0.0, 2.0), [[1.0]], rtol=RTOL,
                        atol=ATOL)
    want = scipy_integrate.solve_ivp(blowup, (0.0, 2.0), [1.0],
                                     method="DOP853", rtol=RTOL, atol=ATOL)
    assert not got.success and not want.success
    assert list(got.failures) == [0]
    assert isinstance(got.failures[0], ode.StepFailure)
    assert str(got.failures[0]) == want.message
    assert got.nfev == want.nfev
    assert got.t[0] == want.t[-1] and np.array_equal(got.y[0], want.y[:, -1])


def test_single_run_lets_the_right_hand_side_raise():
    def bad(t, y):
        raise EvalDomainError(parse("log(x)"), "log of a nonpositive value")

    with pytest.raises(EvalDomainError):
        ode.solve_ivp(bad, (0.0, 1.0), [[1.0]])


def log_field(t, y):
    """Rows (x, v) -> (v, log(x + 2) - x); rows with x <= -2 fail."""
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.stack([y[:, 1], np.log(y[:, 0] + 2.0) - y[:, 0]], axis=1)
    errors = {int(k): EvalDomainError(parse("log(x + 2)"),
                                      "log of a nonpositive value")
              for k in np.flatnonzero(y[:, 0] <= -2.0)}
    return f, errors


def test_batch_rows_equal_single_runs_and_a_bad_member_fails_alone():
    y0 = np.array([[0.1, 0.2], [-0.5, 1.0], [-1.5, -1.0], [0.7, -0.3],
                   [1.0, 0.0]])
    ends = np.array([0.4, -1.3, 2.0, 0.0, 3.1])
    sol = ode.solve_ivp(log_field, (0.0, ends), y0, rtol=RTOL, atol=ATOL)
    # member 2 moves towards x = -2 and leaves the log's domain
    alone = ode.solve_ivp(log_field, (0.0, ends[2]), y0[2:3], rtol=RTOL,
                          atol=ATOL)
    assert list(alone.failures) == [0]
    assert isinstance(alone.failures[0], EvalDomainError)
    assert list(sol.failures) == [2] and not sol.success
    assert isinstance(sol.failures[2], EvalDomainError)
    for k in (0, 1, 3, 4):
        alone = ode.solve_ivp(log_field, (0.0, ends[k]), y0[k:k + 1],
                              rtol=RTOL, atol=ATOL)
        assert alone.success
        assert np.array_equal(sol.y[k], alone.y[0])
        assert sol.t[k] == alone.t[0] == ends[k]


def test_batch_with_a_step_failure_flags_that_member_alone():
    def rhs(t, y):
        return y * y, {}

    y0 = np.array([[1.0], [0.2], [-1.0]])
    sol = ode.solve_ivp(rhs, (0.0, 2.0), y0, rtol=RTOL, atol=ATOL)
    assert list(sol.failures) == [0]
    assert isinstance(sol.failures[0], ode.StepFailure)
    for k in (1, 2):
        alone = ode.solve_ivp(rhs, (0.0, 2.0), y0[k:k + 1], rtol=RTOL,
                              atol=ATOL)
        assert alone.success
        assert np.array_equal(sol.y[k], alone.y[0])


def test_a_cli_run_imports_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("import sys\n"
            "from sodekit.cli import main\n"
            "code = main(['straighten', '--corpus', 'quadratic-demo'])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 []"


def test_a_member_without_end_fails_alone_at_the_attempt_budget():
    def rotation(t, y):
        return np.stack([y[:, 1], -y[:, 0]], axis=1), {}

    y0 = np.array([[1.0, 0.0], [0.5, 0.5], [-0.2, 0.7]])
    ends = np.array([3.0, np.inf, -1.5])
    sol = ode.solve_ivp(rotation, (0.0, ends), y0, rtol=RTOL, atol=ATOL)
    assert list(sol.failures) == [1]
    assert isinstance(sol.failures[1], ode.StepFailure)
    assert f"{ode.MAX_ATTEMPTS} step attempts" in str(sol.failures[1])
    assert np.isfinite(sol.t[1]) and np.isfinite(sol.y[1]).all()
    for k in (0, 2):
        alone = ode.solve_ivp(rotation, (0.0, ends[k]), y0[k:k + 1],
                              rtol=RTOL, atol=ATOL)
        assert alone.success
        assert np.array_equal(sol.y[k], alone.y[0])
        assert sol.t[k] == alone.t[0] == ends[k]
