"""Kinetic integration, limit-cycle detection and Floquet machinery."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp
from scipy.linalg import expm

from rdlab import CompetitionModel, InvariantViolation, kinetics
from rdlab.kinetics import (
    OrbitAnalysis,
    _dopri5,
    _kinetic_rhs,
    _monodromy_matrices,
    _variational_rhs,
    detect_limit_cycle,
    integrate,
    orbital_stability,
)
from rdlab.model import condition_report, equilibria, jacobian, reaction


def _fake_periodic_orbit(anchor, period, multipliers=(1.0, 0.3, 0.001)):
    return OrbitAnalysis("periodic", period, np.asarray(anchor, dtype=float),
                         multipliers=np.asarray(multipliers, dtype=complex))


def _monodromy(model, orbit, tol):
    """The orbit's monodromy matrix recomputed at another tolerance."""
    return _monodromy_matrices(model, orbit.anchor, orbit.period, [0.0], tol)[0][0]


def _no_integration(*args, **kwargs):
    raise AssertionError("an integration started")


PINNED = np.array([0.1, 0.0095238, 0.0333333])


def _change_leg(monkeypatch, leg, change):
    """Hand the caller ``change(run)`` in place of the run of the leg-th ``_dopri5`` call.

    The detector's legs are calls 0 (transient), 1 (section), 2 (closure)
    and 3 (monodromy); ``orbital_stability``'s one run of every mode is
    call 0.  Returns the list of the calls' state sizes, one per call.
    """
    sizes = []

    def dopri5(rhs, y0, *args, **kwargs):
        run = _dopri5(rhs, y0, *args, **kwargs)
        sizes.append(y0.size)
        return change(run) if len(sizes) == leg + 1 else run

    monkeypatch.setattr(kinetics, "_dopri5", dopri5)
    return sizes


def _dip(run):
    return replace(run, stats=replace(run.stats, min_state=-1e-6))


def _scipy_rk45(fun, t_end, y0, tol, **kw):
    """The reference: solve_ivp's RK45 with rdlab's tolerances."""
    return solve_ivp(lambda t, y: fun(y), (0.0, t_end), y0, method="RK45",
                     rtol=tol, atol=tol * 1e-2, **kw)


def _scipy_events(events):
    """solve_ivp event functions for ``_dopri5``'s (w, p, direction, terminal) events."""
    functions = []
    for w, p, direction, terminal in events:
        def g(t, y, w=w, p=p):
            return float(w.dot(y - p))
        g.direction, g.terminal = direction, terminal
        functions.append(g)
    return functions


# A root may move by the rounding of g over its step, |dg| / |g'(root)| in
# time, with dg = ROOT_ROUNDING eps sum_i |w_i| |y_i - p_i| at the larger
# of the step's two end states.  brentq on solve_ivp's dense output is the
# reference; the largest ratio seen in these cases is 7.4 (one ulp of time).
ROOT_ROUNDING = 16


def _assert_roots_match_scipy(run, ref, events, f):
    """Root counts and order as solve_ivp's, each time within the rounding bound.

    Each recorded state must be the reference dense output at its root, bit
    for bit.  ``f(t, y)`` is the vector field, so g' = w . f.  The bound
    reads the root's step ends from ``ref``: the parity contract makes
    scipy's steps the run's own.
    """
    assert [te.size for te in run.t_events] == [te.size for te in ref.t_events]
    for (w, p, _, _), times, states, ref_times in zip(events, run.t_events, run.y_events,
                                                     ref.t_events):
        for t, y, t_ref in zip(times, states, ref_times):
            k = min(np.searchsorted(ref.t, t, side="right") - 1, ref.t.size - 2)
            size = max(np.abs(w).dot(np.abs(ref.y[:, j] - p)) for j in (k, k + 1))
            bound = ROOT_ROUNDING * np.finfo(float).eps * size / abs(w.dot(f(t, y)))
            assert abs(t - t_ref) <= bound, (t, t_ref, bound)
            assert np.array_equal(y, ref.sol(t))


class TestDopri5MatchesScipy:
    """``_dopri5`` must reproduce solve_ivp's RK45 bit for bit (np.array_equal).

    A run returns its final time and state, its counters, its roots and
    its samples; the samples are compared with solve_ivp's dense output at
    scipy's own step ends, between them and inside a last step cut by a
    terminal root, so every step's time, length, state and stages enter.
    Event roots are the exception: they come from the step's quartic, not
    from brentq, and agree with solve_ivp's within ``ROOT_ROUNDING``.

    The references run on the model's own ``reaction`` and ``jacobian``, so
    these cases also hold ``_kinetic_rhs`` and ``_variational_rhs`` to the
    same arithmetic.  A scipy release that changes RK45 fails here first.
    """

    def test_plain_run(self, reference_kinetics):
        ref = _scipy_rk45(lambda y: reaction(reference_kinetics, y), 300.0, PINNED, 1e-7,
                          dense_output=True)
        # step ends and times between them, many per step
        t = np.sort(np.concatenate([np.linspace(0.0, 300.0, 2001), ref.t, [150.0]]))
        run = _dopri5(_kinetic_rhs(reference_kinetics), PINNED, 300.0, 1e-7, t_eval=t)
        assert run.t == ref.t[-1] == 300.0
        assert np.array_equal(run.y, ref.y[:, -1])
        assert run.stats.nfev == ref.nfev
        assert run.stats.accepted_steps == ref.t.size - 1
        assert run.stats.rejected_steps > 0
        assert run.stats.min_state == ref.y.min()
        assert np.array_equal(run.samples, ref.sol(t))

    def test_section_events(self, reference_kinetics):
        anchor = _scipy_rk45(lambda y: reaction(reference_kinetics, y), 600.0, PINNED,
                             1e-7).y[:, -1]
        normal = reaction(reference_kinetics, anchor)
        normal = normal / np.linalg.norm(normal)
        events = [(normal, anchor, 1, False)]
        ref = _scipy_rk45(lambda y: reaction(reference_kinetics, y), 1500.0, anchor, 1e-7,
                          events=_scipy_events(events), dense_output=True)
        # the detector's settle times, and a finer tail with many times per step
        for tail in (np.linspace(1491.0, 1500.0, 10), np.linspace(1491.0, 1500.0, 501)):
            run = _dopri5(_kinetic_rhs(reference_kinetics), anchor, 1500.0, 1e-7, t_eval=tail,
                          events=events)
            assert np.array_equal(run.samples, ref.sol(tail))
        assert ref.t_events[0].size >= 5
        # the start lies on the section: g = 0 exactly, so the root is t = 0
        assert run.t_events[0][0] == ref.t_events[0][0] == 0.0
        _assert_roots_match_scipy(run, ref, events, lambda t, y: reaction(reference_kinetics, y))
        assert run.t == 1500.0
        assert np.array_equal(run.y, ref.y[:, -1])
        assert run.stats.nfev == ref.nfev

    def test_non_autonomous_run_with_terminal_event(self):
        # a resonantly forced oscillator: the amplitude grows until the
        # terminal event cuts the run inside a step; the turning points are
        # roots in either direction on the way
        def f(t, y):
            return np.array([y[1], -y[0] + np.sin(t)])

        def rhs(t, y, out):
            out[:] = f(t, y)
            return out

        reach = (np.array([1.0, 0.0]), np.array([6.0, 0.0]), 1, True)
        turning = (np.array([0.0, 1.0]), np.zeros(2), 0, False)
        events = [reach, turning]
        ref = solve_ivp(f, (0.0, 50.0), [0.5, 0.0], method="RK45", rtol=1e-7, atol=1e-9,
                        dense_output=True, events=_scipy_events(events))
        first = _dopri5(rhs, np.array([0.5, 0.0]), 50.0, 1e-7, events=events)
        assert ref.status == 1 and ref.t_events[1].size >= 5
        assert first.t == first.t_events[0][0] < 50.0
        # a second run samples up to where the first stopped: inside the cut
        # last step, evaluated with the quartic of the full step, and across
        # the steps before it; the cut step also takes the times past the
        # root, as OdeSolution's last segment does
        cut = np.linspace(ref.t[-2], first.t, 17)
        past = first.t + np.array([1e-3, 0.1])
        t = np.sort(np.concatenate([cut, np.linspace(ref.t[-12], first.t, 501), past]))
        run = _dopri5(rhs, np.array([0.5, 0.0]), 50.0, 1e-7, t_eval=t, events=events)
        assert ref.t[-2] < cut[1] and cut[-1] == run.t == first.t
        assert np.array_equal(run.samples, ref.sol(t))
        _assert_roots_match_scipy(run, ref, events, f)
        # only the last time and state come from the terminal root
        assert run.stats.nfev == ref.nfev
        assert run.stats.accepted_steps == ref.t.size - 1
        assert np.array_equal(run.y, ref.sol(run.t))

    def test_roots_on_one_step_in_time_order_up_to_the_terminal_one(self):
        # y' = 1 steps 10x longer each time, so one step holds all four roots;
        # listed out of time order, with a tie at the terminal root
        def rhs(t, y, out):
            out[:] = 1.0
            return out

        def level(c, direction, terminal):
            return np.ones(1), np.array([c]), direction, terminal

        events = [level(5.1, 1, False), level(5.0, 1, True), level(4.9, 1, False),
                  level(5.0, 1, False)]
        ref = solve_ivp(lambda t, y: np.ones(1), (0.0, 10.0), [0.0], method="RK45", rtol=1e-7,
                        atol=1e-9, dense_output=True, events=_scipy_events(events))
        run = _dopri5(rhs, np.zeros(1), 10.0, 1e-7, events=events)
        assert ref.status == 1
        assert [te.size for te in ref.t_events] == [0, 1, 1, 0]
        _assert_roots_match_scipy(run, ref, events, lambda t, y: np.ones(1))
        assert run.t_events[2][0] < run.t_events[1][0] == run.t
        assert run.stats.accepted_steps == ref.t.size - 1
        assert run.stats.nfev == ref.nfev

    def test_a_root_on_a_step_end_is_that_step_end(self, reference_kinetics):
        # a section through the state at the end of step k: the event's value
        # there is exactly 0, while the step's quartic at the step end may
        # round to the other side of the section.  The step ends are scipy's,
        # which the parity contract makes the run's own
        rhs = _kinetic_rhs(reference_kinetics)
        ref = _scipy_rk45(lambda y: reaction(reference_kinetics, y), 50.0, PINNED, 1e-7)
        free = _dopri5(rhs, PINNED, 50.0, 1e-7)
        for k in range(5, 60):
            velocity = reaction(reference_kinetics, ref.y[:, k])
            events = [(velocity / np.linalg.norm(velocity), ref.y[:, k], 1, False)]
            run = _dopri5(rhs, PINNED, 50.0, 1e-7, events=events)
            assert run.stats == free.stats, k
            assert ref.t[k] in run.t_events[0], k

    def test_t_eval_samples(self, reference_kinetics):
        # the run samples where solve_ivp evaluates t_eval step by step
        t_eval = np.linspace(0.0, 207.7, 401)
        ref = _scipy_rk45(lambda y: reaction(reference_kinetics, y), 207.7, PINNED, 1e-7,
                          t_eval=t_eval)
        run = _dopri5(_kinetic_rhs(reference_kinetics), PINNED, 207.7, 1e-7, t_eval=t_eval)
        assert np.array_equal(run.samples, ref.y)

    def test_variational_system(self, reference_model):
        model = reference_model
        n = model.n
        shift = np.diag(np.pi**2 * model.d)

        def fun(y):
            U, X = y[:n], y[n:].reshape(n, n)
            return np.concatenate([reaction(model, U), ((jacobian(model, U) - shift) @ X).ravel()])

        y0 = np.concatenate([PINNED, np.eye(n).ravel()])
        ref = _scipy_rk45(fun, 100.0, y0, 1e-7, dense_output=True)
        t = np.linspace(0.0, 100.0, 101)
        run = _dopri5(_variational_rhs(model, [np.pi**2]), y0, 100.0, 1e-7,
                      t_eval=t, densities=n)
        assert run.t == 100.0
        assert np.array_equal(run.y, ref.y[:, -1])
        assert np.array_equal(run.samples, ref.sol(t))
        assert run.stats.nfev == ref.nfev
        assert run.stats.accepted_steps == ref.t.size - 1
        assert run.stats.min_state == ref.y[:n].min()

    def test_clipped_last_step(self, reference_kinetics):
        free = _scipy_rk45(lambda y: reaction(reference_kinetics, y), 300.0, PINNED, 1e-7)
        k = free.t.size // 2
        t_end = 0.5 * (free.t[k] + free.t[k + 1])  # inside a step the free run takes
        ref = _scipy_rk45(lambda y: reaction(reference_kinetics, y), t_end, PINNED, 1e-7,
                          dense_output=True)
        assert ref.t[-1] - ref.t[-2] < free.t[k + 1] - free.t[k]
        t = np.linspace(ref.t[-3], t_end, 17)  # over the clipped step and the one before
        run = _dopri5(_kinetic_rhs(reference_kinetics), PINNED, t_end, 1e-7, t_eval=t)
        assert run.t == t_end
        assert np.array_equal(run.y, ref.y[:, -1])
        assert np.array_equal(run.samples, ref.sol(t))
        assert run.stats.nfev == ref.nfev
        assert run.stats.accepted_steps == ref.t.size - 1


class TestSampleTimes:
    """``t_eval`` decides what a run samples, and nothing else."""

    def test_counters_end_and_roots_do_not_depend_on_t_eval(self, reference_kinetics):
        rhs = _kinetic_rhs(reference_kinetics)
        events = [(np.array([1.0, 0.0, 0.0]), np.array([0.2, 0.0, 0.0]), 0, False)]
        bare = _dopri5(rhs, PINNED, 200.0, 1e-7, events=events)
        assert bare.samples.shape == (3, 0) and bare.t_events[0].size >= 10
        # min_state covers every step, sampled or not (here the start)
        assert bare.stats.min_state == PINNED.min()
        for t in (np.linspace(0.0, 200.0, 2001), np.linspace(100.0, 200.0, 7), [200.0],
                  [0.0, 0.0, 50.0, 50.0]):
            run = _dopri5(rhs, PINNED, 200.0, 1e-7, t_eval=t, events=events)
            assert run.stats == bare.stats
            assert run.t == bare.t == 200.0
            assert np.array_equal(run.y, bare.y)
            assert np.array_equal(run.t_events[0], bare.t_events[0])
            assert np.array_equal(run.y_events[0], bare.y_events[0])
            assert run.samples.shape == (3, len(t))

    def test_a_terminal_root_takes_the_times_left_over(self):
        # a second run that samples up to the first run's terminal root stops
        # at the same root, after the same steps
        def rhs(t, y, out):
            out[0], out[1] = y[1], -y[0] + np.sin(t)
            return out

        events = [(np.array([1.0, 0.0]), np.array([6.0, 0.0]), 1, True)]
        first = _dopri5(rhs, np.array([0.5, 0.0]), 50.0, 1e-7, events=events)
        t = np.linspace(0.0, first.t, 1000)
        run = _dopri5(rhs, np.array([0.5, 0.0]), 50.0, 1e-7, t_eval=t, events=events)
        assert run.stats == first.stats and run.t == first.t < 50.0
        assert np.array_equal(run.y, first.y)
        assert np.array_equal(run.t_events[0], first.t_events[0])
        assert run.samples[0, -1] == pytest.approx(6.0, abs=1e-12)


class TestQuarticRoot:
    def test_simple_roots_of_random_quartics(self):
        rng = np.random.default_rng(3)
        found = 0
        while found < 200:
            c = rng.normal(size=5) * 10.0 ** rng.uniform(-6, 2, size=5)
            end = c.sum()
            roots = np.roots(c[::-1])
            inside = roots[(abs(roots.imag) < 1e-12) & (roots.real > 0) & (roots.real < 1)]
            if c[0] * end >= 0 or inside.size != 1:
                continue
            found += 1
            # the quartic's coefficients, as on a step, with its exact end values
            theta = kinetics._quartic_root(c[0], end, *c[1:])
            slope = np.polyval(np.polyder(c[::-1]), theta)
            assert abs(theta - inside.real[0]) <= 1e-12 + 1e-9 * np.abs(c).sum() / abs(slope)

    def test_zero_ends_are_the_roots(self):
        # the end values, not the quartic's own, decide: a quartic that
        # rounds to either side at 1 still has its root there
        assert kinetics._quartic_root(0.0, 1.0, 1.0, 0.0, 0.0, 0.0) == 0.0
        assert kinetics._quartic_root(-1.0, 0.0, 1.0, 0.0, 0.0, -3e-16) == 1.0
        assert kinetics._quartic_root(-1.0, 0.0, 1.0, 0.0, 0.0, 3e-16) == 1.0
        assert kinetics._quartic_root(0.0, 0.0, 0.0, 0.0, 0.0, 0.0) == 0.0

    def test_newton_steps_out_of_the_bracket_bisect(self):
        # g = -1e-6 + theta^4 is flat at the secant start (theta ~ 1e-6), so
        # Newton's first step leaves [0, 1]
        assert kinetics._quartic_root(-1e-6, 1.0 - 1e-6, 0.0, 0.0, 0.0, 1.0) == pytest.approx(
            10.0 ** -1.5, rel=1e-14)

    def test_triple_root(self):
        # g = (theta - 0.3)^3: Newton converges linearly and still stops
        theta = kinetics._quartic_root(-0.027, 0.343, 0.27, -0.9, 1.0, 0.0)
        assert abs(theta - 0.3) < 1e-5


class TestIntegrate:
    def test_logistic_closed_form(self):
        # single species: u' = u(1 - u) solves to u0 e^t / (1 + u0 (e^t - 1))
        model = CompetitionModel(a=np.array([[1.0]]), d=np.ones(1))
        u0 = 0.07
        t = np.linspace(0.0, 8.0, 200)
        traj = integrate(model, np.array([u0]), t, tol=1e-11)
        exact = u0 * np.exp(t) / (1.0 + u0 * (np.exp(t) - 1.0))
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-6

    def test_equilibrium_is_stationary(self, reference_kinetics):
        P1 = condition_report(reference_kinetics).interior_point
        traj = integrate(reference_kinetics, P1, np.linspace(0.0, 100.0, 101), tol=1e-10)
        drift = np.max(np.abs(traj.states - P1[None, :]))
        assert drift < 1e-9

    def test_samples_agree_across_sample_grids(self, reference_kinetics):
        # the same steps sampled on a coarse grid and on a fine one holding it
        # differ only by the rounding of the products that evaluate them
        U0 = np.array([0.2, 0.1, 0.3])
        coarse = integrate(reference_kinetics, U0, np.linspace(0.0, 10.0, 11), tol=1e-9)
        fine = integrate(reference_kinetics, U0, np.linspace(0.0, 10.0, 1001), tol=1e-9)
        assert np.array_equal(coarse.times, np.linspace(0.0, 10.0, 11))
        assert coarse.states.shape == (11, 3)
        assert np.max(np.abs(fine.states[::100] - coarse.states)) < 1e-15
        assert coarse.stats == fine.stats
        assert coarse.stats.accepted_steps > 0

    def test_memory_does_not_grow_with_t_end(self, reference_kinetics):
        # the run samples each step as it goes and keeps none, so 8x the span
        # at the same 2001 samples adds nothing; keeping every step cost about
        # 3.8 MB to t_end 1000
        def peak(t_end):
            tracemalloc.start()
            try:
                integrate(reference_kinetics, PINNED, np.linspace(0.0, t_end, 2001))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(250.0)  # first-call allocations are not counted
        short, long = peak(250.0), peak(2000.0)
        assert long - short < 32 * 1024, (short, long)

    def test_negative_start_rejected(self, reference_kinetics):
        with pytest.raises(ValueError):
            integrate(reference_kinetics, np.array([-0.1, 0.2, 0.3]), 1.0)

    @pytest.mark.parametrize(
        "U0, t_end, tol",
        [
            ([0.2, 0.1, 0.3], float("inf"), 1e-7),
            ([0.2, 0.1, 0.3], float("nan"), 1e-7),
            ([0.2, 0.1, 0.3], 0.0, 1e-7),
            ([0.2, float("nan"), 0.3], 1.0, 1e-7),
            ([0.2, float("inf"), 0.3], 1.0, 1e-7),
            ([0.2, 0.1, 0.3], 1.0, float("nan")),
            ([0.2, 0.1, 0.3], 1.0, 0.0),
        ],
    )
    def test_non_finite_run_inputs_rejected(self, reference_kinetics, U0, t_end, tol):
        # an infinite or NaN span or tolerance would keep solve_ivp stepping forever
        with pytest.raises(ValueError):
            integrate(reference_kinetics, np.array(U0), [0.0, t_end], tol=tol)

    @pytest.mark.parametrize("times", [[], 1.0, [[0.0, 1.0]], [0.0, 2.0, 1.0], [-1.0, 1.0],
                                       [float("nan"), 1.0]])
    def test_bad_sample_times_rejected(self, reference_kinetics, monkeypatch, times):
        monkeypatch.setattr(kinetics, "_dopri5", _no_integration)
        with pytest.raises(ValueError, match="times must be"):
            integrate(reference_kinetics, np.array([0.2, 0.1, 0.3]), times)


class TestLimitCycleDetection:
    @pytest.mark.parametrize(
        "U0, max_time, tol",
        [
            ([0.2, 0.1, 0.3], float("inf"), 1e-7),
            ([0.2, 0.1, 0.3], float("nan"), 1e-7),
            ([0.2, 0.1, 0.3], -1.0, 1e-7),
            ([float("nan"), 0.1, 0.3], 100.0, 1e-7),
            ([0.2, 0.1, 0.3], 100.0, float("nan")),
        ],
    )
    def test_non_finite_run_inputs_rejected(self, reference_kinetics, U0, max_time, tol):
        with pytest.raises(ValueError):
            detect_limit_cycle(reference_kinetics, U0, max_time=max_time, tol=tol)

    def test_negative_start_rejected_before_integration(self, reference_kinetics, monkeypatch):
        monkeypatch.setattr(kinetics, "_dopri5", _no_integration)
        with pytest.raises(ValueError, match="initial state must be nonnegative"):
            detect_limit_cycle(reference_kinetics, np.array([-0.1, 0.1, 0.1]))

    def test_reference_orbit_is_periodic(self, reference_kinetics):
        orbit = detect_limit_cycle(
            reference_kinetics,
            np.array([0.1, 0.0095238, 0.0333333]),
            max_time=24000.0,
            tol=1e-7,
        )
        assert orbit.status == "periodic"
        assert orbit.period == pytest.approx(207.76984226637737, rel=1e-6)
        # section returns: relative spread of the last five return times
        returns = np.diff(orbit.crossing_times)[-5:]
        spread = (returns.max() - returns.min()) / returns.mean()
        assert spread < 1e-3

    def test_circulant_orbit_period(self, circulant_cycle_model):
        orbit = detect_limit_cycle(
            circulant_cycle_model, np.array([0.45, 0.3, 0.25]), max_time=2000.0
        )
        assert orbit.status == "periodic"
        assert orbit.period == pytest.approx(55.543542261712105, rel=1e-5)

    def test_section_run_records_its_start_crossing_at_zero(self, circulant_cycle_model):
        # the section passes through the post-transient anchor, where
        # g = normal . (y - anchor) is exactly 0
        orbit = detect_limit_cycle(circulant_cycle_model, np.array([0.45, 0.3, 0.25]),
                                   max_time=2000.0)
        assert orbit.status == "periodic"
        assert orbit.crossing_times[0] == 0.0

    def test_solver_counters_match_scipy(self, circulant_cycle_model):
        U0 = np.array([0.45, 0.3, 0.25])
        orbit = detect_limit_cycle(circulant_cycle_model, U0, max_time=2000.0)
        assert list(orbit.solver) == ["transient", "section", "closure", "monodromy"]
        ref = _scipy_rk45(lambda y: reaction(circulant_cycle_model, y), 1000.0, U0, 1e-7)
        transient = orbit.solver["transient"]
        assert transient.nfev == ref.nfev
        assert transient.accepted_steps == ref.t.size - 1
        assert transient.min_state == ref.y.min()

    def test_memory_does_not_grow_with_max_time(self, reference_kinetics):
        # each leg samples only the SETTLE_SAMPLES times the settle check
        # reads, so 4x the run adds only the section crossings (a few kB
        # here); keeping every step added about 0.47 MB over the same span
        def peak(max_time):
            tracemalloc.start()
            try:
                detect_limit_cycle(reference_kinetics, PINNED * 1.003, max_time=max_time)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(500.0)  # first-call allocations, such as the equilibria, are not counted
        short, long = peak(500.0), peak(2000.0)
        assert long - short < 32 * 1024, (short, long)

    def test_circulant_conserved_quantity(self, circulant_cycle_model):
        # V = uvw / (u+v+w)^3 is a first integral of this circulant system
        traj = integrate(
            circulant_cycle_model, np.array([0.45, 0.3, 0.25]), np.linspace(0.0, 200.0, 400),
            tol=1e-11
        )
        u, v, w = traj.states.T
        V = u * v * w / (u + v + w) ** 3
        assert np.max(np.abs(V - V[0])) < 1e-10

    def test_sink_convergence_is_not_periodic(self):
        # weak coupling: interior sink, orbit settles instead of cycling
        a = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])
        model = CompetitionModel(a=a, d=np.ones(3))
        orbit = detect_limit_cycle(
            model, np.array([0.2, 0.5, 0.4]), max_time=400.0, tol=1e-10
        )
        assert orbit.status == "converged"
        assert orbit.converged_to == "P_1"
        assert orbit.period is None and orbit.multipliers is None

    def test_sink_with_loose_tolerance_never_fakes_a_cycle(self):
        # integrator noise around the sink sits above the settle threshold at
        # tol 1e-7; the detector must fall back to "undetermined", not report
        # the noise as a periodic return
        a = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])
        model = CompetitionModel(a=a, d=np.ones(3))
        orbit = detect_limit_cycle(model, np.array([0.2, 0.5, 0.4]), max_time=400.0)
        assert orbit.status in ("converged", "undetermined")
        assert orbit.period is None and orbit.multipliers is None

    def test_tight_tolerance_slow_spiral_stays_undetermined(self, reference_kinetics):
        # far from convergence at this horizon: must not report a false cycle
        orbit = detect_limit_cycle(
            reference_kinetics, np.array([0.1, 0.0095238, 0.0333333]), max_time=400.0
        )
        assert orbit.status == "undetermined"

    def test_orbit_avoids_single_species_points(self, reference_kinetics):
        # the cycle passes near the boundary but keeps clear of the axis points
        traj = integrate(
            reference_kinetics, np.array([0.1, 0.0095238, 0.0333333]),
            np.linspace(20.0, 100.0, 2000), tol=1e-10
        )
        points = [e.point for e in equilibria(reference_kinetics) if e.label != "P_1"]
        dmin = min(
            float(np.min(np.linalg.norm(traj.states - p[None, :], axis=1))) for p in points
        )
        assert dmin > 1e-2


class TestUndeterminedReason:
    """``OrbitAnalysis.reason`` names the test that left an orbit undetermined."""

    def test_settle_at_a_saddle(self, reference_kinetics):
        # the single-species point (1/2, 0, 0) is a saddle and exactly stationary
        orbit = detect_limit_cycle(reference_kinetics, np.array([0.5, 0.0, 0.0]), max_time=100.0)
        assert (orbit.status, orbit.reason) == ("undetermined", "settled-off-sink")
        assert list(orbit.solver) == ["transient"]

    def test_too_few_crossings(self, reference_kinetics):
        orbit = detect_limit_cycle(reference_kinetics, PINNED, max_time=100.0)
        assert (orbit.status, orbit.reason) == ("undetermined", "no-crossings")
        assert 0 < orbit.crossing_times.size < 4

    def test_returns_that_disagree(self, reference_kinetics):
        # the slow spiral of the reference kinetics: the returns still drift
        orbit = detect_limit_cycle(reference_kinetics, PINNED, max_time=400.0)
        assert (orbit.status, orbit.reason) == ("undetermined", "returns-disagree")
        assert orbit.crossing_times.size >= 4
        assert list(orbit.solver) == ["transient", "section"]

    def test_failed_closure(self, circulant_cycle_model, monkeypatch):
        # the circulant orbit is periodic at this horizon; a closure run that
        # ends 1e-3 off its anchor fails the closure test
        U0 = np.array([0.45, 0.3, 0.25])
        assert detect_limit_cycle(circulant_cycle_model, U0, max_time=400.0).reason is None
        _change_leg(monkeypatch, 2, lambda run: replace(run, y=run.y + 1e-3))
        orbit = detect_limit_cycle(circulant_cycle_model, U0, max_time=400.0)
        assert (orbit.status, orbit.reason) == ("undetermined", "closure-failed")
        assert list(orbit.solver) == ["transient", "section", "closure"]

    def test_no_reason_once_decided(self):
        a = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])
        model = CompetitionModel(a=a, d=np.ones(3))
        orbit = detect_limit_cycle(model, np.array([0.2, 0.5, 0.4]), max_time=400.0, tol=1e-10)
        assert (orbit.status, orbit.reason) == ("converged", None)


class TestNegativityGuard:
    """Every integration leg raises InvariantViolation on a density below -1e-8."""

    @pytest.mark.parametrize("leg, name", enumerate(["transient", "section", "closure",
                                                     "monodromy"]))
    def test_each_detector_leg(self, circulant_cycle_model, monkeypatch, leg, name):
        _change_leg(monkeypatch, leg, _dip)
        with pytest.raises(InvariantViolation, match=f"{name} dipped to -1.000e-06"):
            detect_limit_cycle(circulant_cycle_model, np.array([0.45, 0.3, 0.25]),
                               max_time=400.0)

    def test_modal_multipliers(self, reference_kinetics, monkeypatch):
        P1 = condition_report(reference_kinetics).interior_point
        _change_leg(monkeypatch, 0, _dip)
        with pytest.raises(InvariantViolation, match="monodromy dipped"):
            orbital_stability(reference_kinetics, _fake_periodic_orbit(P1, 5.0), eigenvalues=[1.0])


class TestMonodromy:
    def test_constant_orbit_reduces_to_matrix_exponential(self, reference_kinetics):
        # the interior point is a constant orbit of any period T: M = expm(J T) exactly
        P1 = condition_report(reference_kinetics).interior_point
        T = 3.0
        M = _monodromy_matrices(reference_kinetics, P1, T, [0.0], tol=1e-12)[0][0]
        assert np.max(np.abs(M - expm(jacobian(reference_kinetics, P1) * T))) < 1e-9

    def test_unit_multiplier_present(self, circulant_cycle_model):
        orbit = detect_limit_cycle(
            circulant_cycle_model, np.array([0.45, 0.3, 0.25]), max_time=2000.0
        )
        assert np.min(np.abs(orbit.multipliers - 1.0)) < 1e-3

    def test_determinant_matches_liouville_integral(self, circulant_cycle_model):
        # independent route: det M = exp(integral of trace J over one period)
        orbit = detect_limit_cycle(
            circulant_cycle_model, np.array([0.45, 0.3, 0.25]), max_time=2000.0
        )
        t = np.linspace(0.0, orbit.period, 4001)
        states = integrate(circulant_cycle_model, orbit.anchor, t, tol=1e-12).states
        traces = np.array([np.trace(jacobian(circulant_cycle_model, U)) for U in states])
        liouville = np.exp(simpson(traces, x=t))
        M = _monodromy(circulant_cycle_model, orbit, tol=1e-12)
        assert abs(np.linalg.det(M) - liouville) < 1e-6

    @pytest.mark.parametrize("k_max", [None, 4, 16], ids=["alone", "k_max-4", "k_max-16"])
    def test_scalar_diffusion_factorization(self, circulant_cycle_model, k_max):
        # equal diffusion commutes with J: multipliers shift by exp(-d lam T),
        # for a mode run alone and for modes 1-4 of one run of k_max modes
        orbit = detect_limit_cycle(
            circulant_cycle_model, np.array([0.45, 0.3, 0.25]), max_time=2000.0
        )
        d = float(circulant_cycle_model.d[0])
        base = np.linalg.eigvals(_monodromy(circulant_cycle_model, orbit, tol=1e-12))
        if k_max is None:
            lams = [(2.0 * np.pi) ** 2]
            modal = orbital_stability(circulant_cycle_model, orbit, eigenvalues=lams,
                                      tol=1e-12).modal_multipliers
        else:
            lams = [(k * np.pi) ** 2 for k in range(1, 5)]
            modal = orbital_stability(circulant_cycle_model, orbit, k_max=k_max, L=1.0,
                                      tol=1e-12).modal_multipliers
            assert sorted(modal) == list(range(1, k_max + 1))
        for k, lam in enumerate(lams, start=1):
            factored = np.exp(-d * lam * orbit.period) * base
            gap = np.max(np.abs(np.sort_complex(modal[k]) - np.sort_complex(factored)))
            assert gap < 5e-11, (k, gap)

    def test_one_run_for_every_mode(self, circulant_cycle_model, monkeypatch):
        orbit = detect_limit_cycle(
            circulant_cycle_model, np.array([0.45, 0.3, 0.25]), max_time=2000.0
        )
        sizes = _change_leg(monkeypatch, 0, lambda run: run)
        verdict = orbital_stability(circulant_cycle_model, orbit, k_max=4, L=1.0)
        assert sizes == [3 + 4 * 3 * 3]  # the orbit and the four modes' matrices
        assert sorted(verdict.modal_multipliers) == [1, 2, 3, 4]
        sizes.clear()
        orbital_stability(circulant_cycle_model, orbit, k_max=0)
        assert sizes == []

    @pytest.mark.parametrize("orbit", [
        OrbitAnalysis("undetermined", crossing_times=np.array([1.0, 2.0])),
        # every Floquet field set: the status alone marks it not periodic
        replace(_fake_periodic_orbit(np.ones(3) * 0.2, 5.0), status="undetermined"),
    ], ids=["bare", "with-floquet-fields"])
    def test_monodromy_requires_periodic_orbit(self, reference_kinetics, monkeypatch, orbit):
        monkeypatch.setattr(kinetics, "_dopri5", _no_integration)
        with pytest.raises(ValueError, match="periodic OrbitAnalysis is required"):
            orbital_stability(reference_kinetics, orbit, eigenvalues=[0.0])
        with pytest.raises(ValueError, match="periodic OrbitAnalysis is required"):
            orbital_stability(reference_kinetics, orbit)


class TestOrbitalStability:
    def test_synthetic_stable(self, reference_kinetics):
        orbit = _fake_periodic_orbit(np.ones(3) * 0.2, 5.0, multipliers=[1.0, 0.3, 0.001])
        verdict = orbital_stability(reference_kinetics, orbit, k_max=0)
        assert verdict.verdict == "stable"

    def test_synthetic_unstable(self, reference_kinetics):
        orbit = _fake_periodic_orbit(np.ones(3) * 0.2, 5.0, multipliers=[1.5, 1.0, 0.3])
        verdict = orbital_stability(reference_kinetics, orbit, k_max=0)
        assert verdict.verdict == "unstable"

    def test_non_simple_unit_multiplier_inconclusive(self, reference_kinetics):
        orbit = _fake_periodic_orbit(np.ones(3) * 0.2, 5.0, multipliers=[1.0, 1.0, 0.5])
        verdict = orbital_stability(reference_kinetics, orbit, k_max=0)
        assert verdict.verdict == "inconclusive"

    def test_degenerate_family_is_inconclusive(self, circulant_cycle_model):
        # the conserved quantity forces a second near-unit multiplier
        orbit = detect_limit_cycle(
            circulant_cycle_model, np.array([0.45, 0.3, 0.25]), max_time=2000.0
        )
        verdict = orbital_stability(circulant_cycle_model, orbit, k_max=2, L=1.0)
        assert verdict.verdict == "inconclusive"
        assert sorted(verdict.modal_multipliers) == [1, 2]

    def test_modal_arguments_validated(self, circulant_cycle_model):
        orbit = detect_limit_cycle(
            circulant_cycle_model, np.array([0.45, 0.3, 0.25]), max_time=2000.0
        )
        with pytest.raises(ValueError):
            orbital_stability(circulant_cycle_model, orbit, k_max=3, eigenvalues=[1.0])
        with pytest.raises(ValueError):
            orbital_stability(circulant_cycle_model, orbit, k_max=2)
        with pytest.raises(ValueError, match="not both"):
            orbital_stability(circulant_cycle_model, orbit, k_max=1, L=2.0, eigenvalues=[1.0])

    @pytest.mark.parametrize("L", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_interval_length_rejected_before_integration(self, reference_kinetics,
                                                            monkeypatch, L):
        # L = 0 divided by zero, -1 acted as +1, and a NaN shift kept the
        # integrator stepping forever
        monkeypatch.setattr(kinetics, "_dopri5", _no_integration)
        orbit = _fake_periodic_orbit(np.ones(3) * 0.2, 5.0)
        with pytest.raises(ValueError, match="L must be finite and positive"):
            orbital_stability(reference_kinetics, orbit, k_max=2, L=L)

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_bad_eigenvalue_rejected_before_integration(self, reference_kinetics,
                                                        monkeypatch, lam):
        monkeypatch.setattr(kinetics, "_dopri5", _no_integration)
        orbit = _fake_periodic_orbit(np.ones(3) * 0.2, 5.0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            orbital_stability(reference_kinetics, orbit, eigenvalues=[lam])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            orbital_stability(reference_kinetics, orbit, eigenvalues=[1.0, lam])


class TestReactionConsistency:
    def test_velocity_zero_only_at_equilibria(self, reference_kinetics):
        rng = np.random.default_rng(31)
        eq_points = [e.point for e in equilibria(reference_kinetics)]
        for _ in range(200):
            U = rng.uniform(0.05, 1.5, size=3)
            speed = np.linalg.norm(reaction(reference_kinetics, U))
            near_eq = min(np.linalg.norm(U - p) for p in eq_points) < 1e-6
            assert near_eq or speed > 0.0
