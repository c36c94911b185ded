import math

import numpy as np
import pytest
from scipy import stats

from steerlab import NumericsError
from steerlab.diffusion import (
    LatentState,
    NoiseSchedule,
    analytic_epsilon,
    ancestral_step,
    linear_schedule,
    mixture_log_density,
    noise_tapes,
    run_trajectories,
    sample,
)
from steerlab.world import (
    Attribute,
    AttributeSchema,
    Component,
    MixtureWorld,
    conditional_components,
    make_condition,
)

from conftest import build_gender_world, single_gaussian_world


def schedule_with_alpha_bar(values):
    """Hand-built schedule whose alpha_bar hits the given values exactly."""
    values = np.asarray(values, dtype=float)
    prev = np.concatenate([[1.0], values[:-1]])
    return NoiseSchedule(steps=len(values), beta=1.0 - values / prev, alpha_bar=values)


class TestSchedule:
    def test_single_step_linear(self):
        s = linear_schedule(1, beta_start=0.02, beta_end=0.02)
        np.testing.assert_allclose(s.beta, [0.02])
        np.testing.assert_allclose(s.alpha_bar, [0.98])

    def test_default_schedule_shape(self):
        s = linear_schedule(1000)
        assert s.steps == 1000
        assert s.beta[0] == pytest.approx(1e-4)
        assert s.beta[-1] == pytest.approx(0.02)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert s.alpha_bar[-1] < 1e-4  # essentially pure noise at the deep end

    def test_alpha_bar_matches_independent_product(self):
        s = linear_schedule(50, beta_end=0.1)
        running = 1.0
        for i in range(50):
            running *= 1.0 - s.beta[i]
            assert s.alpha_bar[i] == pytest.approx(running, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            linear_schedule(0)
        with pytest.raises(ValueError):
            linear_schedule(10, beta_start=0.2, beta_end=0.1)
        with pytest.raises(ValueError):
            linear_schedule(10, beta_start=0.0)
        with pytest.raises(ValueError):
            linear_schedule(10, beta_end=1.0)

    def test_validate_catches_tampering(self):
        s = linear_schedule(10)
        s.alpha_bar = s.alpha_bar.copy()
        s.alpha_bar[5] = s.alpha_bar[4]  # no longer strictly decreasing
        with pytest.raises(ValueError, match="decreasing"):
            s.validate()

    def test_validate_catches_product_drift(self):
        s = linear_schedule(10)
        s.alpha_bar = s.alpha_bar * 0.999
        with pytest.raises(ValueError, match="running product"):
            s.validate()


class TestAnalyticEpsilon:
    def test_single_component_closed_form(self):
        """Frozen case: mu=(2,0), Sigma=I, alpha_bar=0.25, x=(3,1).

        Marginal is N(sqrt(0.25)*mu, I) = N((1,0), I); the score at x is
        -(x - (1,0)) = (-2,-1) and epsilon = -sqrt(0.75)*score.
        """
        world = single_gaussian_world(mean=(2.0, 0.0))
        sched = schedule_with_alpha_bar([0.5, 0.25])
        cond = make_condition(world, "origin")
        eps = analytic_epsilon(world, sched, LatentState(np.array([3.0, 1.0]), 1), cond)
        np.testing.assert_allclose(
            eps, [1.7320508075688772, 0.8660254037844386], atol=1e-12
        )

    def test_zero_at_marginal_mode(self):
        world = single_gaussian_world(mean=(2.0, -1.0))
        sched = schedule_with_alpha_bar([0.49])
        cond = make_condition(world, "origin")
        x = 0.7 * np.array([2.0, -1.0])  # sqrt(0.49) * mu
        eps = analytic_epsilon(world, sched, LatentState(x, 0), cond)
        np.testing.assert_allclose(eps, [0.0, 0.0], atol=1e-12)

    def test_t_index_range_checked(self):
        world = single_gaussian_world()
        sched = linear_schedule(10)
        cond = make_condition(world, "origin")
        for t in (-1, 10):
            with pytest.raises(ValueError, match="t_index"):
                analytic_epsilon(world, sched, LatentState(np.zeros(2), t), cond)

    def test_non_finite_input_raises(self):
        world = single_gaussian_world()
        sched = linear_schedule(10)
        cond = make_condition(world, "origin")
        state = LatentState(np.array([np.nan, 0.0]), 5)
        with pytest.raises(NumericsError, match="step 5"):
            analytic_epsilon(world, sched, state, cond)

    def test_huge_finite_input_raises_numerics_error_not_a_warning(self):
        """The test settings make a RuntimeWarning an error, so a warning numpy
        emitted inside the kernel would escape here before the NumericsError."""
        world = build_gender_world()
        sched = linear_schedule(10)
        cond = make_condition(world, "engineer")
        state = LatentState(np.array([1e300, -1e300]), 5)
        with pytest.raises(NumericsError, match="^non-finite noise estimate at step 5$"):
            analytic_epsilon(world, sched, state, cond)


def scipy_mixture_logpdf(mix, x, a_bar):
    """Independent density route: explicit scipy mixture of noised Gaussians."""
    d = len(x)
    parts = [
        math.log(w) + stats.multivariate_normal.logpdf(
            x,
            mean=math.sqrt(a_bar) * c.mean,
            cov=a_bar * c.covariance + (1.0 - a_bar) * np.eye(d),
        )
        for w, c in zip(mix.weights, mix.components)
    ]
    return float(np.logaddexp.reduce(parts))


class TestScoreAgainstFiniteDifferences:
    """The noise predictor must match a finite-difference gradient of an
    independently computed log density (scipy multivariate normals)."""

    def _check(self, world, cond, rng, n=12):
        sched = linear_schedule(60, beta_end=0.08)
        mix = conditional_components(world, cond)
        h = 1e-5
        for _ in range(n):
            t = int(rng.integers(0, sched.steps))
            a_bar = float(sched.alpha_bar[t])
            # stay near the noised manifold so densities are well-scaled
            c = mix.components[int(rng.integers(len(mix.components)))]
            x = (
                math.sqrt(a_bar) * c.mean
                + rng.standard_normal(world.dimension) * 1.5
            )
            eps = analytic_epsilon(world, sched, LatentState(x, t), cond)
            grad = np.zeros(world.dimension)
            for i in range(world.dimension):
                e = np.zeros(world.dimension)
                e[i] = h
                grad[i] = (
                    scipy_mixture_logpdf(mix, x + e, a_bar)
                    - scipy_mixture_logpdf(mix, x - e, a_bar)
                ) / (2 * h)
            expected = -math.sqrt(1.0 - a_bar) * grad
            denom = max(np.linalg.norm(expected), 1e-12)
            assert np.linalg.norm(eps - expected) / denom < 1e-4

    def test_identity_covariance_world(self):
        world = build_gender_world(male_weight=0.65)
        cond = make_condition(world, "engineer")
        self._check(world, cond, np.random.default_rng(11))

    def test_general_covariance_world(self):
        covs = {
            ("engineer", "male"): [[2.0, 0.6], [0.6, 1.0]],
            ("teacher", "female"): [[0.5, -0.2], [-0.2, 1.5]],
        }
        world = build_gender_world(covariances=covs)
        cond = make_condition(world, "engineer")
        self._check(world, cond, np.random.default_rng(12))

    def test_constrained_condition(self):
        world = build_gender_world(covariances={("engineer", "male"): [[3.0, 0.0], [0.0, 0.4]]})
        cond = make_condition(world, "engineer", {"gender": "male"})
        self._check(world, cond, np.random.default_rng(13))

    def test_log_density_matches_scipy(self):
        world = build_gender_world(covariances={("teacher", "male"): [[2.0, 0.5], [0.5, 1.0]]})
        cond = make_condition(world, "teacher")
        mix = conditional_components(world, cond)
        rng = np.random.default_rng(21)
        for a_bar in (1.0, 0.6, 0.05):
            x = rng.standard_normal(2) * 2.0
            ours = mixture_log_density(mix, x, a_bar)
            theirs = scipy_mixture_logpdf(mix, x, a_bar)
            assert ours == pytest.approx(theirs, abs=1e-10)


class TestAncestralStep:
    def test_zero_beta_step_is_identity(self):
        # beta=0 at the evaluated step makes the update x -> x exactly
        sched = NoiseSchedule(steps=2, beta=np.array([0.3, 0.0]),
                              alpha_bar=np.array([0.7, 0.7]))
        state = LatentState(np.array([1.5, -2.0]), 1)
        out = ancestral_step(sched, state, np.zeros(2), np.random.default_rng(0))
        # noise IS drawn at t_index 1 but scaled by sqrt(beta)=0
        np.testing.assert_allclose(out.x, state.x, atol=1e-15)
        assert out.t_index == 0

    def test_final_step_consumes_no_randomness(self):
        sched = linear_schedule(5)
        state = LatentState(np.array([0.5, 0.5]), 0)

        class Exploding:
            def standard_normal(self, *_):
                raise AssertionError("rng must not be touched on the final step")

        out = ancestral_step(sched, state, np.zeros(2), Exploding())
        assert out.t_index == -1

    def test_denoising_mean_formula(self):
        sched = linear_schedule(5)
        t = 0  # final step: fully deterministic, easy to check by hand
        x = np.array([2.0, -1.0])
        eps = np.array([0.5, 0.25])
        out = ancestral_step(sched, LatentState(x, t), eps, np.random.default_rng(0))
        b = sched.beta[t]
        expected = (x - b / math.sqrt(1 - sched.alpha_bar[t]) * eps) / math.sqrt(1 - b)
        np.testing.assert_allclose(out.x, expected, rtol=1e-12)

    def test_out_of_range(self):
        sched = linear_schedule(5)
        with pytest.raises(ValueError):
            ancestral_step(sched, LatentState(np.zeros(2), 5), np.zeros(2),
                           np.random.default_rng(0))

    def test_non_finite_guard(self):
        sched = linear_schedule(5)
        state = LatentState(np.array([1.0, 1.0]), 2)
        with pytest.raises(NumericsError):
            ancestral_step(sched, state, np.array([np.inf, 0.0]),
                           np.random.default_rng(0))

    def test_latent_near_the_float_limit_raises_numerics_error_not_a_warning(self):
        """The test settings make a RuntimeWarning an error, so an overflow
        numpy warned of would escape here before the NumericsError."""
        state = LatentState(np.array([1.797e308, 0.0]), 5)
        with pytest.raises(NumericsError, match="^non-finite latent produced at step 5$"):
            ancestral_step(linear_schedule(10), state, np.zeros(2), np.random.default_rng(0))


class TestSampler:
    def test_deterministic_under_seed(self):
        world = build_gender_world()
        sched = linear_schedule(40, beta_end=0.2)
        cond = make_condition(world, "engineer")
        hook = lambda state, c: analytic_epsilon(world, sched, state, c)
        a = sample(world, sched, cond, hook, np.random.default_rng(1234))
        b = sample(world, sched, cond, hook, np.random.default_rng(1234))
        c = sample(world, sched, cond, hook, np.random.default_rng(1235))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_hook_stays_finite(self):
        world = build_gender_world()
        sched = linear_schedule(100, beta_end=0.1)
        cond = make_condition(world, "engineer")
        out = sample(world, sched, cond, lambda s, c: np.zeros(2),
                     np.random.default_rng(7))
        assert np.all(np.isfinite(out))

    def test_forward_marginal_matches_construction(self):
        """Noising world draws to level alpha_bar[t] must land on the same
        distribution the noise predictor assumes (KS test per axis)."""
        covs = {("engineer", "male"): [[2.0, 0.8], [0.8, 1.0]]}
        world = build_gender_world(male_weight=0.65, covariances=covs)
        cond = make_condition(world, "engineer")
        mix = conditional_components(world, cond)
        sched = linear_schedule(200, beta_end=0.1)
        t = 120
        a_bar = float(sched.alpha_bar[t])
        rng = np.random.default_rng(99)

        n = 4000
        ks = rng.choice(len(mix.components), size=n, p=mix.weights)
        x0 = np.empty((n, 2))
        for k in range(len(mix.components)):
            sel = ks == k
            c = mix.components[k]
            x0[sel] = rng.multivariate_normal(c.mean, c.covariance, size=sel.sum())
        xt = math.sqrt(a_bar) * x0 + math.sqrt(1 - a_bar) * rng.standard_normal((n, 2))

        for axis in range(2):
            def cdf(v, axis=axis):
                total = np.zeros_like(np.asarray(v, dtype=float))
                for w, c in zip(mix.weights, mix.components):
                    m = math.sqrt(a_bar) * c.mean[axis]
                    sd = math.sqrt(a_bar * c.covariance[axis, axis] + 1 - a_bar)
                    total += w * stats.norm.cdf(v, loc=m, scale=sd)
                return total

            p = stats.kstest(xt[:, axis], cdf).pvalue
            assert p > 0.005, f"axis {axis}: KS p-value {p}"

    def test_conditional_sampling_respects_hard_constraint(self):
        """Sampling with a gender-pinned condition yields >= 95% that gender."""
        from steerlab.evaluate import discriminate

        world = build_gender_world(male_weight=0.65)
        sched = linear_schedule(400, beta_end=0.05)
        cond = make_condition(world, "engineer", {"gender": "female"})
        rng = np.random.default_rng(2024)
        n = 1000
        # The streams share one generator, drawn in turn as `sample` would draw them.
        x, failed = run_trajectories(world, sched, [cond] * n,
                                     noise_tapes([rng] * n, sched.steps, world.dimension))
        assert not failed
        hits = sum(discriminate(world, p)[0]["gender"] == "female" for p in x)
        assert hits / n >= 0.95, f"only {hits}/{n} honored the constraint"
