"""Variance-preserving discrete diffusion with an analytic noise predictor.

The world is a Gaussian mixture, so the noisy marginal at step t is itself a
mixture with means sqrt(alpha_bar)*mu_k and covariances
alpha_bar*Sigma_k + (1-alpha_bar)*I.  The noise predictor is exact:

    epsilon(x, t | cond) = -sqrt(1 - alpha_bar[t]) * grad_x log p_t(x | cond)

which lets the sampler and every steering experiment run without any trained
network.  Cheap per-step evaluation matters here (millions of calls per
experiment), so mixtures are prepared once per condition, responsibilities
are computed in log space, and `run_trajectories` advances many independent
streams as one batch.  The streams of a batch may follow different conditions
of one shape (component count and covariance kind): `stack_rows` gathers
their mixtures along a leading row axis, and the kernel gives each row the
bits it would get alone.  `sample` with `analytic_epsilon` and
`ancestral_step` is the one-point reference path the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericsError
from .world import Condition, ConditionalMixture, MixtureWorld, conditional_components

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class NoiseSchedule:
    """Per-step beta values and their cumulative alpha_bar products.

    Derived coefficient arrays are filled in automatically; construction does
    not validate (tests may build degenerate schedules), linear_schedule does.
    """

    steps: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    sqrt_one_minus_alpha_bar: np.ndarray = field(init=False, repr=False)
    inv_sqrt_alpha: np.ndarray = field(init=False, repr=False)
    noise_coef: np.ndarray = field(init=False, repr=False)
    sqrt_beta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.alpha_bar = np.asarray(self.alpha_bar, dtype=float)
        one_minus = 1.0 - self.alpha_bar
        self.sqrt_one_minus_alpha_bar = np.sqrt(one_minus)
        self.inv_sqrt_alpha = 1.0 / np.sqrt(1.0 - self.beta)
        # beta/sqrt(1-alpha_bar), with the all-zero-beta degenerate case mapped to 0
        self.noise_coef = np.divide(
            self.beta, self.sqrt_one_minus_alpha_bar,
            out=np.zeros_like(self.beta), where=one_minus > 0,
        )
        self.sqrt_beta = np.sqrt(self.beta)

    def validate(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.beta.shape != (self.steps,) or self.alpha_bar.shape != (self.steps,):
            raise ValueError("beta and alpha_bar must both have length steps")
        if not np.all((self.beta > 0) & (self.beta < 1)):
            raise ValueError("every beta must lie strictly in (0, 1)")
        if not np.all((self.alpha_bar > 0) & (self.alpha_bar < 1)):
            raise ValueError("every alpha_bar must lie strictly in (0, 1)")
        if not np.all(np.diff(self.alpha_bar) < 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if np.abs(self.alpha_bar - np.cumprod(1.0 - self.beta)).max() > 1e-12:
            raise ValueError("alpha_bar must equal the running product of (1 - beta)")


def linear_schedule(steps: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linearly spaced betas; the standard discrete-time noising schedule."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    beta = np.linspace(beta_start, beta_end, steps)
    schedule = NoiseSchedule(steps=steps, beta=beta, alpha_bar=np.cumprod(1.0 - beta))
    schedule.validate()
    return schedule


@dataclass
class LatentState:
    """A point mid-reverse-trajectory; t_index counts remaining noisy levels."""

    x: np.ndarray
    t_index: int


class RowMixtures:
    """One mixture per row of a batch: row b follows mixes[b], all of one
    component count and covariance kind.  The arrays the kernel reads are the
    distinct sources' gathered along a leading row axis; the marginal cache
    stays on each source."""

    def __init__(self, mixes):
        self.sources = tuple({id(m): m for m in mixes}.values())
        if len({(m.means.shape, m.identity_cov) for m in self.sources}) > 1:
            raise ValueError("the rows of a batch need mixtures of one shape")
        index = {id(m): i for i, m in enumerate(self.sources)}
        self.rows = np.array([index[id(m)] for m in mixes])
        self.identity_cov = self.sources[0].identity_cov
        for name in ("means", "log_weights", "eig_vals", "eig_vecs"):
            arrays = [getattr(m, name) for m in self.sources]
            setattr(self, name, None if arrays[0] is None else np.stack(arrays)[self.rows])


def stack_rows(mixes) -> ConditionalMixture | RowMixtures:
    """The kernel operand for a batch whose row b follows mixes[b]; one shared mixture is itself."""
    return mixes[0] if all(m is mixes[0] for m in mixes) else RowMixtures(mixes)


def _marginal(mix, a_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Marginal eigenvalues at level a_bar and their log-determinants, cached per
    mixture and level (they depend on nothing else), gathered per row for RowMixtures."""
    if isinstance(mix, RowMixtures):
        s, log_det = zip(*(_marginal(m, a_bar) for m in mix.sources))
        return np.stack(s)[mix.rows], np.stack(log_det)[mix.rows]
    marginal = mix.marginals.get(a_bar)
    if marginal is None:
        s = a_bar * mix.eig_vals + (1.0 - a_bar)            # (K, d)
        marginal = mix.marginals[a_bar] = (s, np.log(s).sum(axis=-1))
    return marginal


def _logits(mix, x: np.ndarray, a_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """(B, K) logits log w_k + log N(x; sqrt(a_bar) mu_k, a_bar Sigma_k + (1 - a_bar) I),
    less d/2 log(2 pi), at a (B, d) batch, plus the per-component offsets the
    score needs (in the eigenbasis, over the marginal eigenvalues, for full
    covariances).  The mixture's arrays may carry a leading row axis
    (`RowMixtures`).  No operation mixes rows, so bits depend neither on B
    nor on which mixture the other rows follow.
    """
    sab = math.sqrt(a_bar)
    diff = x[:, None, :] - sab * mix.means                  # (B, K, d)
    if mix.identity_cov:
        # Sigma_k = I makes every marginal covariance exactly I.
        if mix.means.shape[-2] == 1:
            sq = np.matmul(diff, diff.transpose(0, 2, 1))[:, :, 0]
        else:
            sq = np.einsum("bkd,bkd->bk", diff, diff)
        return mix.log_weights - 0.5 * sq, diff
    s, log_det = _marginal(mix, a_bar)
    y = np.einsum("...kji,...kj->...ki", mix.eig_vecs, diff)  # rotate into eigenbasis
    ys = y / s
    logits = mix.log_weights - 0.5 * (np.einsum("bki,bki->bk", y, ys) + log_det)
    return logits, ys


def _score(mix, x: np.ndarray, a_bar: float) -> np.ndarray:
    """Score (grad log density) of the noised mixture at every row of a (B, d) batch."""
    logits, offsets = _logits(mix, x, a_bar)
    if not mix.identity_cov:
        offsets = np.einsum("...kij,...kj->...ki", mix.eig_vecs, offsets)
    elif mix.means.shape[-2] == 1:
        return -offsets[:, 0, :]
    m = logits.max(axis=1, keepdims=True)
    w = np.exp(logits - m)
    return -np.matmul(w[:, None, :], offsets)[:, 0, :] / w.sum(axis=1, keepdims=True)


def _logsumexp(logits: np.ndarray) -> float:
    m = logits.max()
    return m + math.log(np.exp(logits - m).sum())


def mixture_log_density(mix: ConditionalMixture, x: np.ndarray, a_bar: float = 1.0) -> float:
    """Log density of the conditional mixture noised to level a_bar (1 = data level)."""
    x = np.asarray(x, dtype=float)
    logits = _logits(mix, x[None, :], a_bar)[0][0]
    return _logsumexp(logits) - 0.5 * x.shape[0] * _LOG_2PI


def _noise(mix, x: np.ndarray, schedule: NoiseSchedule, t: int) -> np.ndarray:
    """Exact noise prediction for every row of a (B, d) batch at step t, unchecked."""
    return -schedule.sqrt_one_minus_alpha_bar[t] * _score(mix, x, float(schedule.alpha_bar[t]))


def _check(values: np.ndarray, message: str, failures: dict[int, str]) -> None:
    """Keep message as the first failure of each row of the (B, d) batch whose
    sum is non-finite, and zero that row, so that it poisons neither a later
    sum nor another row.  The whole batch's sum is the fast path."""
    if math.isfinite(values.sum()):
        return
    bad = ~np.isfinite(values.sum(axis=1))
    for b in np.flatnonzero(bad):
        failures.setdefault(int(b), message)
    values[bad] = 0.0


def analytic_epsilon(
    world: MixtureWorld, schedule: NoiseSchedule, state: LatentState, cond: Condition
) -> np.ndarray:
    """Exact conditional noise prediction at the state's step."""
    t = state.t_index
    if not 0 <= t < schedule.steps:
        raise ValueError(f"t_index {t} outside schedule range [0, {schedule.steps})")
    x = np.asarray(state.x, dtype=float)[None, :]
    eps = _noise(conditional_components(world, cond), x, schedule, t)[0]
    if not math.isfinite(eps.sum()):
        raise NumericsError(f"non-finite noise estimate at step {t}")
    return eps


def ancestral_step(
    schedule: NoiseSchedule,
    state: LatentState,
    epsilon_hat: np.ndarray,
    rng: np.random.Generator,
) -> LatentState:
    """One reverse step; the final step (t_index 0) adds no fresh noise."""
    t = state.t_index
    if not 0 <= t < schedule.steps:
        raise ValueError(f"t_index {t} outside schedule range [0, {schedule.steps})")
    x = schedule.inv_sqrt_alpha[t] * (state.x - schedule.noise_coef[t] * epsilon_hat)
    if t >= 1:
        x = x + schedule.sqrt_beta[t] * rng.standard_normal(x.shape[0])
    if not math.isfinite(float(x.sum())):
        raise NumericsError(f"non-finite latent produced at step {t}")
    return LatentState(x, t - 1)


def sample(
    world: MixtureWorld,
    schedule: NoiseSchedule,
    cond: Condition,
    noise_fn,
    rng: np.random.Generator,
) -> np.ndarray:
    """Full reverse trajectory from x_T ~ N(0, I) down to a clean sample.

    noise_fn(state, cond) supplies the per-step noise estimate.  This is the
    one-point reference for `run_trajectories`.
    """
    state = LatentState(rng.standard_normal(world.dimension), schedule.steps - 1)
    while state.t_index >= 0:
        state = ancestral_step(schedule, state, noise_fn(state, cond), rng)
    return state.x


@dataclass(frozen=True)
class Steering:
    """A guidance plan resolved for the trajectory engine.

    active[t] marks the steps whose noise estimate is blended.  Each pair
    holds the mixtures of a plan entry's target- and reference-edited
    conditions, one mixture or one per row (`stack_rows`).  The probe, if
    any, receives at each steered step the batch's rows, in batch order.
    """

    active: np.ndarray
    pairs: tuple[tuple[ConditionalMixture | RowMixtures, ConditionalMixture | RowMixtures], ...]
    gamma: float
    scale: float
    probe: object = None


def _steer(steering: Steering, base: np.ndarray, x: np.ndarray, schedule: NoiseSchedule,
           t: int, failures: dict[int, str]) -> np.ndarray:
    acc = np.zeros_like(base)
    for pair in steering.pairs:
        target, reference = (_noise(mix, x, schedule, t) for mix in pair)
        _check(target, f"non-finite noise estimate at step {t}", failures)
        _check(reference, f"non-finite noise estimate at step {t}", failures)
        acc += target - reference
    attr_term = steering.scale * acc / len(steering.pairs)
    if steering.probe is not None:
        steering.probe.record(t, base, attr_term)
    out = steering.gamma * base + (1.0 - steering.gamma) * attr_term
    _check(out, f"non-finite steered noise at step {t}", failures)
    return out


def stack_steering(rows: list[Steering], probe=None) -> Steering:
    """One Steering whose row b blends as rows[b] does: one plan and config,
    each pair's mixtures of one shape across rows (`stack_rows`)."""
    pairs = tuple(tuple(map(stack_rows, zip(*column))) for column in zip(*(s.pairs for s in rows)))
    return replace(rows[0], pairs=pairs, probe=probe)


def noise_tapes(rngs: list[np.random.Generator], steps: int, d: int) -> np.ndarray:
    """The (steps, B, d) noise tapes of independent streams.

    Stream b draws its whole tape with one standard_normal(steps * d) call:
    row 0 is x_T and row i the fresh noise of reverse step i (the final step
    adds none).  That consumes each generator exactly as `sample` does.
    """
    tapes = np.empty((steps, len(rngs), d))
    for b, rng in enumerate(rngs):
        tapes[:, b, :] = rng.standard_normal(steps * d).reshape(steps, d)
    return tapes


def run_trajectories(
    world: MixtureWorld,
    schedule: NoiseSchedule,
    conds: list[Condition],
    tapes: np.ndarray,
    steering: Steering | None = None,
    start: int = 0,
    stop: int | None = None,
    x: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[int, str]]:
    """Independent streams advanced together as one (B, d) batch.

    Runs reverse steps start..stop-1 from x, the batch's latents after
    `start` steps.  x defaults to x_T, row 0 of the tapes, and stop to the
    number of steps, so that the result is the clean samples.  conds[b] is
    row b's condition, all of one shape (`stack_rows`).  Every operation is
    row-wise, so row b equals `sample` with the same steering run on stream
    b's generator alone, however the trajectory is split and the rows grouped.

    Returns the latents and the failed rows: each row that goes non-finite
    maps to the message it would raise alone, and its latents are NaN.  The
    other rows carry on untouched, and numpy's floating-point warnings are
    silenced, since the failed rows are the report.
    """
    steps = schedule.steps
    stop = steps if stop is None else stop
    if x is None:
        if start:
            raise ValueError("x is needed to start past step 0")
        x = tapes[0].copy()
    failures: dict[int, str] = {}
    mix = stack_rows([conditional_components(world, c) for c in conds])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(start, stop):
            t = steps - 1 - i
            eps = _noise(mix, x, schedule, t)
            _check(eps, f"non-finite noise estimate at step {t}", failures)
            if steering is not None and steering.active[t]:
                eps = _steer(steering, eps, x, schedule, t, failures)
            x = schedule.inv_sqrt_alpha[t] * (x - schedule.noise_coef[t] * eps)
            if t >= 1:
                x = x + schedule.sqrt_beta[t] * tapes[i + 1]
            _check(x, f"non-finite latent produced at step {t}", failures)
    x[list(failures)] = np.nan
    return x, failures
