"""Variance-preserving discrete diffusion with an analytic noise predictor.

The world is a Gaussian mixture, so the noisy marginal at step t is itself a
mixture with means sqrt(alpha_bar)*mu_k and covariances
alpha_bar*Sigma_k + (1-alpha_bar)*I.  The noise predictor is exact:

    epsilon(x, t | cond) = -sqrt(1 - alpha_bar[t]) * grad_x log p_t(x | cond)

which lets the sampler and every steering experiment run without any trained
network.  Cheap per-step evaluation matters here (millions of calls per
experiment), so mixtures are prepared once per condition, responsibilities
are computed in log space, and `run_trajectories` advances many independent
streams as one batch.  Its rows may follow any conditions, and it edits each
row's condition by a guidance plan's entries (`Steering`) itself: a step makes one kernel
call per shape (component count and covariance kind) among the rows' base
mixtures and, when steered, their edited ones, and the kernel gives each row
the bits it would get alone.  `sample` with `analytic_epsilon` and
`ancestral_step` is the one-point reference path the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, SteerlabError
from .world import (Condition, ConditionalMixture, MixtureWorld, conditional_components,
                    edit_condition)

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
    rows' mixture arrays, stacked along a leading row axis."""

    def __init__(self, mixes):
        self.identity_cov = mixes[0].identity_cov
        for name in ("means", "log_weights", "eig_vals", "eig_vecs"):
            arrays = [getattr(m, name) for m in mixes]
            setattr(self, name, None if arrays[0] is None else np.stack(arrays))


def _marginal(mix, a_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Marginal eigenvalues at level a_bar and their log-determinants: cached per
    mixture and level (they depend on nothing else), or computed on the
    gathered rows of RowMixtures."""
    if isinstance(mix, RowMixtures):
        s = a_bar * mix.eig_vals + (1.0 - a_bar)            # (B, K, d)
        return s, np.log(s).sum(axis=-1)
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
    if mix.identity_cov and mix.means.shape[-2] == 1:
        # One unit Gaussian: the score is minus the offset, and no weight matters.
        return -(x - math.sqrt(a_bar) * mix.means[..., 0, :])
    logits, offsets = _logits(mix, x, a_bar)
    if not mix.identity_cov:
        offsets = np.einsum("...kij,...kj->...ki", mix.eig_vecs, offsets)
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
    """Keep message as the first failure of each row b of the (B, d) batch, or
    of the (g, B, d) stack of batches, whose sum is non-finite (in any batch),
    and zero those sums' rows, so that they poison neither a later sum nor
    another row.  The whole array's sum is the fast path."""
    if math.isfinite(values.sum()):
        return
    bad = ~np.isfinite(values.sum(axis=-1))
    for b in np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0)):
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
    """A guidance plan as the trajectory engine applies it, to rows of any conditions.

    active[t] marks the steps whose noise estimate is blended.  plan is the
    controller's `guidance.GuidancePlan`; `run_trajectories` edits each row's
    condition to each entry's target and then to its reference, in plan order.
    """

    active: np.ndarray
    plan: "GuidancePlan"  # of guidance, which imports this module
    gamma: float
    scale: float


def _operands(columns) -> list[tuple]:
    """A step's kernel calls, one per shape among its (slot, row) cells, where
    row b follows columns[j][b] in slot j (0 the base, then the plan's edits):
    (operand, its rows of the (slots * B, d) noise stack, its rows of x or None for all)."""
    n = len(columns[0])
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for j, column in enumerate(columns):
        for b, m in enumerate(column):
            groups.setdefault((m.means.shape, m.identity_cov), []).append((j, b))
    operands = []
    for cells in groups.values():
        mixes = [columns[j][b] for j, b in cells]
        mix = mixes[0] if all(m is mixes[0] for m in mixes) else RowMixtures(mixes)
        at = [j * n + b for j, b in cells]  # increasing: cells come slot by slot, row by row
        at = slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1 else np.array(at)
        whole = len(cells) == n and all(j == cells[0][0] for j, _ in cells)  # rows 0..B-1
        operands.append((mix, at, None if whole else np.array([b for _, b in cells])))
    return operands


def _steer(steering: Steering, eps: np.ndarray, t: int, failures: dict[int, str], probe
           ) -> np.ndarray:
    """A steered step's blended noise from its (slots, B, d) noise stack, in `_edited`'s order."""
    base = eps[0]
    acc = np.zeros_like(base)
    for target, reference in zip(eps[1::2], eps[2::2]):
        acc += target - reference
    attr_term = steering.scale * acc / (len(eps) // 2)
    if probe is not None:
        probe.record(t, base, attr_term)
    out = steering.gamma * base + (1.0 - steering.gamma) * attr_term
    _check(out, f"non-finite steered noise at step {t}", failures)
    return out


def _edited(world: MixtureWorld, cond: Condition, plan) -> tuple[ConditionalMixture, ...] | str:
    """The condition's edited mixtures, each plan entry's target then reference, after the base
    slot, or the message of the error an edit raises."""
    try:
        return tuple(conditional_components(world, edit_condition(world, cond, attribute, value))
                     for attribute, entry in plan.entries
                     for value in (entry.target, entry.reference))
    except SteerlabError as exc:
        return str(exc)


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
    probe=None,
) -> tuple[np.ndarray, dict[int, str]]:
    """Independent streams advanced together as one (B, d) batch.

    Runs reverse steps start..stop-1 from x, the batch's latents after
    `start` steps.  x defaults to x_T, row 0 of the tapes, and stop to the
    number of steps, so that the result is the clean samples.  conds[b] is
    row b's condition, of any shape: a step makes one kernel call per shape
    among its base and edited mixtures (`_operands`).  The steering's edited
    mixtures are resolved once per condition key; the probe, if any, receives
    at each steered step the batch's rows, in batch order.  Every operation is
    row-wise, so row b equals `sample` with the same steering run on stream
    b's generator alone, however the trajectory is split and the rows grouped.

    Returns the latents and the failed rows: each row that goes non-finite
    maps to the message it would raise alone, and each row whose condition
    cannot take the steering's edits to that error's message, from before its
    first step.  A failed row's latents are NaN.  The other rows carry on
    untouched, and numpy's floating-point warnings are silenced, since the
    failed rows are the report.
    """
    steps = schedule.steps
    stop = steps if stop is None else stop
    if x is None:
        if start:
            raise ValueError("x is needed to start past step 0")
        x = tapes[0].copy()
    failures: dict[int, str] = {}
    columns = [[conditional_components(world, c) for c in conds]]
    plain = steered = _operands(columns)
    if steering is not None:
        edits = {key: _edited(world, c, steering.plan)
                 for key, c in {c.key(): c for c in conds}.items()}
        slots = []
        for b, c in enumerate(conds):
            mixes = edits[c.key()]
            if isinstance(mixes, str):  # the row fails unrun; its base mixture fills its edit slots
                failures[b] = mixes
                mixes = (columns[0][b],) * (2 * len(steering.plan.entries))
            slots.append(mixes)
        columns += zip(*slots)
        steered = _operands(columns)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(start, stop):
            t = steps - 1 - i
            blend = steering is not None and steering.active[t]
            operands = steered if blend else plain
            if len(operands) == 1 and operands[0][2] is None:  # one call over the batch itself
                eps = _noise(operands[0][0], x, schedule, t)
            else:
                eps = np.empty(((len(columns) if blend else 1) * len(x), x.shape[1]))
                for mix, at, rows in operands:
                    eps[at] = _noise(mix, x if rows is None else x[rows], schedule, t)
                eps = eps.reshape(-1, *x.shape) if blend else eps
            _check(eps, f"non-finite noise estimate at step {t}", failures)
            if blend:
                eps = _steer(steering, eps, t, failures, probe)
            x = schedule.inv_sqrt_alpha[t] * (x - schedule.noise_coef[t] * eps)
            if t >= 1:
                x = x + schedule.sqrt_beta[t] * tapes[i + 1]
            _check(x, f"non-finite latent produced at step {t}", failures)
    x[list(failures)] = np.nan
    return x, failures
