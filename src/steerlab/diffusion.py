"""Variance-preserving discrete diffusion with an analytic noise predictor.

The world is a Gaussian mixture, so the noisy marginal at step t is itself a
mixture with means sqrt(alpha_bar)*mu_k and covariances
alpha_bar*Sigma_k + (1-alpha_bar)*I.  The noise predictor is exact:

    epsilon(x, t | cond) = -sqrt(1 - alpha_bar[t]) * grad_x log p_t(x | cond)

which lets the sampler and every steering experiment run without any trained
network.  Cheap per-step evaluation matters here (millions of calls per
experiment), so read-only mixtures are prepared once per condition, responsibilities
are computed in log space, and `run_trajectories` advances many independent
streams as one batch.  Its rows may follow any conditions under any guidance
plans, one per row (`Steering`), and it edits each row's condition by its plan's
entries itself, each edit once per distinct (condition, attribute, value): a
step makes one kernel call per shape (component count and covariance kind)
among the rows' base mixtures and, when steered, their edited ones, each over
that shape's distinct mixtures stacked once and gathered per row, and the
kernel gives each row the bits it would get alone.  A step does only that
arithmetic: finiteness is checked once, on the call's final latents, and the
rows that end non-finite are replayed alone with every stage checked, to name
the step and stage where each first failed.  `sample` with `analytic_epsilon` and
`ancestral_step` is the one-point reference path the engine is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    """One mixture per row of a batch: row b follows mixes[pick[b]], all of one
    component count and covariance kind.  The arrays the kernel reads are the
    mixtures' arrays, stacked once and gathered along a leading row axis."""

    def __init__(self, mixes, pick: np.ndarray):
        self.identity_cov = mixes[0].identity_cov
        for name in ("means", "log_weights", "eig_vals", "eig_vecs"):
            arrays = [getattr(m, name) for m in mixes]
            setattr(self, name, None if arrays[0] is None else np.stack(arrays)[pick])


def _logits(mix, x: np.ndarray, a_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """(B, K) logits log w_k + log N(x; sqrt(a_bar) mu_k, a_bar Sigma_k + (1 - a_bar) I),
    less d/2 log(2 pi), at a (B, d) batch, plus the per-component offsets the
    score needs (in the eigenbasis, over the marginal eigenvalues, for full
    covariances).  The mixture's arrays may carry a leading row axis
    (`RowMixtures`); the kernel only reads them.  No operation mixes rows, so
    bits depend neither on B nor on which mixture the other rows follow.
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
    s = a_bar * mix.eig_vals + (1.0 - a_bar)                # marginal eigenvalues
    log_det = np.log(s).sum(axis=-1)
    y = np.einsum("...kji,...kj->...ki", mix.eig_vecs, diff)  # rotate into eigenbasis
    ys = y / s
    logits = mix.log_weights - 0.5 * (np.einsum("bki,bki->bk", y, ys) + log_det)
    return logits, ys


def _row_max(logits: np.ndarray) -> np.ndarray:
    """Each row's max of a (B, K) array, column by column, in fewer numpy calls
    than a reduction at a few columns.  Max is exact in any order, so this has
    the bits of `logits.max(axis=1)`, NaN rows included, but for the sign of a
    zero max, which `exp(logits - max)` cannot see."""
    m = logits[:, 0]
    for k in range(1, logits.shape[1]):
        m = np.maximum(m, logits[:, k])
    return m


def _noise(mix, x: np.ndarray, a_bar: float, scale: float) -> np.ndarray:
    """Exact noise prediction, scale = sqrt(1 - a_bar) times minus the score (grad
    log density) of the noised mixture, at every row of a (B, d) batch, unchecked."""
    if mix.identity_cov and mix.means.shape[-2] == 1:
        # One unit Gaussian: minus the score is the offset, and no weight matters.
        return scale * (x - math.sqrt(a_bar) * mix.means[..., 0, :])
    logits, offsets = _logits(mix, x, a_bar)
    if not mix.identity_cov:
        offsets = np.einsum("...kij,...kj->...ki", mix.eig_vecs, offsets)
    w = np.exp(logits - _row_max(logits)[:, None])
    return scale * (np.matmul(w[:, None, :], offsets)[:, 0, :] / w.sum(axis=1, keepdims=True))


def _logsumexp(logits: np.ndarray) -> float:
    m = logits.max()
    return m + math.log(np.exp(logits - m).sum())


def mixture_log_density(mix: ConditionalMixture, x: np.ndarray, a_bar: float = 1.0) -> float:
    """Log density of the conditional mixture noised to level a_bar (1 = data level)."""
    x = np.asarray(x, dtype=float)
    logits = _logits(mix, x[None, :], a_bar)[0][0]
    return _logsumexp(logits) - 0.5 * x.shape[0] * _LOG_2PI


def _check(values: np.ndarray, message: str, failures: dict[int, str]) -> None:
    """Keep message as the first failure of each row b of the (B, d) batch, or
    of the (g, B, d) stack of batches, whose sum is non-finite (in any batch)."""
    bad = ~np.isfinite(values.sum(axis=-1))
    for b in np.flatnonzero(bad.reshape(-1, bad.shape[-1]).any(axis=0)):
        failures.setdefault(int(b), message)


def analytic_epsilon(
    world: MixtureWorld, schedule: NoiseSchedule, state: LatentState, cond: Condition
) -> np.ndarray:
    """Exact conditional noise prediction at the state's step."""
    t = state.t_index
    if not 0 <= t < schedule.steps:
        raise ValueError(f"t_index {t} outside schedule range [0, {schedule.steps})")
    x = np.asarray(state.x, dtype=float)[None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # NumericsError below
        eps = _noise(conditional_components(world, cond), x, float(schedule.alpha_bar[t]),
                     float(schedule.sqrt_one_minus_alpha_bar[t]))[0]
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
    with np.errstate(over="ignore", invalid="ignore"):  # NumericsError below
        x = schedule.inv_sqrt_alpha[t] * (state.x - schedule.noise_coef[t] * epsilon_hat)
        if t >= 1:
            x = x + schedule.sqrt_beta[t] * rng.standard_normal(x.shape[0])
        total = float(x.sum())
    if not math.isfinite(total):
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
    """Guidance plans as the trajectory engine applies them: one per row, of any condition.

    active[t] marks the steps whose noise estimate is blended.  plans[b] is row
    b's `guidance.GuidancePlan`, as the controller decides it; all hold the same
    number of entries.  `run_trajectories` edits each row's condition to each of
    its plan's entries' target and then to its reference, in plan order.
    """

    active: np.ndarray
    plans: tuple  # of guidance.GuidancePlan (guidance imports this module)
    gamma: float
    scale: float


def _operands(mixes: list, pick: np.ndarray) -> list[tuple]:
    """A step's kernel calls, one per shape among the mixtures `pick` names, where
    row b follows mixes[pick[j, b]] in slot j (0 the base, then the plan's edits):
    (operand, its rows of the (slots * B, d) noise stack, its rows of x or None for all)."""
    n = pick.shape[1]
    flat = pick.ravel()
    shapes: dict[tuple, int] = {}
    shape = np.array([shapes.setdefault((m.means.shape, m.identity_cov), len(shapes))
                      for m in mixes])[flat]
    operands = []
    for s in range(len(shapes)):
        at = np.flatnonzero(shape == s)  # increasing: cells come slot by slot, row by row
        if not len(at):
            continue
        used = np.bincount(flat[at], minlength=len(mixes)) > 0
        members = np.flatnonzero(used)
        mix = (mixes[members[0]] if len(members) == 1 else
               RowMixtures([mixes[i] for i in members], (np.cumsum(used) - 1)[flat[at]]))
        whole = len(at) == n and at[0] % n == 0 and at[-1] - at[0] == n - 1  # one slot's rows
        rows = None if whole else at % n
        if at[-1] - at[0] == len(at) - 1:
            at = slice(int(at[0]), int(at[-1]) + 1)
        operands.append((mix, at, rows))
    return operands


def _steer(steering: Steering, eps: np.ndarray, t: int, failures: dict[int, str] | None, probe
           ) -> np.ndarray:
    """A steered step's blended noise from its (slots, B, d) noise stack, in `_edited`'s
    order, checked into failures when they are given."""
    base = eps[0]
    acc = np.zeros_like(base)
    for target, reference in zip(eps[1::2], eps[2::2]):
        acc += target - reference
    attr_term = steering.scale * acc / (len(eps) // 2)
    if probe is not None:
        probe.record(t, base, attr_term)
    out = steering.gamma * base + (1.0 - steering.gamma) * attr_term
    if failures is not None:
        _check(out, f"non-finite steered noise at step {t}", failures)
    return out


def _edited(world: MixtureWorld, cond: Condition, key: tuple, plan, edits: dict
            ) -> tuple[ConditionalMixture, ...] | str:
    """The condition's edited mixtures, each plan entry's target then reference, after the base
    slot, or the message of the first edit in plan order that raises.  `edits` keeps each
    (condition key, attribute, value)'s mixture or message, so each is resolved once."""
    row = []
    for attribute, entry in plan.entries:
        for value in (entry.target, entry.reference):
            if (key, attribute, value) not in edits:
                try:
                    edits[key, attribute, value] = conditional_components(
                        world, edit_condition(world, cond, attribute, value))
                except SteerlabError as exc:
                    edits[key, attribute, value] = str(exc)
            edit = edits[key, attribute, value]
            if isinstance(edit, str):
                return edit
            row.append(edit)
    return tuple(row)


def _mixtures(world: MixtureWorld, conds: list[Condition], steering: Steering | None,
              failures: dict[int, str]) -> tuple[list[ConditionalMixture], np.ndarray]:
    """The distinct mixtures the rows follow, and the (slots, B) index of the one
    row b follows in slot j: its base, then, when steered, its plan's edits.
    Rows are resolved once per (condition key, plan), and edits once per
    (condition key, attribute, value).  A row whose condition cannot take its
    plan's edits fails unrun, its base filling its edit slots."""
    mixes: list[ConditionalMixture] = []
    ids: dict[int, int] = {}  # id of a mixture -> its index in mixes
    resolved: dict[tuple, tuple[tuple[int, ...], str | None]] = {}  # -> its picks, failure
    edits: dict[tuple, ConditionalMixture | str] = {}
    slots = 1 if steering is None else 1 + 2 * len(steering.plans[0].entries)
    picks = []
    for b, c in enumerate(conds):
        plan = None if steering is None else steering.plans[b]
        key = c.key()
        if (key, plan) not in resolved:
            base = conditional_components(world, c)
            edited = () if plan is None else _edited(world, c, key, plan, edits)
            message, row = (edited, (base,) * slots) if isinstance(edited, str) else (
                None, (base, *edited))
            if len(row) != slots:
                raise ValueError("a steering's plans must all hold the same number of entries")
            for m in row:
                if id(m) not in ids:
                    ids[id(m)] = len(mixes)
                    mixes.append(m)
            resolved[key, plan] = tuple(ids[id(m)] for m in row), message
        pick, message = resolved[key, plan]
        if message is not None:
            failures[b] = message
        picks.append(pick)
    return mixes, np.array(picks).T


def _reverse(schedule: NoiseSchedule, mixes: list, pick: np.ndarray, steering: Steering | None,
             tapes: np.ndarray, x: np.ndarray, start: int, stop: int, probe,
             failures: dict[int, str] | None) -> np.ndarray:
    """Reverse steps start..stop-1 of the (B, d) batch x, row b following mixes[pick[j, b]]
    in slot j, as `run_trajectories` runs them.  With a failures dict, every stage
    is checked as `sample` checks it alone (`_check`); without one, a step does
    only its rows' arithmetic and reduces nothing across a row."""
    steps = schedule.steps
    lo, hi = steps - stop, steps - start  # t runs from hi - 1 down to lo
    coefs = [a[lo:hi][::-1].tolist() for a in (
        schedule.alpha_bar, schedule.sqrt_one_minus_alpha_bar, schedule.inv_sqrt_alpha,
        schedule.noise_coef, schedule.sqrt_beta)]
    active = [False] * len(coefs[0]) if steering is None else steering.active[lo:hi][::-1].tolist()
    plain = steered = _operands(mixes, pick[:1])
    if steering is not None:
        steered = _operands(mixes, pick)
    n, d = x.shape
    for i, a_bar, scale, inv, coef, sqrt_beta, blend in zip(range(start, stop), *coefs, active):
        t = steps - 1 - i
        operands = steered if blend else plain
        if len(operands) == 1 and operands[0][2] is None:  # one call over the batch itself
            eps = _noise(operands[0][0], x, a_bar, scale)
        else:
            eps = np.empty(((len(pick) if blend else 1) * n, d))
            for mix, at, rows in operands:
                eps[at] = _noise(mix, x if rows is None else x[rows], a_bar, scale)
            eps = eps.reshape(-1, n, d) if blend else eps
        if failures is not None:
            _check(eps, f"non-finite noise estimate at step {t}", failures)
        if blend:
            eps = _steer(steering, eps, t, failures, probe)
        x = inv * (x - coef * eps)
        if t >= 1:
            x = x + sqrt_beta * tapes[i + 1]
        if failures is not None:
            _check(x, f"non-finite latent produced at step {t}", failures)
    return x


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
    row b's condition, of any shape, and the steering's plans[b] its plan: a
    step makes one kernel call per shape among its base and edited mixtures
    (`_operands`).  Rows are resolved once per (condition key, plan) and edits
    once per (condition key, attribute, value), and each shape's operand
    gathers its rows from that shape's distinct mixtures, stacked once; the
    probe, if any, receives at each steered step the batch's rows, in batch
    order.  Every operation is row-wise, so row b equals
    `sample` with the same steering run on stream b's generator alone, however
    the trajectory is split and the rows grouped.

    No step checks finiteness: a step does only its rows' arithmetic.  A
    non-finite value never turns finite again (inf meets inf and gives NaN,
    and NaN stays NaN), so the call checks its final latents once, and runs
    each row that ends non-finite again alone, from the call's x, with every
    stage checked as `sample` checks it; one such replay covers the call's
    failed rows.  Every row computes as if alone, so the replay repeats the
    bits and names the first failing step and stage.

    Returns the latents and the failed rows: each row that goes non-finite
    maps to the message it would raise alone, and each row whose condition
    cannot take the steering's edits to that error's message, from before its
    first step.  A failed row's latents are NaN, and its probe rows, if any,
    are not those of a run alone.  The other rows carry on untouched, and
    numpy's floating-point warnings are silenced, since the failed rows are
    the report.
    """
    stop = schedule.steps if stop is None else stop
    if x is None and start:
        raise ValueError("x is needed to start past step 0")
    x = (tapes[0] if x is None else x).copy()  # failed rows are marked in a copy, not in x
    if steering is not None and len(steering.plans) != len(conds):
        raise ValueError(f"{len(steering.plans)} plans for {len(conds)} rows")
    failures: dict[int, str] = {}
    mixes, pick = _mixtures(world, conds, steering, failures)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _reverse(schedule, mixes, pick, steering, tapes, x, start, stop, probe, None)
        # A non-finite latent stays non-finite, so a row that failed at any stage ends so.
        ended = ~np.isfinite(out.sum(axis=1))
        ended[list(failures)] = False
        if ended.any():
            rows = np.flatnonzero(ended)
            alone = None if steering is None else replace(
                steering, plans=tuple(steering.plans[b] for b in rows))
            replayed: dict[int, str] = {}
            _reverse(schedule, mixes, pick[:, rows], alone, tapes[:, rows], x[rows], start, stop,
                     None, replayed)
            failures.update((int(rows[j]), message) for j, message in replayed.items())
    out[list(failures)] = np.nan
    return out, failures
