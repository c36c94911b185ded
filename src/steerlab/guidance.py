"""Attribute steering: latent directions from edited conditions, blended per step.

Inside a configured reverse-progress window the sampler's noise estimate is a
convex blend of the base conditional estimate and an attribute term.  The
attribute term for one attribute is the difference between noise estimates
under two edited conditions (value pinned to target vs. reference), which
points along the latent separation between those attribute values at the
current noise level.  Outside the window the base estimate passes through
untouched and no edited condition is ever evaluated.

`resolve_steering` turns a plan into the attribute-value pins the trajectory
engine edits each row's condition by (`world.edit_condition`) before it applies
the blend; `combined_noise` is the one-point reference of the same blend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import LatentState, NoiseSchedule, Steering, analytic_epsilon
from .errors import NumericsError
from .world import Condition, MixtureWorld, edit_condition


@dataclass(frozen=True)
class GuidanceConfig:
    gamma: float = 0.7
    window: tuple[float, float] = (0.375, 0.625)
    attribute_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        lo, hi = self.window
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"window must satisfy 0 <= lo < hi <= 1, got {self.window}")
        if not 0 < self.attribute_scale < math.inf:
            raise ValueError(f"attribute_scale must be positive and finite, "
                             f"got {self.attribute_scale}")


@dataclass(frozen=True)
class PlanEntry:
    """Steering directive for one attribute: push target, away from reference."""

    target: str
    reference: str

    def __post_init__(self):
        if self.target == self.reference:
            raise ValueError(f"target and reference must differ, both {self.target!r}")


@dataclass(frozen=True)
class GuidancePlan:
    """Per-attribute steering directives as (attribute name, entry) pairs, in schema order."""

    entries: tuple[tuple[str, PlanEntry], ...]


EMPTY_PLAN = GuidancePlan(())


def window_mask(schedule: NoiseSchedule, config: GuidanceConfig) -> np.ndarray:
    """active[t]: step t lies in the window by reverse-progress fraction, half-open [lo, hi).

    Progress runs 0 at the first reverse step (t = steps-1) to 1 at the last
    (0 throughout a one-step schedule); a window ending at 1.0 is treated as
    closed there so that the full window (0, 1) covers every step.
    """
    progress = np.arange(schedule.steps - 1, -1, -1) / max(schedule.steps - 1, 1)
    lo, hi = config.window
    return (lo <= progress) & ((progress < hi) | ((hi >= 1.0) & (progress == 1.0)))


def adaptive_latent_direction(
    world: MixtureWorld,
    schedule: NoiseSchedule,
    state: LatentState,
    cond: Condition,
    attribute: str,
    pair: tuple[str, str],
) -> np.ndarray:
    """Noise-space direction separating two values of one attribute.

    Computed as the difference of the analytic noise estimates under the two
    edited conditions; antisymmetric in the pair by construction.
    """
    value_i, value_j = pair
    eps_i = analytic_epsilon(world, schedule, state, edit_condition(world, cond, attribute, value_i))
    eps_j = analytic_epsilon(world, schedule, state, edit_condition(world, cond, attribute, value_j))
    return eps_i - eps_j


class GuidanceProbe:
    """Optional per-step diagnostics: cosine and norms of the blended terms.

    Each recorded step keeps its batch's rows as arrays; `stream(b)` lists
    stream b's rows, one (t_index, cosine, base_norm, attr_norm) per step.
    """

    def __init__(self):
        self.steps: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def record(self, t_index: int, base: np.ndarray, attr_term: np.ndarray) -> None:
        """One step of a (B, d) batch.  Batched matmul reproduces, row by row,
        the bits of np.linalg.norm and of `@` on that row alone."""
        nb = np.sqrt(np.matmul(base[:, None, :], base[:, :, None])[:, 0, 0])
        na = np.sqrt(np.matmul(attr_term[:, None, :], attr_term[:, :, None])[:, 0, 0])
        dot = np.matmul(base[:, None, :], attr_term[:, :, None])[:, 0, 0]
        cosine = np.divide(dot, nb * na, out=np.zeros_like(dot), where=(nb > 0) & (na > 0))
        self.steps.append((t_index, cosine, nb, na))

    def stream(self, b: int) -> list[tuple[int, float, float, float]]:
        return [(t, float(c[b]), float(nb[b]), float(na[b])) for t, c, nb, na in self.steps]


def combined_noise(
    world: MixtureWorld,
    schedule: NoiseSchedule,
    state: LatentState,
    cond: Condition,
    plan: GuidancePlan,
    config: GuidanceConfig,
    probe: GuidanceProbe | None = None,
) -> np.ndarray:
    """Blend the base noise estimate with the plan's attribute directions.

    gamma = 1 short-circuits to the base estimate bitwise; outside the window
    (or with an empty plan) the base estimate passes through and no edited
    condition is evaluated.
    """
    base = analytic_epsilon(world, schedule, state, cond)
    if (config.gamma == 1.0 or not plan.entries
            or not window_mask(schedule, config)[state.t_index]):
        return base
    acc = np.zeros_like(base)
    for attribute, entry in plan.entries:
        acc += adaptive_latent_direction(
            world, schedule, state, cond, attribute, (entry.target, entry.reference)
        )
    attr_term = config.attribute_scale * acc / len(plan.entries)
    if probe is not None:
        probe.record(state.t_index, base[None], attr_term[None])
    out = config.gamma * base + (1.0 - config.gamma) * attr_term
    if not math.isfinite(float(out.sum())):
        raise NumericsError(f"non-finite steered noise at step {state.t_index}")
    return out


def resolve_steering(plan: GuidancePlan, config: GuidanceConfig, active: np.ndarray
                     ) -> Steering | None:
    """The plan as `run_trajectories` applies it: the blend of `combined_noise`.

    `active` is the config's `window_mask`.  None when no step would be
    blended (gamma = 1, an empty plan, or a window holding no step); then, as
    in combined_noise, no edited condition is evaluated.
    """
    if config.gamma == 1.0 or not plan.entries or not active.any():
        return None
    pins = tuple((attribute, value) for attribute, entry in plan.entries
                 for value in (entry.target, entry.reference))
    return Steering(active, pins, config.gamma, config.attribute_scale)
