"""steerlab: attribute-steered diffusion sampling over analytic mixture worlds."""

__version__ = "0.1.0"

from .errors import (
    InfeasibleConditionError,
    MemorySnapshotError,
    NumericsError,
    RenderError,
    SteerlabError,
    WorldFileError,
    WorldValidationError,
)
from .world import (
    Attribute,
    AttributeSchema,
    Component,
    Condition,
    MixtureWorld,
    TargetDistribution,
    conditional_components,
    embed_condition,
    make_condition,
)
from .worldfile import default_world_path, load_world, parse_world
from .diffusion import (
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
from .guidance import (
    EMPTY_PLAN,
    GuidanceConfig,
    GuidancePlan,
    PlanEntry,
    adaptive_latent_direction,
    combined_noise,
    edit_condition,
    in_window,
    resolve_steering,
    window_mask,
)
from .controller import (
    Cluster,
    IndicatorPolicy,
    MemoryModule,
    consolidate,
    decide,
    default_match_threshold,
    lookup,
    record,
    restore_memory,
    snapshot_memory,
)
from .evaluate import (
    BiasReport,
    bias_score,
    build_report,
    discriminate,
    quality_score,
    value_frequencies,
)
from .harness import (
    ExperimentSpec,
    PromptSpec,
    RunResult,
    run_generate,
    run_sweep,
    run_window_ablation,
)
from .render import render_scatter
