"""steerlab: attribute-steered diffusion sampling over analytic mixture worlds.

The root holds the error classes and the harness entry points; every other
name is imported from its module.
"""

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
from .harness import (
    ExperimentSpec,
    PromptSpec,
    RunResult,
    run_generate,
    run_sweep,
    run_window_ablation,
)
