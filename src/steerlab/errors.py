"""Exception types shared across the package."""

from __future__ import annotations


class SteerlabError(Exception):
    """Base class for all package-specific failures."""


class WorldValidationError(SteerlabError):
    """A world definition violates a structural invariant."""

    index: int | None = None  # position of the attribute or component at fault, if one is


class WorldFileError(WorldValidationError):
    """A world file failed to parse or validate.

    Carries the 1-based line number the problem was detected on (0 for
    file-level problems such as a missing dimension directive).
    """

    def __init__(self, message: str, path: str = "<world>", line: int = 0):
        super().__init__(f"{path}:{line}: {message}" if line else f"{path}: {message}")
        self.path = path
        self.line = line


class InfeasibleConditionError(SteerlabError):
    """A condition selects no components in the world."""


class MemorySnapshotError(SteerlabError):
    """A persisted memory file is unreadable, corrupt, or incompatible."""


class NumericsError(SteerlabError):
    """A numerical routine produced a non-finite intermediate."""


class RenderError(SteerlabError):
    """Requested rendering is unsupported for this world."""
