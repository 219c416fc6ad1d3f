"""Error taxonomy shared by the library and the CLI.

Every failure the toolkit can report falls into one of five categories that
the CLI maps to exit codes and a machine-readable stderr line:

    config   - bad or inconsistent configuration / arguments
    io       - file problems: missing, truncated, wrong magic, bad version
    shape    - dimension mismatches between tensors, matrices, plans
    rank     - requested rank not servable by the data or sketch sizes
    singular - a linear solve met a numerically rank-deficient system
"""

__all__ = ["TsketchError", "ConfigError", "IOFormatError", "ShapeError", "RankError", "SingularError"]


class TsketchError(Exception):
    """Base class; `category` is the machine-readable tag."""

    category = "config"


class ConfigError(TsketchError):
    category = "config"


class IOFormatError(TsketchError):
    category = "io"


class ShapeError(TsketchError):
    category = "shape"


class RankError(TsketchError):
    category = "rank"


class SingularError(TsketchError):
    category = "singular"

    def __init__(self, message, mode=None):
        super().__init__(message)
        self.mode = mode


EXIT_CODES = {
    "config": 2,
    "io": 3,
    "shape": 4,
    "rank": 5,
    "singular": 6,
}
