"""One-pass sketching and recovery of low Tucker-rank tensor factorizations.

The pipeline: describe the measurement operators with a `SketchPlan`, push the
tensor (whole or in last-mode slabs) through `sketch` / `SketchAccumulator`,
then call `one_pass` (or `two_pass`, given a second look at the data) to get a
`TuckerFactorization` back. Everything downstream of the plan is deterministic
in the plan's seed.

Each module's ``__all__`` is its public API, and the package re-exports them
all. They are read before ``from .sketch import *`` rebinds ``sketch`` from
the module to the function.
"""

from . import ensembles, errors, evaluate, formats, recover, sketch, tensor

__all__ = [name for module in (ensembles, errors, evaluate, formats, recover, sketch, tensor)
           for name in module.__all__]

from .ensembles import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .evaluate import *  # noqa: E402, F403
from .formats import *  # noqa: E402, F403
from .recover import *  # noqa: E402, F403
from .sketch import *  # noqa: E402, F403
from .tensor import *  # noqa: E402, F403

__version__ = "0.1.0"
