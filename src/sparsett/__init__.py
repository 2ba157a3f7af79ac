"""sparsett: tensor-train decomposition of large sparse tensors and
matrices directly from their nonzeros."""

import sys as _sys

from .errors import *
from .fasttt import *
from .formats import *
from .generators import *
from .linalg import *
from .tensor import *
from .ttformat import *

__version__ = "0.1.0"

# The package exports exactly what its modules export.  The modules are
# looked up in ``sys.modules`` because the ``fasttt`` function imported
# above shadows the module of the same name.
__all__ = [
    name
    for module in ("errors", "fasttt", "formats", "generators", "linalg", "tensor", "ttformat")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
] + ["__version__"]
