"""Positivity of Hankel moment blocks, hyponormal weighted shifts, atomic
representing measures, and rank-one scalings of a moment tail."""

from . import hankel, measures, numkit, perturbation, shifts
from .numkit import *  # noqa: F403
from .hankel import *  # noqa: F403
from .shifts import *  # noqa: F403
from .measures import *  # noqa: F403
from .perturbation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *numkit.__all__,
    *hankel.__all__,
    *shifts.__all__,
    *measures.__all__,
    *perturbation.__all__,
    "__version__",
]
