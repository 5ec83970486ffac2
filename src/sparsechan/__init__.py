"""Sparse delay-domain channel estimation for pilot-based OFDM systems.

The package exports the public names of its five library modules, each listed
once, in that module's ``__all__``.
"""

from . import baseline, channel, evaluation, signal_model, sparse_recovery
from .baseline import *  # noqa: F403
from .channel import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .signal_model import *  # noqa: F403
from .sparse_recovery import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *baseline.__all__,
    *channel.__all__,
    *evaluation.__all__,
    *signal_model.__all__,
    *sparse_recovery.__all__,
]
