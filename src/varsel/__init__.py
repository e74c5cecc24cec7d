"""Greedy unsupervised variable selection.

Seven selection algorithms over a shared greedy engine, the metrics to
judge them (variance explained, frame potential, Gaussian mutual
information), exhaustive-search oracles with curvature-based performance
bounds, seeded synthetic benchmark data, and a benchmark harness with a
CLI front end (``varsel``).

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package re-exports those lists in order.
"""

from . import bench, dataset, engine, errors, metrics, oracle, selectors, simgen
from .bench import *  # noqa: F401,F403
from .dataset import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .selectors import *  # noqa: F401,F403
from .simgen import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (dataset, metrics, engine, selectors, oracle, simgen, bench, errors)
    for name in module.__all__
]
