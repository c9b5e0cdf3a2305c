"""Pervious concrete property prediction: boosted trees, SVR, and the
pipeline that tunes, trains, and evaluates them on the bundled mixture data.
"""

__version__ = "0.1.0"

from . import analysis, data, gbrt, metrics, pipeline, svr, tuning  # noqa: F401
from .data import Dataset, MixtureRecord, Scaler, load_csv  # noqa: F401
from .metrics import EvalReport, evaluate_all  # noqa: F401
