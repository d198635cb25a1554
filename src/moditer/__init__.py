"""Modular iterated integrals, multiple modular L-functions, and MZVs on Y0(4)."""

from . import forms, identities, iterint, lfun, mzv, qseries, quad
from .config import NumericsConfig
from .errors import (
    AccuracyError,
    DivergenceError,
    DomainError,
    ModiterError,
    PoleError,
    TruncationError,
)

__version__ = "0.1.0"

# numpy is the only numeric backend; the name stays for callers that report it
BACKEND = "python"

__all__ = [
    "qseries",
    "forms",
    "iterint",
    "lfun",
    "identities",
    "mzv",
    "quad",
    "cli",
    "NumericsConfig",
    "ModiterError",
    "DomainError",
    "PoleError",
    "DivergenceError",
    "AccuracyError",
    "TruncationError",
    "BACKEND",
    "__version__",
]
