"""Numerical configuration shared by the quadrature and series code.

Resolution order for every field: explicit keyword > environment variable
> built-in default.  Environment variables are read once, when the config
object is constructed, so a long-running process sees a stable snapshot.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

from .errors import DomainError

_ENV_PREFIX = "MODITER_"

# field name -> (env suffix, parser)
_ENV_MAP = {
    "order": ("ORDER", int),
    "height": ("HEIGHT", float),
    "panels": ("PANELS", int),
    "tol": ("TOL", float),
    "cutoff": ("CUTOFF", int),
}


def _env_default(name: str, fallback):
    def factory():
        suffix, parse = _ENV_MAP[name]
        raw = os.environ.get(_ENV_PREFIX + suffix)
        if raw is None:
            return fallback
        try:
            return parse(raw)
        except ValueError as exc:
            raise DomainError(
                f"bad value for {_ENV_PREFIX}{suffix}: {raw!r}"
            ) from exc

    return field(default_factory=factory)


@dataclass(frozen=True)
class NumericsConfig:
    """Knobs for series truncation and path quadrature.

    order     -- default q-expansion truncation order
    height    -- imaginary part where "i*infinity" is cut off / panels stop
    panels    -- number of quadrature panels on the main path segment, where
                 the adaptive quadrature starts; it doubles them at most three
                 times, so the default 16 stalls past 128
    tol       -- target absolute accuracy for quadrature results
    cutoff    -- default number of terms for Dirichlet-type series
    """

    order: int = _env_default("order", 64)
    height: float = _env_default("height", 12.0)
    panels: int = _env_default("panels", 16)
    tol: float = _env_default("tol", 1e-8)
    cutoff: int = _env_default("cutoff", 2000)

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("order must be >= 1")
        if not (math.isfinite(self.height) and self.height > 0):
            raise DomainError("height must be positive and finite")
        if self.panels < 4:
            raise DomainError("panels must be >= 4")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DomainError("tol must be positive and finite")
        if self.cutoff < 1:
            raise DomainError("cutoff must be >= 1")

    def replace(self, **kwargs) -> "NumericsConfig":
        return dataclasses.replace(self, **kwargs)

