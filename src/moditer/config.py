"""Numerical configuration shared by the quadrature and series code.

A NumericsConfig is a plain value: its defaults are the literals below, and
building one reads nothing from the process.  Library calls take one as an
argument and default to NumericsConfig(); only the command line reads
environment variables into it (see cli._config_from).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class NumericsConfig:
    """Knobs for series truncation and path quadrature.

    order     -- default q-expansion truncation order
    height    -- imaginary part where "i*infinity" is cut off / panels stop
    panels    -- number of quadrature panels on the main path section, where
                 the adaptive quadrature starts: a geometric chain on the
                 vertical descent from height to i/sqrt(N), uniform panels on
                 a finite segment; it doubles them at most three times, so the
                 default 6 stalls past 48
    tol       -- target absolute accuracy for quadrature results
    cutoff    -- default number of terms for Dirichlet-type series
    """

    order: int = 64
    height: float = 12.0
    panels: int = 6
    tol: float = 1e-8
    cutoff: int = 2000

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
