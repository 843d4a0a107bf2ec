"""Error types that map onto CLI exit codes, and the NaN guard on results.

Plain ``ValueError`` is used for domain errors (bad arguments, malformed
inputs); the two error classes here mark requests that are well-formed but
exceed what this build will compute, and are reported with exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import fields

__all__ = ["CapabilityError", "ResourceError", "NanGuard"]


class CapabilityError(RuntimeError):
    """The request is outside the supported parameter envelope (e.g. exact
    enumeration above the configured cap)."""


class ResourceError(RuntimeError):
    """The request would exceed the memory/time policy (e.g. a histogram
    level beyond the counting envelope)."""


class NanGuard:
    """Dataclass mixin: a float field holding NaN fails construction with
    ValueError, so a NaN never reaches a result or its CSV row."""

    def __post_init__(self) -> None:
        nan = [
            f.name for f in fields(self)
            if isinstance(value := getattr(self, f.name), float) and math.isnan(value)
        ]
        if nan:
            raise ValueError(f"{type(self).__name__}: NaN in {', '.join(nan)}")
