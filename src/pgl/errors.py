"""Error types that map onto CLI exit codes, and the NaN guard on results.

Plain ``ValueError`` is used for domain errors (bad arguments, malformed
inputs); ``ResourceError`` marks a request that is well-formed but exceeds
what this build will compute, and is reported with exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import fields

__all__ = ["ResourceError", "NanGuard"]


class ResourceError(RuntimeError):
    """The request would exceed the memory/time policy: a histogram level
    beyond the counting envelope, or an exact enumeration above its cap."""


class NanGuard:
    """Dataclass mixin: a float field holding NaN fails construction with
    ValueError, so a NaN never reaches a result or its CSV row.  It has no
    slots of its own, so a slotted dataclass that mixes it in keeps no
    instance dict."""

    __slots__ = ()

    def __post_init__(self) -> None:
        nan = [
            f.name for f in fields(self)
            if isinstance(value := getattr(self, f.name), float) and math.isnan(value)
        ]
        if nan:
            raise ValueError(f"{type(self).__name__}: NaN in {', '.join(nan)}")
