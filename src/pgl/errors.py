"""Error types that map onto CLI exit codes.

Plain ``ValueError`` is used for domain errors (bad arguments, malformed
inputs); the two classes here mark requests that are well-formed but exceed
what this build will compute, and are reported with exit code 2.
"""

from __future__ import annotations

__all__ = ["CapabilityError", "ResourceError"]


class CapabilityError(RuntimeError):
    """The request is outside the supported parameter envelope (e.g. exact
    enumeration above the configured cap)."""


class ResourceError(RuntimeError):
    """The request would exceed the memory/time policy (e.g. a histogram
    level beyond the counting envelope)."""
