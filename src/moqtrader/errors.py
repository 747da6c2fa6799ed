"""Exception types shared across the engine.

Every error carries a stable machine-readable ``code`` so the CLI can emit
error JSON without string matching.
"""

from __future__ import annotations


class EngineError(Exception):
    code = "EngineError"

    def __init__(self, message: str = "", **context):
        super().__init__(message or self.code)
        self.context = dict(context)

    def to_payload(self) -> dict:
        payload = {"error": self.code, "detail": str(self)}
        if self.context:
            payload["context"] = self.context
        return payload


class _RowError(EngineError):
    """Base for CSV errors located at a 1-based data row (header excluded)."""

    def __init__(self, row: int, message: str = ""):
        super().__init__(message or f"{self.code} at row {row}", row=row)


class MissingColumn(EngineError):
    code = "MissingColumn"


class UnparsableRow(_RowError):
    code = "UnparsableRow"


class NonMonotonicTimestamp(_RowError):
    code = "NonMonotonicTimestamp"


class NonPositivePrice(_RowError):
    code = "NonPositivePrice"


class SeriesTooShort(EngineError):
    code = "SeriesTooShort"


class InfeasibleFoldPlan(EngineError):
    code = "InfeasibleFoldPlan"


class InvalidActionForMode(EngineError):
    code = "InvalidActionForMode"


class RangeTooShort(EngineError):
    code = "RangeTooShort"


class EpisodeExhausted(EngineError):
    code = "EpisodeExhausted"


class BufferTooSmall(EngineError):
    code = "BufferTooSmall"


class ShapeMismatch(EngineError):
    code = "ShapeMismatch"


class Diverged(EngineError):
    code = "Diverged"


class EmptyCheckpointList(EngineError):
    code = "EmptyCheckpointList"


class UnknownKey(EngineError):
    code = "UnknownKey"

    def __init__(self, key: str, message: str = ""):
        super().__init__(message or f"unknown config key: {key}", key=key)


class InvalidValue(EngineError):
    code = "InvalidValue"

    def __init__(self, key: str, reason: str = ""):
        super().__init__(f"invalid value for {key}: {reason}" if reason else f"invalid value for {key}", key=key, reason=reason)


class MissingFile(EngineError):
    code = "MissingFile"
