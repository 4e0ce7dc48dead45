"""Exception hierarchy shared by all explainkit modules."""

from __future__ import annotations


class ExplainError(Exception):
    """Base class for all explainkit errors."""


class DataError(ExplainError):
    """Malformed or unusable input data (CSV ingestion, bad cells, ...)."""


class SchemaError(ExplainError):
    """Observation, dataset, or predictor schemas do not line up."""


class ModelError(ExplainError):
    """Model fitting or evaluation failed (rank deficiency, caps, ...)."""


class ConvergenceError(ModelError):
    """An iterative solver hit its iteration cap before converging."""


class ScorerError(ModelError):
    """An external scoring subprocess misbehaved.

    Carries the exit status and captured standard error text when available
    so callers can surface the subprocess diagnostics.
    """

    def __init__(
        self,
        message: str,
        exit_status: int | None = None,
        stderr_text: str | None = None,
    ):
        super().__init__(message)
        self.exit_status = exit_status
        self.stderr_text = stderr_text

    def __str__(self) -> str:
        base = super().__str__()
        parts = [base]
        if self.exit_status is not None:
            parts.append(f"exit status {self.exit_status}")
        if self.stderr_text:
            parts.append(f"stderr: {self.stderr_text.strip()}")
        return " | ".join(parts)


class UsageError(ExplainError):
    """Bad command-line invocation."""
