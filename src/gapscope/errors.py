"""Shared exception types."""


class CapacityError(RuntimeError):
    """A request exceeds a configured desk-scale budget (sieve ceiling,
    enumeration order, polynomial length)."""


class QuadratureError(RuntimeError):
    """A Perron integral did not evaluate to a finite, converged value;
    carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}

