"""Structured exceptions shared across the package.

Every error that can surface at the CLI boundary carries a stable ``code``
string so reports stay machine readable.
"""

from __future__ import annotations

from typing import Any, Dict


class ToolError(Exception):
    """Base class for all structured errors."""

    code = "Error"

    def __init__(self, message: str, **detail: Any):
        super().__init__(message)
        self.message = message
        self.detail: Dict[str, Any] = detail

    def to_json(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail:
            obj["detail"] = self.detail
        return obj


class InputSyntaxError(ToolError):
    """Input document is not well-formed (bad JSON, wrong top-level type)."""

    code = "SyntaxError"


class ValidationError(ToolError):
    """Well-formed input violating a structural invariant; detail has a path."""

    code = "ValidationError"


class CompositionError(ToolError):
    code = "CompositionError"


class NotMeetClosed(ToolError):
    code = "NotMeetClosed"


class MissingBounds(ToolError):
    code = "MissingBounds"


class ElementNotInPoset(ToolError):
    code = "ElementNotInPoset"


class ClosureDivergence(ToolError):
    """Flag closure hit a limit before reaching a fixpoint.

    ``reached`` maps each object id to the elements (``Subspace``s) the
    closure reached, in order of arrival: the seeds first, and the elements
    of the round it stopped in included.  All of them lie in the least
    fixpoint, so ``pipeline.analyze`` takes the rank count on a part of them
    and refutes the input where it fails.  ``reached`` is not part of the
    JSON report."""

    code = "ClosureDivergence"
    reached = None


class CriterionViolated(ToolError):
    code = "CriterionViolated"


class ConstructionFailure(ToolError):
    """Projection-family synthesis failed or failed its own verification."""

    code = "ConstructionFailure"


class AxiomViolation(ToolError):
    """The generated envelope is provably not inverse (witness in detail)."""

    code = "AxiomViolation"


class CycleError(ToolError):
    code = "CycleError"


class AlignmentFailure(ToolError):
    code = "AlignmentFailure"


class TooLarge(ToolError):
    code = "TooLarge"


class InternalError(ToolError):
    """An unexpected exception reached the CLI boundary (a defect, not bad input)."""

    code = "InternalError"
