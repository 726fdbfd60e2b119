"""Exception hierarchy.

Every failure names the witness that falsifies the claimed property in its
message, so callers (and the CLI report) can print a concrete counterexample
instead of a bare boolean. A failure gets its own class only where ``src/``
catches it by type or a test names it, and every class is raised in
``src/``. A failure is in one of two categories: the input is at fault or
exceeds a search limit (``ValidationError`` with its subclasses, and the
precondition, search-limit and syntax classes), or a theorem the workbench
certifies fails on an instance (``TheoremViolation``, a bug). A failure
without its own class raises ``ValidationError``, with its message built at
the raise site.
"""

from __future__ import annotations


class ImwError(Exception):
    """Base class for all workbench errors."""


class ValidationError(ImwError):
    """A structure failed one of its defining axioms."""


# --- monoid / congruence level -------------------------------------------

class NotAssociative(ValidationError):
    def __init__(self, x: int, y: int, z: int):
        self.witness = (x, y, z)
        super().__init__(f"not associative: ({x}*{y})*{z} != {x}*({y}*{z})")


class NotIdentity(ValidationError):
    def __init__(self, id_: int, x: int):
        self.witness = x
        super().__init__(f"element {id_} is not an identity: fails on {x}")


class IndexOutOfRange(ValidationError):
    def __init__(self, where: str, value: int, n: int):
        self.value = value
        super().__init__(f"{where}: entry {value} outside 0..{n - 1}")


class NotACongruence(ValidationError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"relation is not compatible with multiplication: {witness}")


class NotHomomorphism(ValidationError):
    def __init__(self, x: int, y: int | None = None, detail: str = ""):
        self.witness = (x, y)
        msg = f"map is not a homomorphism at ({x},{y})" if y is not None else \
            f"map does not preserve the identity ({x})"
        super().__init__(msg + (f": {detail}" if detail else ""))


# --- inverse-monoid level --------------------------------------------------

class NoInverse(ValidationError):
    def __init__(self, x: int):
        self.witness = x
        super().__init__(f"element {x} has no generalized inverse")


class NonUniqueInverse(ValidationError):
    def __init__(self, x: int, candidates):
        self.witness = (x, tuple(candidates))
        super().__init__(f"element {x} has several generalized inverses: {sorted(candidates)}")


class TheoremViolation(ImwError):
    """A theorem the workbench certifies fails on an instance; indicates a bug, not bad input."""


# --- extensions -------------------------------------------------------------

class KernelMismatch(ValidationError):
    def __init__(self, x: int, direction: str):
        self.witness = x
        super().__init__(f"kernel condition fails: element {x} ({direction})")


class EmptyCandidateFiber(ValidationError):
    def __init__(self, h: int, fiber):
        self.h = h
        self.fiber = tuple(fiber)
        super().__init__(
            f"no admissible section value over class {h}; fiber {sorted(fiber)}")


# --- constructions ----------------------------------------------------------

class AxiomViolation(ValidationError):
    def __init__(self, axiom: str, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom} fails at {witness}")


class ConditionViolation(ValidationError):
    def __init__(self, condition: int | str, witness):
        self.condition = condition
        self.witness = witness
        super().__init__(f"condition {condition} fails at {witness}")


class IdentityNotTop(ValidationError):
    def __init__(self, got: int):
        self.witness = got
        super().__init__(f"map must send the group identity to the top element, got {got}")


class PreconditionFailed(ImwError):
    def __init__(self, requirement: str, witness=None):
        self.witness = witness
        super().__init__(f"precondition not met: {requirement}"
                         + (f" (witness {witness})" if witness is not None else ""))


# --- search limits -----------------------------------------------------------

class SizeLimitExceeded(ImwError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"isomorphism search on {n} elements exceeds limit {limit}")


class BudgetExceeded(ImwError):
    def __init__(self, tried: int, budget: int):
        super().__init__(f"search tried {tried} candidate rows, over budget {budget}")


# --- file formats -------------------------------------------------------------

class MtabSyntaxError(ImwError):
    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
