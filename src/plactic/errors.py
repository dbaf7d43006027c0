"""Exception types shared across the package."""


class PlacticError(Exception):
    """Base class for all package errors."""


class ParseError(PlacticError):
    """Malformed word or machine text input."""


class RankError(ParseError):
    """Letter outside the alphabet {1..rank}."""


class OutputError(PlacticError):
    """An output file or directory cannot be written."""


class ResourceLimit(PlacticError):
    """A fixed search or memory bound was exceeded."""


class ViolationFound(PlacticError):
    """A rewriting rule fails to decrease under the word order."""

    def __init__(self, rule, message=""):
        self.rule = rule
        super().__init__(message or f"non-decreasing rule: {rule!r}")

    def __reduce__(self):
        # the default rebuilds from args, which hold the message alone
        return type(self), (self.rule, str(self))


class NotInL(PlacticError):
    """Input word is not in the normal-form language."""
