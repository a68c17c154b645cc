"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class PastTimeError(SimError):
    """An event was scheduled before the current simulation clock."""


class UnknownNodeError(SimError):
    """A node id outside the deployed set was referenced."""


class UnknownScenarioError(SimError):
    """No builtin scenario with the requested name."""


class ScenarioSyntaxError(SimError):
    """Malformed scenario file. Carries the offending line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class ScenarioSemanticError(SimError):
    """Well-formed scenario file with inconsistent content."""


class LedgerOrderError(SimError):
    """Ledger events must arrive in non-decreasing time order."""


class LedgerConsistencyError(SimError):
    """A row the ledger refuses for its kind, its subkind or its uid."""

