"""Exception types shared across the package."""


class CurrencyNetError(Exception):
    """Base class for all domain errors raised by this package."""


# --- ledger ---------------------------------------------------------------

class NotHolderError(CurrencyNetError):
    """Payer does not currently hold the coin."""


class NotMemberError(CurrencyNetError):
    """Agent is outside the community that owns the coin's currency."""


class BrokenChainError(CurrencyNetError):
    """Consecutive hops of a chain payment do not share an agent."""


class UnknownAgentError(CurrencyNetError):
    pass


# --- accounting -----------------------------------------------------------

class BadIndexError(CurrencyNetError):
    """Step index outside the recorded history."""


class MonotonicityViolationError(CurrencyNetError):
    """An agent or coin disappeared between consecutive steps."""


class RecordError(CurrencyNetError):
    """A step record the history cannot hold: coins of a non-member key, a
    negative flow, or a balance row that does not span the key index."""


# --- economy --------------------------------------------------------------

class EmptyCurrencyError(CurrencyNetError):
    """A currency has no coins, so diluted balances are undefined."""


class ZeroCoinsError(CurrencyNetError):
    pass


class NonPositivePriceError(CurrencyNetError):
    pass


class InvalidRatesError(CurrencyNetError):
    """Exchange rate matrix violates fungibility, arbitrage-freeness or reciprocity."""


class DegenerateEconomyError(CurrencyNetError):
    """Equilibrium prices are indeterminate or zero for some currency."""


class InfeasibleAllocationError(CurrencyNetError):
    pass


# --- justice / identity ---------------------------------------------------

class ConditionViolatedError(CurrencyNetError):
    """The two-community convergence condition does not hold."""


class TooShortError(CurrencyNetError):
    pass


class UnknownPersonError(CurrencyNetError):
    pass


# --- engine / cli ---------------------------------------------------------

class ConfigError(CurrencyNetError):
    pass


class UnknownSuiteError(CurrencyNetError):
    pass
