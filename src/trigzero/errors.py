"""Exception types shared across the package."""


class UsageError(ValueError):
    """An operation was called outside its documented preconditions."""


class NumericError(RuntimeError):
    """A numerical routine failed to reach its accuracy or stability target."""


class CampaignError(RuntimeError):
    """A Monte Carlo campaign produced too many unusable replicates."""

