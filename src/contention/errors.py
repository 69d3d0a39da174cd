"""Semantic exception hierarchy.

Everything raised for a violated data contract derives from ContentionError,
so callers (and the CLI) can distinguish bad input from bugs.
"""


class ContentionError(Exception):
    """Base class for all data-contract violations in this package."""


# -- core model ---------------------------------------------------------------

class EmptyPopulation(ContentionError):
    """Contention is undefined over an empty population."""


class NonExclusiveSpace(ContentionError):
    """The closed form requires the all-pairs-conflict stance pattern."""


class UnknownAttribute(ContentionError):
    """A sub-population filter names an attribute the data does not carry."""


# -- ingestion ----------------------------------------------------------------

class MalformedRow(ContentionError):
    """A CSV/JSON record does not match the documented schema."""


class NegativeCount(ContentionError):
    """Counts must be non-negative."""


class DuplicateStanceRow(MalformedRow):
    """The same (topic, stance) or (region, option) appears twice."""


class MissingTotal(ContentionError):
    """Percentage rows need a respondent total to become counts."""


class EligibleLessThanVotes(ContentionError):
    """An eligible population figure smaller than the ballots cast."""


class MissingEligible(ContentionError):
    """Eligible-population mode needs an eligible count for every region."""


class TotalLessThanStanceCounts(ContentionError):
    """A day's sample total smaller than the stance-tagged count."""


class ErrorBudgetExceeded(ContentionError):
    """Too many unparseable lines in a tweet stream."""


class EmptyInput(ContentionError):
    """An input with no data rows: a file with only a header, or a region
    table with no regions."""


# -- analytics ----------------------------------------------------------------

class MissingImportance(ContentionError):
    """A quadrant topic without an importance rating."""


class ImportanceOutOfDeclaredRange(ContentionError):
    """An importance rating outside the declared source scale."""


# -- cli ----------------------------------------------------------------------

class ConfigError(ContentionError):
    """An unreadable or contradictory config file."""


class ResultTooLarge(ContentionError):
    """A result integer with more digits than the interpreter writes as text."""
