"""Exception types shared across the toolkit.

Every error raised by library code derives from :class:`KgFaithError`
so callers can catch the whole family with one clause. Validation-style
errors also derive from ValueError.
"""

from __future__ import annotations


class KgFaithError(Exception):
    """Base class for all toolkit errors."""


# --- cli -----------------------------------------------------------------

class ConfigValidation(KgFaithError, ValueError):
    """A command-line or config-file value failed validation."""


class UnknownCommand(ConfigValidation):
    """The requested subcommand does not exist."""


# --- graph store ---------------------------------------------------------

class MalformedLine(KgFaithError, ValueError):
    """An input line does not have the shape its file format demands."""

    def __init__(self, line_number: int, expected: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: expected {expected}")


class EmptyGraph(KgFaithError, ValueError):
    """The triple file contained no triples."""


class UnknownEntity(KgFaithError, KeyError):
    """An entity id or name is not in the vocabulary."""


class UnknownRelation(KgFaithError, KeyError):
    """A relation name is not in the vocabulary."""


# --- critic --------------------------------------------------------------

class UnlinkedResponse(KgFaithError, ValueError):
    """A response has grounding triples but no linkable mention spans."""


class MalformedLabels(KgFaithError, ValueError):
    """A record to refine lacks the ``labels`` that ``critique`` writes, or has bad ones."""

    def __init__(self, record_number: int, reason: str):
        self.record_number = record_number
        super().__init__(f"record {record_number}: {reason}; run critique on the input first")


# --- corruptor -----------------------------------------------------------

class NoEligibleReplacement(KgFaithError, ValueError):
    """No mention of the record has a nonempty extrinsic replacement pool."""


class NotApplicable(KgFaithError, ValueError):
    """Intrinsic corruption has no swappable subject/object pair."""


class AllRecordsDropped(KgFaithError, ValueError):
    """Every input record was dropped while building the synthetic dataset."""


# --- embeddings ----------------------------------------------------------

class ZeroDimension(ConfigValidation):
    """Requested embedding dimension is below 1."""


class DimensionMismatch(KgFaithError, ValueError):
    """Vector operands do not share one dimension."""


class EmptyPool(KgFaithError, ValueError):
    """A negative-sampling candidate pool is empty."""


class DivergenceDetected(KgFaithError, RuntimeError):
    """Mean training loss became non-finite."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"mean loss non-finite at epoch {epoch}")


class EmptyHoldout(KgFaithError, ValueError):
    """Link-prediction evaluation received no held-out triples."""


# --- retriever -----------------------------------------------------------

class RetrievalImpossible(KgFaithError, RuntimeError):
    """No anchor, grounding triple, subgraph edge or candidate for a flagged span."""


# --- metrics -------------------------------------------------------------

class EmptyInput(KgFaithError, ValueError):
    """A metric received an empty or invalid input list."""


class LengthMismatch(KgFaithError, ValueError):
    """Paired lists differ in length: hypotheses/references, query vectors/flagged spans."""
