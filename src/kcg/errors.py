"""Exception types shared across the package."""


class KcgError(Exception):
    """Base class for domain errors: bad input data, failed validation."""


class PolynomialError(KcgError):
    """Raised for polynomial inputs outside the canonical-form contract."""


class SeifertError(KcgError):
    """Raised for matrices that fail the Seifert-form validation."""


class ProfileError(SeifertError):
    """A signature profile is inconsistent with a factorization."""


class RecordError(KcgError):
    """A knot record violates one of its invariants."""


class TableError(KcgError):
    """A knot table file cannot be parsed."""
