"""Error classes shared across the package's layers."""


class InternalCheckError(AssertionError):
    """An identity that must hold by construction failed; indicates a bug.

    Raised explicitly rather than through ``assert``, so the check still runs
    under ``python -O``.
    """
