"""Exceptions shared across the package."""


class SizeCapExceeded(RuntimeError):
    """An instance is larger than the configured cap allows.

    Every refusal is built by ``over``, whose one message names the stage
    ("power", "search", "transitivity check"); the caps exist so that
    exponential searches fail fast instead of running for hours.
    """

    @classmethod
    def over(cls, stage: str, size: int | str, cap: int) -> "SizeCapExceeded":
        """The refusal of ``size`` vertices, a count or text such as "5**9", at ``stage``."""
        return cls(f"{stage} too large: {size} vertices exceeds cap {cap}")


class SaturationRequired(RuntimeError):
    """Descriptor construction needs a saturating flow (value exactly 1/2)."""
