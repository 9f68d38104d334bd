"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """An input value violates a documented invariant."""


class CapacityError(RuntimeError):
    """Instance exceeds a capacity cap (sector-solver sites, mask or shot-draw memory)."""


class NumericDomainError(ValueError):
    """A formula was evaluated outside its numeric domain (e.g. P = 1)."""


class ConfigError(ValueError):
    """A run configuration file is malformed or inconsistent."""


def gib(size: int) -> str:
    """size bytes in GiB, rounded up at two decimals, so a size over a cap never
    reads as the cap itself (1,102,936,565 bytes is "1.03", not "1.0")."""
    hundredths = -(-size * 100 // 2**30)
    return f"{hundredths // 100}.{hundredths % 100:02d}"
