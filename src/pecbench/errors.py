"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """An input value violates a documented invariant."""


class CapacityError(RuntimeError):
    """Instance exceeds a capacity cap (dense-matrix qubits, shot-draw memory)."""


class NumericDomainError(ValueError):
    """A formula was evaluated outside its numeric domain (e.g. P = 1)."""


class ConfigError(ValueError):
    """A run configuration file is malformed or inconsistent."""
