"""Multi-teacher single-student distillation for multi-domain dialogue."""

import sys

__version__ = "0.1.0"


def check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least ``least``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def check_number(name: str, value, positive: bool = False, most: float = sys.float_info.max) -> None:
    """Raise ``ValueError`` unless ``value`` is a number from 0 (above 0 when
    ``positive``) to ``most``: never a bool, NaN, an infinity, or beyond a float64."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (0 < value <= most or (value == 0 and not positive))):
        raise ValueError(f"{name} must be a number in {'(' if positive else '['}0, {most:g}], got {value!r}")
