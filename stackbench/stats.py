"""Order statistics shared by the workloads and the report."""

from typing import Iterable


def quantile(values: Iterable[float], q: float) -> float:
    """The ``q`` quantile of ``values`` (nearest rank; 0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
