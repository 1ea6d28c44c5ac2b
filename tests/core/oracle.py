"""The filler-lookup oracle: the per-package board scan.

This is the whiteboard filler check the library ran before
:func:`repro.core.kernel.peek_filler` computed the one level that can
fill at a distance, kept verbatim as the model the kernel lookup is
checked against: test every parked package against its Section 3.1
window and keep the earliest-parked one of the lowest matching level.
"""

from typing import Optional

from repro.core.packages import MobilePackage, NodeStore
from repro.core.params import ControllerParams


def scan_filler(store: NodeStore, dist: int,
                params: ControllerParams) -> Optional[MobilePackage]:
    """The legacy linear board scan (no removal): first-parked package
    of the lowest in-window level.

    The reference :func:`repro.core.kernel.peek_filler` is
    property-tested against in ``tests/core/test_kernel.py``.
    """
    chosen: Optional[MobilePackage] = None
    for package in store.mobile:
        if params.in_filler_window(package.level, dist):
            if chosen is None or package.level < chosen.level:
                chosen = package
    return chosen
