"""Reusable test/chaos utilities shipped with the library.

Shipped as part of the package (not under ``tests/``) so downstream users
can chaos-test their own deployments of the serving stack with the same
machinery our CI uses — see :mod:`repro.testing.faults` and the
chaos-testing guide in ``docs/operations.md``.
"""

from repro.testing.faults import (
    FaultInjector,
    crash_process,
    flip_byte,
    raise_disk_full,
    sleep_for,
    tear_tail,
)

__all__ = [
    "FaultInjector",
    "crash_process",
    "flip_byte",
    "raise_disk_full",
    "sleep_for",
    "tear_tail",
]
