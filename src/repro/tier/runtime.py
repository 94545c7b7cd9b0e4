"""Process-wide default tier topology (mirrors :mod:`repro.faults.runtime`).

Experiment harnesses construct their platforms internally, so a CLI
flag cannot reach them through arguments. Installing a
:class:`~repro.pool.tier.TierTopology` here makes every
subsequently-constructed
:class:`~repro.faas.platform.ServerlessPlatform` whose config carries
no explicit ``tiers`` build that hierarchy. ``clear()`` restores the
default (the single-node pool, :meth:`TierTopology.flat`).
"""

from __future__ import annotations

from typing import Optional

from repro.pool.tier import TierTopology

_DEFAULT: Optional[TierTopology] = None


def install(topology: TierTopology) -> None:
    """Set the default tier topology for new platforms."""
    global _DEFAULT
    _DEFAULT = topology


def clear() -> None:
    """Remove the default; new platforms build the single-node pool."""
    global _DEFAULT
    _DEFAULT = None


def default_tiers() -> Optional[TierTopology]:
    """The currently-installed default, or None."""
    return _DEFAULT
