"""``repro.tier``: hierarchical, sharded memory pool with migration.

The data plane (tier/shard topology, striping, the aggregate pool
view) lives in :mod:`repro.pool.tier`; routing, spill, promotion and
background demotion live in the one swap datapath,
:class:`repro.pool.fastswap.Fastswap`. Configure a platform with
``PlatformConfig(tiers=TierTopology.cxl_rdma(...))`` — or install a
process-wide default via :mod:`repro.tier.runtime` — and every other
subsystem (policies, faults, pressure, observability) composes
unchanged.
"""

from repro.pool.fastswap import TierLedger
from repro.pool.tier import PoolShard, Tier, TieredPool, TierSpec, TierTopology

__all__ = [
    "PoolShard",
    "Tier",
    "TieredPool",
    "TierSpec",
    "TierTopology",
    "TierLedger",
]
