"""Memory pool: pool hierarchy, interconnect model and the
Fastswap-style swap datapath.

The paper runs Fastswap over 56 Gbps InfiniBand between one compute
node and one memory node. Here the interconnect is a full-duplex pipe
with per-page fault overhead plus bandwidth-limited transfer time, and
the pool is a hierarchy of capacity-checked pool nodes whose default
is that one memory node. Policies only ever observe fault latency and
bandwidth occupancy, which this model reproduces.
"""

from repro.pool.link import Link, LinkDirection
from repro.pool.fastswap import Fastswap, FastswapConfig, SwapStats, TierLedger
from repro.pool.bandwidth import BandwidthMonitor
from repro.pool.tier import PoolShard, Tier, TieredPool, TierSpec, TierTopology

__all__ = [
    "Link",
    "LinkDirection",
    "Fastswap",
    "FastswapConfig",
    "SwapStats",
    "TierLedger",
    "BandwidthMonitor",
    "PoolShard",
    "Tier",
    "TieredPool",
    "TierSpec",
    "TierTopology",
]
