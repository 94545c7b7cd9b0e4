"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.baselines import NoOffloadPolicy
from repro.faas import PlatformConfig, ServerlessPlatform
from repro.faas.policy import OffloadPolicy
from repro.mem.cgroup import Cgroup
from repro.mem.node import ComputeNode
from repro.pool.fastswap import Fastswap
from repro.pool.link import Link
from repro.pool.tier import TieredPool, TierTopology
from repro.sim.engine import Engine
from repro.workloads import get_profile


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def node(engine: Engine) -> ComputeNode:
    return ComputeNode(clock=lambda: engine.now, capacity_mib=8192)


@pytest.fixture
def pool(engine: Engine) -> TieredPool:
    return TieredPool(lambda: engine.now, TierTopology.flat(), default_capacity_mib=8192)


@pytest.fixture
def link() -> Link:
    return Link()


@pytest.fixture
def fastswap(engine: Engine, pool: TieredPool) -> Fastswap:
    return Fastswap(engine, pool)


@pytest.fixture
def cgroup(engine: Engine, node: ComputeNode) -> Cgroup:
    return Cgroup("test-cgroup", node, clock=lambda: engine.now)


def make_platform(
    policy: OffloadPolicy = None,
    seed: int = 1,
    keep_alive_s: float = 600.0,
) -> ServerlessPlatform:
    """Platform factory shared across tests."""
    config = PlatformConfig(seed=seed, keep_alive_s=keep_alive_s)
    return ServerlessPlatform(policy or NoOffloadPolicy(), config=config)


@pytest.fixture
def platform() -> ServerlessPlatform:
    return make_platform()


@pytest.fixture
def web_platform() -> ServerlessPlatform:
    p = make_platform()
    p.register_function("web", get_profile("web"))
    return p
