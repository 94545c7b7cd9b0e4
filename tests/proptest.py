"""Minimal deterministic property-test harness (a sliver of Hypothesis).

Tests decorate a function with :func:`given`; each example is drawn
from the strategies with a :class:`random.Random` seeded from the
harness seed and the example index, so runs are fully deterministic —
a failure report quotes the seed and the drawn arguments, and re-runs
reproduce it exactly. No external dependencies.
"""

from __future__ import annotations

import functools
import inspect
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

DEFAULT_SEED = 20240814


@dataclass
class Settings:
    """Configuration attached by the :func:`settings` decorator."""

    max_examples: int = 100
    seed: int = DEFAULT_SEED

    def __init__(self, max_examples: int = 100, seed: int = DEFAULT_SEED, **_: Any):
        self.max_examples = max_examples
        self.seed = seed


def settings(**kwargs: Any) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Attach :class:`Settings` to a test function (compose with given)."""
    cfg = Settings(**kwargs)

    def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
        setattr(func, "_proptest_settings", cfg)
        return func

    return decorator


class Strategy:
    """A value generator: wraps ``rng -> value``."""

    def __init__(self, sampler: Callable[[random.Random], Any]) -> None:
        self._sampler = sampler

    def sample(self, rng: random.Random) -> Any:
        return self._sampler(rng)

    def map(self, transform: Callable[[Any], Any]) -> "Strategy":
        return Strategy(lambda rng: transform(self.sample(rng)))

    def flatmap(self, builder: Callable[[Any], "Strategy"]) -> "Strategy":
        def sampler(rng: random.Random) -> Any:
            inner = builder(self.sample(rng))
            if not isinstance(inner, Strategy):
                raise TypeError("flatmap builder must return a Strategy")
            return inner.sample(rng)

        return Strategy(sampler)

    def filter(self, predicate: Callable[[Any], bool], tries: int = 100) -> "Strategy":
        def sampler(rng: random.Random) -> Any:
            for _ in range(tries):
                value = self.sample(rng)
                if predicate(value):
                    return value
            raise ValueError("filter predicate rejected every sample")

        return Strategy(sampler)


def _ensure_strategy(value: Any) -> Strategy:
    if isinstance(value, Strategy):
        return value
    raise TypeError(f"expected a Strategy, got {type(value)!r}")


def integers(*, min_value: int, max_value: int) -> Strategy:
    if min_value > max_value:
        raise ValueError("min_value must be <= max_value")
    return Strategy(lambda rng: rng.randint(min_value, max_value))


def floats(*, min_value: float, max_value: float) -> Strategy:
    if min_value > max_value:
        raise ValueError("min_value must be <= max_value")
    return Strategy(lambda rng: rng.uniform(min_value, max_value))


def booleans() -> Strategy:
    return Strategy(lambda rng: bool(rng.getrandbits(1)))


def sampled_from(options: Sequence[Any]) -> Strategy:
    options = list(options)
    if not options:
        raise ValueError("sampled_from needs at least one option")
    return Strategy(lambda rng: options[rng.randrange(len(options))])


def one_of(*strategies: Strategy) -> Strategy:
    """Draw from one of the strategies, chosen uniformly per sample."""
    strategies = tuple(_ensure_strategy(s) for s in strategies)
    if not strategies:
        raise ValueError("one_of needs at least one strategy")

    def sampler(rng: random.Random) -> Any:
        return strategies[rng.randrange(len(strategies))].sample(rng)

    return Strategy(sampler)


def lists(element: Strategy, *, min_size: int = 0, max_size: int = 10) -> Strategy:
    element = _ensure_strategy(element)
    if min_size > max_size:
        raise ValueError("min_size must be <= max_size")

    def sampler(rng: random.Random) -> List[Any]:
        size = rng.randint(min_size, max_size)
        return [element.sample(rng) for _ in range(size)]

    return Strategy(sampler)


def tuples(*strategies: Strategy) -> Strategy:
    """Fixed-shape tuple: one element drawn from each strategy."""
    strategies = tuple(_ensure_strategy(s) for s in strategies)
    return Strategy(lambda rng: tuple(s.sample(rng) for s in strategies))


def builds(func: Callable[..., Any], *strategies: Strategy) -> Strategy:
    strategies = tuple(_ensure_strategy(s) for s in strategies)

    def sampler(rng: random.Random) -> Any:
        return func(*(strategy.sample(rng) for strategy in strategies))

    return Strategy(sampler)


def given(*strategies: Strategy) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Run the test once per example with deterministically drawn args."""
    strategies = tuple(_ensure_strategy(s) for s in strategies)

    def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> None:
            # ``settings`` sits above ``given``, so it tags this wrapper.
            cfg: Settings = getattr(wrapper, "_proptest_settings", Settings())
            for example in range(cfg.max_examples):
                # One independent, reproducible stream per example.
                rng = random.Random(f"{cfg.seed}:{example}")
                drawn = [strategy.sample(rng) for strategy in strategies]
                try:
                    func(*args, *drawn, **kwargs)
                except Exception as exc:
                    raise AssertionError(
                        f"falsifying example #{example} "
                        f"(seed={cfg.seed}): args={drawn!r}: {exc}"
                    ) from exc

        # Hide the strategy-bound (trailing) parameters from pytest so
        # it does not look for fixtures named after them.
        original = inspect.signature(func)
        params = list(original.parameters.values())[: -len(strategies) or None]
        wrapper.__signature__ = original.replace(parameters=params)
        del wrapper.__wrapped__
        return wrapper

    return decorator
