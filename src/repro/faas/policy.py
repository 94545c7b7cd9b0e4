"""The offloading-policy interface every memory manager implements.

The platform invokes these hooks at lifecycle boundaries; a policy
reacts by scanning, segregating and offloading memory through the
shared swap datapath. The baseline systems (:mod:`repro.baselines`)
and FaaSMem itself (:mod:`repro.core`) are all `OffloadPolicy`
implementations, so experiments can swap them freely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faas.container import Container
    from repro.faas.platform import ServerlessPlatform
    from repro.faas.request import RequestRecord
    from repro.mem.page import PageRegion


class OffloadPolicy:
    """Base policy: does nothing at every hook (i.e. never offloads)."""

    name = "null"

    def __init__(self) -> None:
        self.platform: "ServerlessPlatform" = None

    def attach(self, platform: "ServerlessPlatform") -> None:
        """Called once when the platform is built.

        Subclasses that override must call ``super().attach(platform)``
        so :attr:`platform` is populated.
        """
        self.platform = platform

    def detach(self) -> None:
        """Called when a run finishes; stop periodic tasks here."""

    # -- container lifecycle ------------------------------------------------

    def on_container_created(self, container: "Container") -> None:
        """Container object exists; launch begins now."""

    def on_runtime_loaded(self, container: "Container") -> None:
        """Runtime segment fully allocated (Runtime-Init barrier point)."""

    def on_init_complete(self, container: "Container") -> None:
        """Init segment fully allocated (Init-Execution barrier point)."""

    def on_container_idle(self, container: "Container") -> None:
        """Container finished its queue and entered keep-alive."""

    def on_container_reclaimed(self, container: "Container") -> None:
        """Keep-alive expired; memory is about to be freed."""

    # -- request path --------------------------------------------------------

    def on_request_start(self, container: "Container") -> None:
        """A request begins executing on the container."""

    def on_regions_touched(
        self,
        container: "Container",
        regions: Sequence["PageRegion"],
        remote_ids: Collection[int],
    ) -> None:
        """A request touched ``regions``, in this order (after any fault-in).

        ``remote_ids`` holds the ids of the regions this touch had to
        recall from the pool. Called once per request, after the whole
        working set is touched. The default reports each region to
        :meth:`on_region_touched`, in order.
        """
        for region in regions:
            self.on_region_touched(
                container, region, was_remote=region.region_id in remote_ids
            )

    def on_region_touched(
        self, container: "Container", region: "PageRegion", was_remote: bool = False
    ) -> None:
        """A request touched ``region`` (after any fault-in).

        ``was_remote`` reports whether this touch had to recall the
        region from the pool. Reached through the default
        :meth:`on_regions_touched`; a policy overriding that need not
        implement this.
        """

    def on_request_complete(
        self, container: "Container", record: "RequestRecord"
    ) -> None:
        """A request finished; ``record`` holds its timings."""
