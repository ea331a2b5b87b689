"""Network model for the distributed computing hierarchy simulator.

The paper evaluates communication in *bytes transmitted per sample* (its
Eq. 1) rather than wall-clock network timing, but a distributed deployment
also cares about latency.  The simulator therefore models each link between
two tiers with a bandwidth and a propagation latency, and accounts every
message's size and transfer time.  The byte accounting is exact; the latency
model is a simple ``latency + size / bandwidth`` cost, which is enough to
show the response-time benefit of exiting samples locally.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Message", "NetworkLink", "NetworkFabric", "LinkStats"]


@dataclass
class Message:
    """A single payload sent from one node to another."""

    source: str
    destination: str
    size_bytes: float
    kind: str = "data"
    sample_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("message size must be non-negative")


def _check_link(bandwidth_bytes_per_s: float, latency_s: float) -> None:
    """Reject link parameters no transfer time is defined for: a bandwidth
    that is not a finite number > 0 (zero divides by zero, a negative one
    gives negative transfer times, NaN gives NaN) or a latency that is not a
    finite number >= 0."""
    if not (math.isfinite(bandwidth_bytes_per_s) and bandwidth_bytes_per_s > 0):
        raise ValueError(
            f"bandwidth_bytes_per_s must be finite and > 0, got {bandwidth_bytes_per_s}"
        )
    if not (math.isfinite(latency_s) and latency_s >= 0):
        raise ValueError(f"latency_s must be finite and >= 0, got {latency_s}")


@dataclass
class LinkStats:
    """Accumulated traffic statistics of one link."""

    messages: int = 0
    bytes_transferred: float = 0.0
    transfer_seconds: float = 0.0


@dataclass
class NetworkLink:
    """A directed link between two nodes of the hierarchy.

    Parameters
    ----------
    source, destination:
        Node names.
    bandwidth_bytes_per_s:
        Sustained throughput, finite and > 0.  The default corresponds to a
        constrained wireless uplink (250 KB/s).
    latency_s:
        One-way propagation latency added to every message, finite and >= 0.
    """

    source: str
    destination: str
    bandwidth_bytes_per_s: float = 250_000.0
    latency_s: float = 0.01
    stats: LinkStats = field(default_factory=LinkStats)
    # Traffic counters are shared by concurrent fabric workers; the lock
    # keeps the read-modify-write accounting exact under threads.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_link(self.bandwidth_bytes_per_s, self.latency_s)

    def transfer_time(self, size_bytes: float) -> float:
        """Seconds needed to move ``size_bytes`` across this link."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        return self.latency_s + size_bytes / self.bandwidth_bytes_per_s

    def send(self, message: Message) -> float:
        """Account for a message and return its transfer time in seconds."""
        return self.send_batch(message.size_bytes, 1)

    def send_batch(self, size_bytes: float, count: int) -> float:
        """Account for ``count`` messages of ``size_bytes`` each under one
        lock and return the transfer time of *one* of them.

        The totals are accumulated by repeated addition, so the stats are
        bit-identical to those of ``count`` single sends.
        """
        seconds = self.transfer_time(size_bytes)
        with self._lock:
            stats = self.stats
            stats.messages += count
            for _ in range(count):
                stats.bytes_transferred += size_bytes
                stats.transfer_seconds += seconds
        return seconds

    def reset(self) -> None:
        with self._lock:
            self.stats = LinkStats()


class NetworkFabric:
    """The set of links connecting devices, edges and the cloud.

    A :class:`~repro.hierarchy.faults.ChaosSchedule` can be attached to
    model runtime link faults: :meth:`delivery` then answers, for a given
    instant, whether a message between two endpoints actually arrives
    (outage/flap windows darken the link entirely; loss events drop
    individual messages).  Byte accounting is unaffected — a lost message
    still consumed uplink airtime, so its bytes and transfer seconds stay
    in the link stats; only :attr:`lost_messages` records the waste.
    """

    def __init__(self) -> None:
        self._links: Dict[Tuple[str, str], NetworkLink] = {}
        self.log: List[Message] = []
        self._log_lock = threading.Lock()
        self.chaos = None
        #: Messages that consulted :meth:`delivery` and did not arrive.
        self.lost_messages = 0

    def add_link(self, link: NetworkLink) -> None:
        key = (link.source, link.destination)
        if key in self._links:
            raise ValueError(f"duplicate link {link.source} -> {link.destination}")
        self._links[key] = link

    def connect(
        self,
        source: str,
        destination: str,
        bandwidth_bytes_per_s: float = 250_000.0,
        latency_s: float = 0.01,
    ) -> NetworkLink:
        """Create and register a link, returning it."""
        link = NetworkLink(source, destination, bandwidth_bytes_per_s, latency_s)
        self.add_link(link)
        return link

    def link(self, source: str, destination: str) -> NetworkLink:
        key = (source, destination)
        if key not in self._links:
            raise KeyError(f"no link from '{source}' to '{destination}'")
        return self._links[key]

    def has_link(self, source: str, destination: str) -> bool:
        return (source, destination) in self._links

    def send(self, message: Message, record: bool = True) -> float:
        """Route a message over its (direct) link and return the transfer time."""
        link = self.link(message.source, message.destination)
        seconds = link.send(message)
        if record:
            with self._log_lock:
                self.log.append(message)
        return seconds

    def send_batch(
        self, source: str, destination: str, size_bytes: float, count: int
    ) -> float:
        """Route ``count`` equal messages over their (direct) link — charged
        exactly as ``count`` unrecorded :meth:`send` calls — and return the
        transfer time of one of them."""
        return self.link(source, destination).send_batch(size_bytes, count)

    # -- runtime fault injection ---------------------------------------- #
    def attach_chaos(self, schedule) -> None:
        """Attach a :class:`~repro.hierarchy.faults.ChaosSchedule` (or
        ``None`` to detach) consulted by :meth:`delivery`."""
        self.chaos = schedule

    def delivery(self, source: str, destination: str, now: float) -> bool:
        """Whether a message from ``source`` to ``destination`` arrives at ``now``.

        With no chaos attached every message arrives (the immortal-network
        behaviour every pre-chaos caller relies on).  Endpoints here are
        whatever granularity the caller offloads at — the serving fabric
        uses tier names, so one outage entry darkens a whole tier uplink.
        """
        if self.chaos is None:
            return True
        if not self.chaos.link_up(source, destination, now) or self.chaos.sample_loss(
            source, destination, now
        ):
            with self._log_lock:
                self.lost_messages += 1
            return False
        return True

    # ------------------------------------------------------------------ #
    def links(self) -> List[NetworkLink]:
        return list(self._links.values())

    def total_bytes(self) -> float:
        """Total bytes moved over every link since the last reset."""
        return sum(link.stats.bytes_transferred for link in self._links.values())

    def total_messages(self) -> int:
        return sum(link.stats.messages for link in self._links.values())

    def bytes_from(self, source: str) -> float:
        """Total bytes transmitted by one node (over all its outgoing links)."""
        return sum(
            link.stats.bytes_transferred
            for (src, _), link in self._links.items()
            if src == source
        )

    def reset(self) -> None:
        for link in self._links.values():
            link.reset()
        self.log.clear()
        self.lost_messages = 0
