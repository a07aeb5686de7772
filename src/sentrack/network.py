"""Simulated distributed communication: range topology and flooding.

The network simulator is the single synchronization point of the system:
nodes submit messages, the simulator advances synchronous rounds in which
every node relays each newly seen message to all neighbors, with duplicate
suppression by (origin, sequence).  A message reaches every node of the
origin's connected component in exactly its graph distance in rounds.
"""

import math
from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class Topology:
    """Range-based communication graph over sensor positions."""

    positions: dict  # sensor id -> (x, y)
    comm_range: float
    adjacency: dict  # sensor id -> frozenset of neighbor ids

    def neighbors(self, s: int) -> frozenset:
        return self.adjacency[s]

    def component_of(self, s: int) -> frozenset:
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return frozenset(seen)

    def connected_components(self) -> list:
        remaining = set(self.positions)
        out = []
        while remaining:
            comp = self.component_of(min(remaining))
            out.append(comp)
            remaining -= comp
        return sorted(out, key=min)


def build_topology(positions: Mapping[int, tuple], comm_range: float) -> Topology:
    """Edges connect every sensor pair within comm_range (inclusive)."""
    if not positions:
        raise ValueError("at least one sensor required")
    ids = sorted(positions)
    adjacency = {s: set() for s in ids}
    for i, s in enumerate(ids):
        for t in ids[i + 1 :]:
            dx = positions[s][0] - positions[t][0]
            dy = positions[s][1] - positions[t][1]
            if math.hypot(dx, dy) <= comm_range:
                adjacency[s].add(t)
                adjacency[t].add(s)
    return Topology(
        positions={s: tuple(positions[s]) for s in ids},
        comm_range=comm_range,
        adjacency={s: frozenset(n) for s, n in adjacency.items()},
    )


@dataclass(frozen=True)
class FloodMessage:
    """One flooded payload, uniquely identified by (origin, sequence)."""

    origin: int
    sequence: int
    payload: object = None


@dataclass
class DeliveryReport:
    """Receipt round per node (origin receives at round 0).

    unreachable lists nodes outside the origin's connected component;
    relays counts every forwarded copy (bounded by twice the edge count).
    """

    receipt_round: dict
    unreachable: frozenset
    relays: int

    def rounds_to_full_delivery(self) -> int:
        return max(self.receipt_round.values())


def flood_broadcast(topology: Topology, message: FloodMessage, max_rounds: int) -> DeliveryReport:
    """Synchronous-round flooding with duplicate suppression.

    Every node that first saw the message in round t forwards it to all
    neighbors in round t+1.  Raises if reachable nodes remain undelivered
    after max_rounds (a protocol bug, since delivery needs at most the
    origin's eccentricity).
    """
    if message.origin not in topology.positions:
        raise KeyError(f"unknown origin {message.origin}")
    receipt = {message.origin: 0}
    frontier = [message.origin]
    relays = 0
    rounds = 0
    while frontier:
        if rounds >= max_rounds:
            remaining = topology.component_of(message.origin) - set(receipt)
            if remaining:
                raise RuntimeError(
                    f"flooding exceeded {max_rounds} rounds with undelivered nodes {sorted(remaining)}"
                )
            break
        rounds += 1
        nxt = []
        for u in frontier:
            for v in topology.adjacency[u]:
                relays += 1
                if v not in receipt:
                    receipt[v] = rounds
                    nxt.append(v)
        frontier = nxt
    unreachable = frozenset(set(topology.positions) - set(receipt))
    return DeliveryReport(receipt_round=receipt, unreachable=unreachable, relays=relays)


def message_cost(label_count: int) -> int:
    """Bytes to transmit one action index plus an LMB pseudo-posterior."""
    if label_count < 0:
        raise ValueError("label_count must be nonnegative")
    return 4 * (1 + (4 + 10 * label_count)) + 1


@dataclass
class CommLogEntry:
    step: int
    origin: int
    sequence: int
    bytes: int
    rounds: int


@dataclass
class CommLog:
    """Per-run communication accounting: one entry per originated message."""

    entries: list = field(default_factory=list)
    _sequence: int = 0

    def record(self, topology: Topology, step: int, origin: int, label_count: int) -> CommLogEntry:
        report = flood_broadcast(
            topology,
            FloodMessage(origin, self._sequence),
            max_rounds=len(topology.positions),
        )
        entry = CommLogEntry(
            step=step,
            origin=origin,
            sequence=self._sequence,
            bytes=message_cost(label_count),
            rounds=report.rounds_to_full_delivery(),
        )
        self._sequence += 1
        self.entries.append(entry)
        return entry

    def bytes_in_step(self, step: int) -> int:
        return sum(e.bytes for e in self.entries if e.step == step)
