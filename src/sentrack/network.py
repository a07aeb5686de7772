"""Simulated distributed communication: range topology and flood accounting.

Nodes share messages by flooding: in each synchronous round every node
relays each newly seen message to all its neighbors, with duplicate
suppression by (origin, sequence).  A message therefore reaches every node
of its origin's connected component in as many rounds as the origin's
eccentricity in that component (0 for an isolated node), and never leaves
the component.  The simulator delivers nothing: it counts the bytes and
the rounds of each message, reading the rounds from the topology, which
computes them once per node.
"""

import math
from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class Topology:
    """Range-based communication graph over sensor positions."""

    adjacency: dict  # sensor id -> frozenset of neighbor ids
    components: tuple  # connected components as frozensets, by smallest id
    rounds: dict  # sensor id -> flood rounds to reach its whole component


def _hop_distances(adjacency: Mapping[int, frozenset], origin: int) -> dict:
    """Hop distance from origin to every node of its connected component."""
    distance = {origin: 0}
    frontier = [origin]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in distance:
                    distance[v] = distance[u] + 1
                    nxt.append(v)
        frontier = nxt
    return distance


def build_topology(positions: Mapping[int, tuple], comm_range: float) -> Topology:
    """Edges connect every sensor pair within comm_range (inclusive);
    positions holds at least one sensor, as ScenarioConfig checks."""
    ids = sorted(positions)
    adjacency = {s: set() for s in ids}
    for i, s in enumerate(ids):
        for t in ids[i + 1 :]:
            dx = positions[s][0] - positions[t][0]
            dy = positions[s][1] - positions[t][1]
            if math.hypot(dx, dy) <= comm_range:
                adjacency[s].add(t)
                adjacency[t].add(s)
    adjacency = {s: frozenset(n) for s, n in adjacency.items()}
    distances = {s: _hop_distances(adjacency, s) for s in ids}
    return Topology(
        adjacency=adjacency,
        components=tuple(sorted({frozenset(d) for d in distances.values()}, key=min)),
        rounds={s: max(d.values()) for s, d in distances.items()},
    )


def message_cost(label_count: int) -> int:
    """Bytes to transmit one action index plus an LMB pseudo-posterior of
    label_count >= 0 labels."""
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

    def record(self, topology: Topology, step: int, origin: int, label_count: int) -> CommLogEntry:
        entry = CommLogEntry(
            step=step,
            origin=origin,
            sequence=len(self.entries),
            bytes=message_cost(label_count),
            rounds=topology.rounds[origin],
        )
        self.entries.append(entry)
        return entry

    def bytes_in_step(self, step: int) -> int:
        return sum(e.bytes for e in self.entries if e.step == step)
