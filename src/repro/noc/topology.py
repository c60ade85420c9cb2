"""Torus topology and routing distance.

The paper's 16 cores are connected by a 4x4 torus; each vertex hosts one
core (with its private L1s and L2) and one bank of the shared L3.  Requests
travel from the requesting core's vertex to the home L3 bank's vertex and
back; coherence traffic (invalidations, forwards) travels between vertices.

The torus wraps around in both dimensions, so the hop distance along one
dimension is ``min(delta, size - delta)``.  Routing is dimension ordered
(X then Y), which is deadlock free and gives deterministic hop counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple


@dataclass(frozen=True)
class TorusTopology:
    """A ``width x height`` torus of vertices numbered row-major."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("torus dimensions must be positive")

    @property
    def num_vertices(self) -> int:
        """Total number of vertices (cores / L3 banks)."""
        return self.width * self.height

    def coordinates(self, vertex: int) -> Tuple[int, int]:
        """Return the (x, y) coordinates of a vertex id."""
        self._check_vertex(vertex)
        return vertex % self.width, vertex // self.width

    def vertex(self, x: int, y: int) -> int:
        """Return the vertex id at coordinates (x, y), with wrap-around."""
        return (y % self.height) * self.width + (x % self.width)

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal number of links between two vertices on the torus."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        x_delta = abs(sx - dx)
        y_delta = abs(sy - dy)
        x_hops = min(x_delta, self.width - x_delta)
        y_hops = min(y_delta, self.height - y_delta)
        return x_hops + y_hops

    def route(self, src: int, dst: int) -> List[int]:
        """Dimension-ordered (X then Y) route, as a list of vertices.

        The route includes both endpoints.  Along each dimension the shorter
        wrap-around direction is taken; ties go to the positive direction.
        """
        self._check_vertex(src)
        self._check_vertex(dst)
        path = [src]
        x, y = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        for step in self._dimension_steps(x, dx, self.width):
            x = (x + step) % self.width
            path.append(self.vertex(x, y))
        for step in self._dimension_steps(y, dy, self.height):
            y = (y + step) % self.height
            path.append(self.vertex(x, y))
        return path

    def neighbours(self, vertex: int) -> List[int]:
        """The (up to four distinct) neighbours of a vertex on the torus."""
        x, y = self.coordinates(vertex)
        candidates = [
            self.vertex(x + 1, y),
            self.vertex(x - 1, y),
            self.vertex(x, y + 1),
            self.vertex(x, y - 1),
        ]
        unique: List[int] = []
        for candidate in candidates:
            if candidate != vertex and candidate not in unique:
                unique.append(candidate)
        return unique

    # -- helpers -----------------------------------------------------------

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise ValueError(
                f"vertex {vertex} outside torus of {self.num_vertices} vertices"
            )

    @staticmethod
    def _dimension_steps(start: int, goal: int, size: int) -> Iterator[int]:
        """Yield +1/-1 steps moving ``start`` to ``goal`` the short way."""
        delta = (goal - start) % size
        if delta == 0:
            return
        if delta <= size - delta:
            for _ in range(delta):
                yield 1
        else:
            for _ in range(size - delta):
                yield -1
