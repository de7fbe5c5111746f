"""Edge-holonomy fields on 2-dimensional simplicial complexes.

A complex stores vertices, canonically oriented edges (i < j), and
triangles (i < j < k); an :class:`EdgeField` assigns a group element to
every oriented edge, with reversal acting by inversion.  Path holonomy
composes contravariantly: the product of a concatenated path is
Hol(second) * Hol(first), so the last edge sits leftmost.

From these come the spanning-tree gauge, the pairwise-comparison matrix of
a field (with gaps where the comparison graph has no edge), per-triangle
curvature, the global worst-triangle indicator, and vertex gauge
transformations.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingEdgeError
from .groups import Element, Group
from .pcmatrix import CONTRAVARIANT, Indicator, PCMatrix, _identities, _loop_scorer

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


class SimplicialComplex2:
    """Vertices 0..V-1 with oriented edges and triangles.

    Stored edges have i < j and triangles i < j < k; every triangle's three
    edges must be present.  The base vertex anchors gauge paths; vertices
    outside its connected component are allowed but based constructions
    reject them.
    """

    def __init__(
        self,
        vertices: int,
        edges: Iterable[Sequence[int]],
        triangles: Iterable[Sequence[int]] = (),
        base: int = 0,
    ):
        if vertices < 1:
            raise ValueError("complex needs at least one vertex")
        if not 0 <= base < vertices:
            raise ValueError(f"base vertex {base} out of range")
        edge_set: set[Edge] = set()
        for e in edges:
            i, j = _cell("edge", e, 2)
            if i == j or not (0 <= i < vertices and 0 <= j < vertices):
                raise ValueError(f"bad edge ({i},{j})")
            key = (min(i, j), max(i, j))
            if key in edge_set:
                raise ValueError(f"duplicate edge {key}")
            edge_set.add(key)
        tri_set: set[Triangle] = set()
        for t in triangles:
            i, j, k = sorted(_cell("triangle", t, 3))
            if len({i, j, k}) != 3:
                raise ValueError(f"degenerate triangle {tuple(t)}")
            if (i, j, k) in tri_set:
                raise ValueError(f"duplicate triangle ({i},{j},{k})")
            for a, b in ((i, j), (i, k), (j, k)):
                if (a, b) not in edge_set:
                    raise ValueError(f"triangle ({i},{j},{k}) missing edge ({a},{b})")
            tri_set.add((i, j, k))

        self.vertices = vertices
        self.base = base
        self.edges: tuple[Edge, ...] = tuple(sorted(edge_set))
        self.triangles: tuple[Triangle, ...] = tuple(sorted(tri_set))
        self._col = {e: c for c, e in enumerate(self.edges)}  # edge -> column in K.edges
        self._tri_set = tri_set
        # columns (ij, ik, jk) of each triangle's edges, in K.triangles order
        tri_cols = np.array(
            [(self._col[(i, j)], self._col[(i, k)], self._col[(j, k)]) for i, j, k in self.triangles],
            dtype=np.intp,
        ).reshape(-1, 3)
        tri_cols.flags.writeable = False
        self._tri_cols = tri_cols
        adj: dict[int, list[int]] = {v: [] for v in range(vertices)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = {v: sorted(ns) for v, ns in adj.items()}
        self._parents = self._bfs_parents()

    def _bfs_parents(self) -> dict[int, int | None]:
        # breadth first from the base, neighbors in increasing order
        parents: dict[int, int | None] = {self.base: None}
        queue = deque([self.base])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in parents:
                    parents[w] = v
                    queue.append(w)
        return parents

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._col

    def has_triangle(self, t: Sequence[int]) -> bool:
        return _triangle_key(t) in self._tri_set

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    @property
    def is_connected(self) -> bool:
        return len(self._parents) == self.vertices

    def reachable(self, v: int) -> bool:
        return v in self._parents

    def tree_path(self, v: int) -> tuple[int, ...]:
        """Vertex sequence base -> v along the breadth-first spanning tree."""
        if v not in self._parents:
            raise ValueError(f"vertex {v} unreachable from base {self.base}")
        path = [v]
        while self._parents[path[-1]] is not None:
            path.append(self._parents[path[-1]])
        return tuple(reversed(path))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex2(V={self.vertices}, E={len(self.edges)}, "
            f"T={len(self.triangles)}, base={self.base})"
        )


def _as_integer(value) -> int | None:
    """``value`` as an int when it is an int or a float with an integral
    value; None for a bool, a fractional or non-finite number or anything
    else."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _triangle_key(t: Sequence[int]) -> Triangle | None:
    """The vertices of ``t`` as sorted ints by the rule of
    :func:`_as_integer`, or None when one of them is not an integer."""
    vs = [_as_integer(v) for v in t]
    return None if None in vs else tuple(sorted(vs))


def _cell(kind: str, cell: Sequence[int], size: int) -> list[int]:
    """The vertices of an edge or triangle as ints, by the rule of
    :func:`_as_integer`; a wrong count or a bad vertex names the cell."""
    cell = list(cell)
    vs = [v if type(v) is int else _as_integer(v) for v in cell]  # ints, the common case, skip the call
    if len(vs) != size or None in vs:
        raise ValueError(f"bad {kind} {cell}: expected {size} integer vertices")
    return vs


def full_simplex(n: int, base: int = 0) -> SimplicialComplex2:
    """The full n-simplex skeleton: n+1 vertices, all edges, all triangles."""
    import itertools

    v = n + 1
    return SimplicialComplex2(
        v,
        itertools.combinations(range(v), 2),
        itertools.combinations(range(v), 3),
        base=base,
    )


def grid_complex(m: int, base: int = 0) -> SimplicialComplex2:
    """An m x m square grid, each cell split into two triangles by the
    down-right diagonal; (m+1)^2 vertices indexed row-major."""
    if m < 1:
        raise ValueError("grid needs m >= 1")
    w = m + 1
    idx = lambda r, c: r * w + c
    edges = []
    triangles = []
    for r in range(w):
        for c in range(w):
            if c < m:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r < m:
                edges.append((idx(r, c), idx(r + 1, c)))
            if r < m and c < m:
                v00, v01 = idx(r, c), idx(r, c + 1)
                v10, v11 = idx(r + 1, c), idx(r + 1, c + 1)
                edges.append((v00, v11))
                triangles.append((v00, v01, v11))
                triangles.append((v00, v10, v11))
    return SimplicialComplex2(w * w, edges, triangles, base=base)


class EdgeField:
    """Assignment of a group element to every oriented edge.

    Keys may be given in either orientation; they are stored canonically
    with i < j and looked up with inversion on reversal.
    """

    def __init__(self, group: Group, values: Mapping[Edge, Element]):
        self._fill(group, values, group.check)

    @classmethod
    def _of_checked(cls, group: Group, values: Mapping[Edge, Element]) -> EdgeField:
        """Wrap elements that already passed ``group.check``."""
        F = cls.__new__(cls)
        F._fill(group, values, lambda v: v)
        return F

    def _fill(self, group: Group, values: Mapping[Edge, Element], check) -> None:
        self.group = group
        store: dict[Edge, Element] = {}
        for (i, j), v in values.items():
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-edge ({i},{j}) has no holonomy")
            key = (i, j) if i < j else (j, i)
            if key in store:
                raise ValueError(f"duplicate value for edge {key}")
            store[key] = check(v) if i < j else group.inverse(v)
        self._values = store

    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self._values))

    def value(self, i: int, j: int) -> Element:
        """Holonomy of the oriented edge i -> j."""
        key = (i, j) if i < j else (j, i)
        if key not in self._values:
            raise MissingEdgeError(min(i, j), max(i, j))
        v = self._values[key]
        return v if i < j else self.group.inverse(v)

    def items(self):
        return sorted(self._values.items())


def identity_field(K: SimplicialComplex2, group: Group) -> EdgeField:
    return EdgeField(group, {e: group.identity for e in K.edges})


def field_from_gauge(K: SimplicialComplex2, group: Group, lam: Sequence[Element]) -> EdgeField:
    """The flat field h_ij = lam_j * lam_i^-1; every triangle has identity
    curvature and the induced matrix is contravariant-consistent."""
    lam = group.batch_check(lam)
    if len(lam) != K.vertices:
        raise ValueError(f"gauge length {len(lam)} does not match {K.vertices} vertices")
    I, J = _edge_ends(K)
    return _array_field(K, group, group.batch_multiply(lam[J], group.batch_inverse(lam)[I]))


def path_holonomy(K: SimplicialComplex2, F: EdgeField, path: Sequence[int]) -> Element:
    """Ordered edge product along a vertex path, last edge leftmost.

    Empty and single-vertex paths give the identity; concatenation
    satisfies Hol(p * q) = Hol(q) * Hol(p).
    """
    cols, against = _path_steps(K, path)
    G = F.group
    H = G.to_array([F.value(*K.edges[c]) for c in cols])
    return G.from_array(_path_product(G, H[None], against))[0]


def _step_column(K: SimplicialComplex2, v: int, w: int) -> int:
    """Column in ``K.edges`` of the edge a path steps over from v to w."""
    a, b = (v, w) if v < w else (w, v)
    c = K._col.get((a, b))
    if c is None:
        raise ValueError(f"non-adjacent step {v}->{w}: missing edge {a}-{b}")
    return c


def _path_steps(K: SimplicialComplex2, path: Sequence[int]) -> tuple[list[int], list[bool]]:
    """Columns in ``K.edges`` of the edges a vertex path steps over, and
    whether each step runs against its edge's stored orientation i < j."""
    steps = list(zip(path, path[1:]))
    return [_step_column(K, v, w) for v, w in steps], [v > w for v, w in steps]


def _path_product(G: Group, H: np.ndarray, against: Sequence[bool]) -> np.ndarray:
    """Holonomies of a batch of paths from the stored carriers H, shape
    (B, L, ...), of the edges of their L steps: each step multiplies on the
    left, inverted where it runs against its edge.  Shape (B, ...), or the
    broadcastable identity (1, ...) when L = 0."""
    acc = G.to_array([G.identity])
    for s, inverted in enumerate(against):
        h = H[:, s]
        acc = G.batch_multiply(G.batch_inverse(h) if inverted else h, acc)
    return acc


def _edge_ends(K: SimplicialComplex2) -> np.ndarray:
    """The vertices (i, j) of ``K.edges`` as two index arrays."""
    return np.array(K.edges, dtype=np.intp).reshape(-1, 2).T


def _field_array(K: SimplicialComplex2, F: EdgeField) -> np.ndarray:
    """The field's stored carriers h_ij, i < j, over ``K.edges``: shape (E, ...)."""
    return F.group.to_array([F.value(i, j) for i, j in K.edges])


def _array_field(K: SimplicialComplex2, G: Group, X: np.ndarray) -> EdgeField:
    """The field with carriers X over ``K.edges``, which are not checked again."""
    return EdgeField._of_checked(G, dict(zip(K.edges, G.from_array(X))))


def _triangle_edges(K: SimplicialComplex2, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The carriers (h_ij, h_ik, h_jk) of every triangle's edges, in
    ``K.triangles`` order, for carrier arrays X of shape (B, E, ...): three
    arrays of shape (B, T, ...).

    They are the triad entries (a_ij, a_ik, a_jk) of the field's
    contravariant matrix, whose triad holonomies are the plaquettes
    h_ki * h_jk * h_ij, so ``_loop_scorer(G, CONTRAVARIANT, indicator)``
    scores them.
    """
    ij, ik, jk = K._tri_cols.T
    return X.take(ij, axis=1), X.take(ik, axis=1), X.take(jk, axis=1)


def spanning_tree_gauge(K: SimplicialComplex2, F: EdgeField) -> tuple[Element, ...]:
    """Holonomy from the base to every vertex along the breadth-first tree.

    g[base] is the identity and g[child] = h(parent->child) * g[parent];
    values on non-tree edges never enter.  Each level of the tree is one
    batched product.
    """
    if not K.is_connected:
        raise ValueError("disconnected complex: no gauge paths reach every vertex")
    G = F.group
    X = _field_array(K, F)
    oriented = np.stack((X, G.batch_inverse(X)))  # [0, c] runs along edge c, [1, c] against it
    g = G.to_array([G.identity] * K.vertices)
    level = [K.base]
    while True:
        steps = [(p, c) for p in level for c in K.neighbors(p) if K._parents[c] == p]
        if not steps:
            return tuple(G.from_array(g))
        parent, child = np.array(steps, dtype=np.intp).T
        h = oriented[(parent > child).astype(np.intp), [_step_column(K, p, c) for p, c in steps]]
        g[child] = G.batch_multiply(h, g[parent])
        level = child.tolist()


def holonomy_pc_matrix(K: SimplicialComplex2, F: EdgeField) -> PCMatrix:
    """The contravariant PC matrix of a field, with gaps off the edge graph.

    Entry (i, j) is g_j * Hol(gamma_i * [i,j] * gamma_j^-1) * g_i^-1 for the
    tree gauge g, where gamma_v is the tree path base -> v with holonomy
    g_v.  The based loop's holonomy is g_j^-1 * h_ij * g_i, so the
    conjugations telescope and the entry is the edge holonomy h_ij itself,
    which is what is stored: the identity on the diagonal, the field's
    carriers above it and their batched inverses below it, none checked
    again, put in row-major order by one sort of their positions.
    """
    if not K.is_connected:
        raise ValueError("disconnected complex: holonomy matrix needs gauge paths")
    G = F.group
    n = K.vertices
    I, J = _edge_ends(K)
    X = _field_array(K, F)
    d = np.arange(n)
    pos = np.concatenate((d * (n + 1), I * n + J, J * n + I))
    carriers = np.concatenate((_identities(G, n), X, G.batch_inverse(X)))
    order = np.argsort(pos)
    return PCMatrix._of_checked(G, n, carriers[order], pos[order], CONTRAVARIANT)


def _as_triangle(K: SimplicialComplex2, t: Sequence[int]) -> Triangle:
    tri = _triangle_key(t)
    if tri not in K._tri_set:
        raise ValueError(f"unknown triangle {tuple(t)}")
    return tri


def plaquette(K: SimplicialComplex2, F: EdgeField, t: Sequence[int]) -> Element:
    """Local boundary product h_ki * h_jk * h_ij of a triangle."""
    i, j, k = _as_triangle(K, t)
    G = F.group
    return G.multiply(G.multiply(F.value(k, i), F.value(j, k)), F.value(i, j))


def triangle_curvature(K: SimplicialComplex2, F: EdgeField, t: Sequence[int]) -> Element:
    """Holonomy of the boundary loop of a triangle, based at the complex base.

    The based loop runs gamma_i * [i,j] * [j,k] * [k,i] * gamma_i^-1, so the
    result is the plaquette conjugated along the tree path; triangles
    unreachable from the base fall back to the bare plaquette, which has the
    same distance to the identity.
    """
    i, j, k = _as_triangle(K, t)
    if not K.reachable(i):
        return plaquette(K, F, (i, j, k))
    approach = K.tree_path(i)
    loop = approach + (j, k, i) + tuple(reversed(approach))[1:]
    return path_holonomy(K, F, loop)


def global_ii(
    K: SimplicialComplex2, F: EdgeField, indicator: Indicator | None = None
) -> tuple[float, Triangle | None]:
    """Worst In(curvature) over all triangles, with the argmax triangle.

    The indicator sees the plaquette; basing only conjugates it, which a
    bi-invariant indicator cannot see.  All plaquettes are scored in one
    sweep of the triad loop scorer: the default indicator as the defect
    d(h_jk h_ij, h_ik) on the whole array, which equals d(1, p^-1) of the
    plaquette p by bi-invariance, a supplied one on each plaquette; ties go
    to the first triangle.  Complexes without triangles score 0 with no
    triangle.
    """
    return _triangle_scores(K, F, indicator)[1:]


def _triangle_scores(
    K: SimplicialComplex2, F: EdgeField, indicator: Indicator | None
) -> tuple[np.ndarray, float, Triangle | None]:
    """In of every plaquette, in ``K.triangles`` order, with the first
    maximum and its triangle; (0.0, None) when there are no triangles."""
    score = _loop_scorer(F.group, CONTRAVARIANT, indicator)  # checks a supplied indicator
    if not K.triangles:
        return np.zeros(0), 0.0, None
    curv = score(*_triangle_edges(K, _field_array(K, F)[None]))[0]
    t = int(np.argmax(curv))
    return curv, float(curv[t]), K.triangles[t]


def gauge_transform_field(
    K: SimplicialComplex2, F: EdgeField, mu: Sequence[Element]
) -> EdgeField:
    """Vertex action h_ij -> mu_j * h_ij * mu_i^-1.

    Conjugates every curvature, so bi-invariant indicator values are
    unchanged.
    """
    G = F.group
    mu = G.batch_check(mu)
    if len(mu) != K.vertices:
        raise ValueError(f"gauge length {len(mu)} does not match {K.vertices} vertices")
    I, J = _edge_ends(K)
    return _array_field(K, G, G.batch_multiply(G.batch_multiply(mu[J], _field_array(K, F)), G.batch_inverse(mu)[I]))
