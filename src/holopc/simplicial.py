"""Edge-holonomy fields on 2-dimensional simplicial complexes.

A complex stores vertices, canonically oriented edges (i < j), and
triangles (i < j < k); an :class:`EdgeField` assigns a group element to
every oriented edge, with reversal acting by inversion.  Path holonomy
composes contravariantly: the product of a concatenated path is
Hol(second) * Hol(first), so the last edge sits leftmost.

Both are stored as arrays.  A complex keeps an (E, 2) array of its edges,
sorted, with their keys ``i * V + j``, a (T, 3) array of its triangles,
sorted, and the (T, 3) columns (ij, ik, jk) of each triangle's edges (on
``full_simplex(n - 1)``, the pair ranks of ``pcmatrix``'s triads).  A
complex of more than ``_LOOP_CELLS`` cells, each a list or tuple of plain
ints (the form a JSON document gives), is checked in one numpy pass: vertex
range, self-edges, duplicate edges and triangles, degenerate triangles, and
missing triangle edges by one ``searchsorted`` of the edge keys.  Any other
input, and any input that fails the pass, goes through the per-cell loop,
which names the first bad cell in document order.  A field keeps an (E, 2)
array of its canonical edges, sorted, and the (E, ...) carrier array of
their values, checked once.  Binding it to a complex is one ``searchsorted``
of the complex's edge keys, so no per-edge Python object is built on the
way from a document to a report.

From these come the spanning-tree gauge, the pairwise-comparison matrix of
a field (with gaps where the comparison graph has no edge), per-triangle
curvature, the global worst-triangle indicator, and vertex gauge
transformations.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingEdgeError
from .groups import Element, Group
from .pcmatrix import CONTRAVARIANT, Indicator, PCMatrix, _first_max, _frozen, _identities, _loop_scorer, _triangle_edges

Edge = tuple[int, int]
Triangle = tuple[int, int, int]

_MAX_VERTICES = 2**31  # edge keys i * V + j stay inside int64
_LOOP_CELLS = 16  # up to this many cells the per-cell loop is quicker than the numpy pass


class SimplicialComplex2:
    """Vertices 0..V-1 with oriented edges and triangles.

    Stored edges have i < j and triangles i < j < k; every triangle's three
    edges must be present.  The base vertex anchors gauge paths; vertices
    outside its connected component are allowed but based constructions
    reject them.  ``edges`` and ``triangles`` are tuples built on first
    access from the stored arrays.
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
        if vertices > _MAX_VERTICES:
            raise ValueError(f"complex has {vertices} vertices; at most 2**31 are supported")
        if not 0 <= base < vertices:
            raise ValueError(f"base vertex {base} out of range")
        cells = None
        try:
            edges = list(edges)
            triangles = list(triangles)
            if len(edges) + len(triangles) > _LOOP_CELLS:
                cells = _cell_arrays(vertices, edges, triangles)
        except TypeError:
            pass  # something not iterable: the loop raises it, in document order
        if cells is None:
            cells = _checked_cells(vertices, edges, triangles)
        self.vertices = vertices
        self.base = base
        self._edge_array, self._keys, self._tri_array, self._tri_cols = cells
        self._nbrs, self._parents = _breadth_first(base, self._edge_array)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(tuple, self._edge_array.tolist()))

    @cached_property
    def triangles(self) -> tuple[Triangle, ...]:
        return tuple(map(tuple, self._tri_array.tolist()))

    @cached_property
    def _tri_set(self) -> frozenset[Triangle]:
        return frozenset(self.triangles)

    def has_edge(self, i: int, j: int) -> bool:
        return _edge_column(self, i, j) is not None

    def has_triangle(self, t: Sequence[int]) -> bool:
        return _triangle_key(t) in self._tri_set

    def neighbors(self, v: int) -> list[int]:
        if not 0 <= v < self.vertices:  # a negative index would name another vertex
            raise ValueError(f"vertex {v} out of range")
        return self._nbrs.get(v, [])

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
            f"SimplicialComplex2(V={self.vertices}, E={len(self._edge_array)}, "
            f"T={len(self._tri_array)}, base={self.base})"
        )


def _cell_arrays(vertices: int, edges: list, triangles: list):
    """The stored arrays of a complex -- sorted edges, their keys
    ``i * V + j``, sorted triangles and the columns of their edges --
    checked in one numpy pass, or None unless every cell is a list or tuple
    of plain ints of the right count and every check passes."""
    V = vertices
    arrays = []
    for cells, size in ((edges, 2), (triangles, 3)):
        if not set(map(type, cells)) <= {list, tuple} or not set(map(len, cells)) <= {size}:
            return None
        flat = list(chain.from_iterable(cells))
        if not set(map(type, flat)) <= {int}:
            return None
        try:
            arrays.append(np.array(flat, dtype=np.int64).reshape(-1, size))
        except OverflowError:
            return None
    e, t = arrays
    e.sort(axis=1)
    lo, hi = e.T
    if len(e) and not (lo.min() >= 0 and hi.max() < V and (lo < hi).all()):
        return None  # a self-edge or a vertex out of range
    keys = lo * V + hi
    order = keys.argsort()
    keys, e = keys[order], e[order]
    if (keys[1:] == keys[:-1]).any():
        return None  # a duplicate edge
    t.sort(axis=1)
    t = t[np.lexsort(t.T[::-1])]
    i, j, k = t.T
    if len(t) and not (i.min() >= 0 and k.max() < V and ((i < j) & (j < k)).all()):
        return None  # a degenerate triangle or a vertex out of range
    if (t[1:] == t[:-1]).all(axis=1).any():
        return None  # a duplicate triangle
    want = np.empty_like(t)
    want[:, 0], want[:, 1], want[:, 2] = i * V + j, i * V + k, j * V + k
    cols = keys.searchsorted(want)
    if len(t) and (cols.max() >= len(keys) or (keys[cols] != want).any()):
        return None  # a triangle edge is missing
    return _frozen(e, keys, t, cols)


def _checked_cells(vertices: int, edges, triangles):
    """The stored arrays of :func:`_cell_arrays`, with the cells checked one
    at a time: the first bad cell in document order, edges before
    triangles, raises."""
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
    E, T = sorted(edge_set), sorted(tri_set)
    col = {e: c for c, e in enumerate(E)}
    keys = [i * vertices + j for i, j in E]
    cols = [(col[(i, j)], col[(i, k)], col[(j, k)]) for i, j, k in T]
    # the four arrays are views of one, so a small complex pays for one conversion
    (flat,) = _frozen(np.array([*chain(*E), *keys, *chain(*T), *chain(*cols)], dtype=np.intp))
    e, k, t = 2 * len(E), 3 * len(E), 3 * len(E) + 3 * len(T)
    return flat[:e].reshape(-1, 2), flat[e:k], flat[k:t].reshape(-1, 3), flat[t:].reshape(-1, 3)


def _breadth_first(base: int, edges: np.ndarray) -> tuple[dict[int, list[int]], dict[int, int | None]]:
    """The neighbors, in increasing order, of each vertex on an edge (so a
    complex costs nothing per isolated vertex), and the parents of the
    breadth-first tree from the base, which visits neighbors in that order
    (the base's parent is None; unreachable vertices are absent)."""
    nbrs: dict[int, list[int]] = {}
    for i, j in edges.tolist():  # sorted edges: each list comes out sorted
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    parents: dict[int, int | None] = {base: None}
    queue = [base]
    for v in queue:  # the queue grows while it is read
        for w in nbrs.get(v, ()):
            if w not in parents:
                parents[w] = v
                queue.append(w)
    return nbrs, parents


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

    Stored as a read-only (E, 2) array of canonical edges i < j, sorted,
    and the read-only (E, ...) carrier array of their values h_ij, checked
    once.  Keys may be given in either orientation: a reversed key's value
    is inverted, with one ``batch_inverse`` over all of them.  Each vertex
    of a key must be an integer by the rule of :func:`_as_integer`.
    ``value``, ``items`` and ``edges`` read the arrays.
    """

    def __init__(self, group: Group, values: Mapping[Edge, Element]):
        ends = _key_array(list(values))
        self._set(group, *_canonical_edges(group, ends, group.batch_check(list(values.values()))))

    @classmethod
    def _of_checked(cls, group: Group, ends: np.ndarray, carriers: np.ndarray) -> EdgeField:
        """The field with carriers that already passed ``group.check`` on the
        edges ``ends``, an (E, 2) int array in either orientation."""
        F = cls.__new__(cls)
        F._set(group, *_canonical_edges(group, ends, carriers))
        return F

    def _set(self, group: Group, edges: np.ndarray, carriers: np.ndarray) -> None:
        self.group = group
        self._edges, self._carriers = _frozen(edges, carriers)

    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(tuple, self._edges.tolist()))

    def value(self, i: int, j: int) -> Element:
        """Holonomy of the oriented edge i -> j."""
        a, b = (i, j) if i < j else (j, i)
        row = np.flatnonzero((self._edges[:, 0] == a) & (self._edges[:, 1] == b))
        if not len(row):
            raise MissingEdgeError(a, b)
        v = self.group.from_array(self._carriers[row])[0]
        return v if i < j else self.group.inverse(v)

    def items(self) -> list[tuple[Edge, Element]]:
        return list(zip(self.edges(), self.group.from_array(self._carriers)))


def _key_array(keys: list) -> np.ndarray:
    """The field keys as an (E, 2) int64 array; each key is a pair of
    integers by the rule of :func:`_as_integer`, and the first bad key is
    named."""
    pairs = []
    for key in keys:
        try:
            vs = [_as_integer(v) for v in key]
        except TypeError:
            vs = []
        if len(vs) != 2 or None in vs or not all(-(2**63) <= v < 2**63 for v in vs):
            raise ValueError(f"bad edge key {key!r}: expected two integer vertices")
        pairs.append(vs)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _canonical_edges(group: Group, ends: np.ndarray, carriers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges (i, j) with their checked carriers, as canonical edges i < j,
    sorted, and their carriers, a reversed edge's inverted.  The first
    self-edge or repeated edge in the given order raises."""
    i, j = ends.T
    edges = np.stack((np.minimum(i, j), np.maximum(i, j)), axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))  # stable: a repeat follows its first occurrence
    edges = edges[order]
    repeat = np.zeros(len(ends), dtype=bool)
    repeat[order[1:]] = np.all(edges[1:] == edges[:-1], axis=1)
    bad = np.flatnonzero((i == j) | repeat)
    if len(bad):
        p = int(bad[0])
        a, b = int(i[p]), int(j[p])
        if a == b:
            raise ValueError(f"self-edge ({a},{b}) has no holonomy")
        raise ValueError(f"duplicate value for edge {(min(a, b), max(a, b))}")
    reversed_ = i > j
    if reversed_.any():
        carriers = carriers.copy()
        carriers[reversed_] = group.batch_inverse(carriers[reversed_])
    return edges, carriers[order]


def _array_field(K: SimplicialComplex2, G: Group, X: np.ndarray) -> EdgeField:
    """The field with carriers X over ``K.edges``, which are not checked again."""
    F = EdgeField.__new__(EdgeField)
    F._set(G, K._edge_array, X)
    return F


def _edge_carriers(K: SimplicialComplex2, F: EdgeField, cols=slice(None)) -> np.ndarray:
    """The field's carriers h_ij, i < j, over the edges ``K.edges[cols]``
    (all of them by default), in that order: shape (len, ...).  The first
    of those edges the field has no value on raises."""
    if F._edges is K._edge_array or np.array_equal(F._edges, K._edge_array):
        return F._carriers[cols]
    V = K.vertices
    inside = (F._edges[:, 0] >= 0) & (F._edges[:, 1] < V)  # no other edge is in K
    keys = F._edges[inside, 0] * V + F._edges[inside, 1]  # sorted, as the edges are
    want = K._keys[cols]
    at = np.minimum(np.searchsorted(keys, want), max(len(keys) - 1, 0))
    found = keys[at] == want if len(keys) else np.zeros(len(want), dtype=bool)
    if not found.all():
        i, j = K._edge_array[cols][int(np.argmin(found))].tolist()
        raise MissingEdgeError(i, j)
    return F._carriers[inside][at]


def identity_field(K: SimplicialComplex2, group: Group) -> EdgeField:
    return _array_field(K, group, _identities(group, len(K._edge_array)))


def field_from_gauge(K: SimplicialComplex2, group: Group, lam: Sequence[Element]) -> EdgeField:
    """The flat field h_ij = lam_j * lam_i^-1; every triangle has identity
    curvature and the induced matrix is contravariant-consistent."""
    lam = group.batch_check(lam)
    if len(lam) != K.vertices:
        raise ValueError(f"gauge length {len(lam)} does not match {K.vertices} vertices")
    I, J = K._edge_array.T
    return _array_field(K, group, group.batch_multiply(lam[J], group.batch_inverse(lam)[I]))


def path_holonomy(K: SimplicialComplex2, F: EdgeField, path: Sequence[int]) -> Element:
    """Ordered edge product along a vertex path, last edge leftmost.

    Empty and single-vertex paths give the identity; concatenation
    satisfies Hol(p * q) = Hol(q) * Hol(p).
    """
    cols, against = _path_steps(K, path)
    G = F.group
    H = _edge_carriers(K, F, np.array(cols, dtype=np.intp))
    return G.from_array(_path_product(G, H[None], against))[0]


def _edge_column(K: SimplicialComplex2, v: int, w: int) -> int | None:
    """Column in ``K.edges`` of the edge {v, w}, or None when it is not one."""
    a, b = (v, w) if v < w else (w, v)
    if not 0 <= a < b < K.vertices:
        return None
    c = int(K._keys.searchsorted(a * K.vertices + b))
    return c if c < len(K._keys) and K._edge_array[c].tolist() == [a, b] else None


def _step_column(K: SimplicialComplex2, v: int, w: int) -> int:
    """Column in ``K.edges`` of the edge a path steps over from v to w."""
    c = _edge_column(K, v, w)
    if c is None:
        a, b = (v, w) if v < w else (w, v)
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


def spanning_tree_gauge(K: SimplicialComplex2, F: EdgeField) -> tuple[Element, ...]:
    """Holonomy from the base to every vertex along the breadth-first tree.

    g[base] is the identity and g[child] = h(parent->child) * g[parent];
    values on non-tree edges never enter.  Each level of the tree is one
    batched product.
    """
    if not K.is_connected:
        raise ValueError("disconnected complex: no gauge paths reach every vertex")
    G = F.group
    X = _edge_carriers(K, F)
    oriented = np.stack((X, G.batch_inverse(X)))  # [0, c] runs along edge c, [1, c] against it
    g = _identities(G, K.vertices)
    level = [K.base]
    while True:
        steps = [(p, c) for p in level for c in K.neighbors(p) if K._parents[c] == p]
        if not steps:
            return tuple(G.from_array(g))
        parent, child = np.array(steps, dtype=np.intp).T
        lo, hi = np.minimum(parent, child), np.maximum(parent, child)
        h = oriented[(parent > child).astype(np.intp), np.searchsorted(K._keys, lo * K.vertices + hi)]
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
    I, J = K._edge_array.T
    X = _edge_carriers(K, F)
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
    """Local boundary product h_ki * h_jk * h_ij of a triangle, formed as
    h_ki * (h_jk * h_ij), the association of the batched plaquette scores."""
    i, j, k = _as_triangle(K, t)
    G = F.group
    return G.multiply(F.value(k, i), G.multiply(F.value(j, k), F.value(i, j)))


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
    bi-invariant indicator cannot see.  The plaquettes are the triad loops
    of the field's contravariant matrix, scored as ``pcmatrix`` scores
    triads: the default indicator as the defect d(h_jk h_ij, h_ik), a
    supplied one on each plaquette; ties go to the first triangle.
    Complexes without triangles score 0 with no triangle; on any complex a
    field without a value on some edge raises :class:`MissingEdgeError`.
    """
    return _triangle_scores(K, F, indicator)[1:]


def _triangle_scores(
    K: SimplicialComplex2, F: EdgeField, indicator: Indicator | None
) -> tuple[np.ndarray, float, Triangle | None]:
    """In of every plaquette, in ``K.triangles`` order, with the first
    maximum and its triangle; (0.0, None) when there are no triangles."""
    score = _loop_scorer(F.group, CONTRAVARIANT, indicator)  # checks a supplied indicator
    X = _edge_carriers(K, F)  # raises on a missing edge, with triangles or without
    if not len(K._tri_array):
        return np.zeros(0), 0.0, None
    curv = score(*_triangle_edges(K._tri_cols, X[None]))
    (value,), (t,) = _first_max((curv,), 1)
    return curv[0], float(value), tuple(K._tri_array[t].tolist())


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
    I, J = K._edge_array.T
    return _array_field(K, G, G.batch_multiply(G.batch_multiply(mu[J], _edge_carriers(K, F)), G.batch_inverse(mu)[I]))
