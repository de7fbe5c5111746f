"""Pairwise-comparison matrices over a group.

A PC matrix is an n x n grid of group elements with identity diagonal and
the reciprocity law a[j][i] = a[i][j]^-1.  Entries may be absent ("gaps")
when the matrix is assembled from an incomplete comparison graph; the gap
pattern is symmetric and the diagonal is never gapped.

A :class:`PCMatrix` stores the carrier array of its present entries in
row-major order and their sorted flat positions ``i * n + j``, gaps or
none: one layout, in which a matrix is gap-free exactly when it stores
n * n positions.  The holonomy matrix of a field on ``grid_complex(20)``
is 2,921 carriers and positions instead of a 441 x 441 grid of which
191,560 cells are gaps.  Every constructor fills these arrays directly;
the grid of plain elements, ``entries``, is built only when something
reads it, and ``entry`` reads one stored carrier.  Matrices that break the axioms (a gap
without its mirror, a wrong reciprocal or diagonal) are stored as given,
so :func:`validate`, which reads the stored entries, can name the
violation.  It pairs each stored entry with its transpose by one
``searchsorted`` on a gapped matrix's positions, and reads a gap-free
matrix's pairing from a layout cached per n (``_gap_free_pairing``), as
the pair lists ``_pairs`` and ``_pair_positions`` are.  That
validates a gap-free u1 matrix in 19 us instead of 32-34 us, at n = 3 and
at n = 9 (median of 9 ``timeit`` repeats, two runs, shared 2-vCPU host).
Only a gap-free matrix is ever viewed as an (n, n, ...) array.

The module provides validation, the two consistency notions (covariant
a_ij * a_jk = a_ik and contravariant a_jk * a_ij = a_ik), triad holonomy,
the classical triad indicator ii3 with its chain variant, the group-valued
indicator built from an indicator map, and the gauge-vector factorization
a_ij = lam_i^-1 * lam_j of consistent matrices together with its converse.

The module owns the triangle loops of the package.  A matrix's strict upper
triangle, row-major, is a field on the complete graph, whose triangles are
the triads: ``_triad_blocks`` lists them in lexicographic blocks of pair
ranks (ij, ik, jk), the triangle edge columns of ``full_simplex(n - 1)``.
One gather (``_triangle_edges``) and one first-maximum reduction
(``_first_max``: ties go to the first loop, a later block wins only when
strictly higher) score them in the sweeps of ``is_consistent``,
``ii_indicator`` and ``ii3_matrix``, as they score the plaquettes of
``simplicial`` and the Monte Carlo observables of ``integrate``.

Every loop with the default indicator is scored as a defect.  The triad
holonomy is h = x z y^-1 (covariant) or y^-1 z x (contravariant) for
(x, y, z) = (a_ij, a_ik, a_jk), and the distance is bi-invariant, so
d(1, h^-1) = d(xz, y) or d(zx, y): Koczkodaj's triad defect, read in any
group, at one product and one distance per triad (``Group.batch_defect``;
rplus takes it as the sum of logs |log x - log y + log z|, so no product
leaves the float range, and ``ii3_matrix`` and ``ii_n_chain`` work in logs
too).  ``_loop_scorer`` is that one kernel, for every caller above and the
consistencizer's ``ii_before``/``ii_after``.

An su2 sweep with the default indicator that spans more than one block
(C(n,3) > 2048, n >= 25) ranks its triads first.  The defect d(xz, y) is
the angle phi in [0, pi] between xz and y, so it falls as the key
c = <xz, y> = |x||z||y| cos phi rises (<zx, y> for contravariant loops),
and the key, ``UnitQuaternions.batch_defect_key``, costs half the defect:
no normalization, norms or atan2.  Pass 1 keys every triad, in blocks of
``_KEY_BLOCK``, and keeps the ranks of those whose key is within
delta = ``_KEY_TIE`` of the least (``_ranked_candidates``); pass 2 scores
only those, with the defect kernel, and takes the first maximum by rank,
so the value and the witness are the exhaustive sweep's, bit for bit.
The rounding bound behind delta, for u = 2**-53: stored carriers are unit
to within 4u, so ||x||y||z| - 1| <= eta = 12u; each component of xz sums
four products whose magnitudes add to at most |x||z|, and the key four
more, so |c_fp - |xz||y| cos phi| <= eps_c = 12u; and the defect kernel (a
normalized product, two norms, an atan2 within 4 ulp) is within
eps_d = 50u of phi.  Let t* have the least key.  A triad t with
c_fp(t) > c_fp(t*) + delta has cos phi(t) - cos phi(t*) > delta - 2(eps_c
+ eta), and as |d cos phi / d phi| <= 1, phi(t*) - phi(t) exceeds it too;
with delta >= 2(eps_d + eps_c + eta) = 148u, about 1.6e-14, that puts
d_fp(t) below d_fp(t*), so t is no maximum.  ``_KEY_TIE`` = 1e-11 is 600
times that bound (the measured errors are at most 7u).

Ties have a fallback.  Once the candidates outnumber one sweep block, the
sweep scores every triad by its defect, as a one-block sweep does: a
matrix within rounding of consistent, every key of its first block within
delta of the least (all defects below about 4.5e-6), pays one block of
keys for that.  So the candidates never take more than one block's memory.
The key blocks, (3, T) int32 pair ranks, are cached per n while one n's
take at most ``_KEY_CACHE_BYTES`` (512 KiB, n <= 65), for at most 8 sizes
(4 MiB); a larger n builds them block by block, so a sweep's memory stays
bounded at any n.  One-block sweeps, the other groups, a supplied
indicator and Monte Carlo rows keep the defect path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GapError, InconsistentMatrixError, InvalidMatrixError, NonCompactGroupError
from .groups import RPLUS, Element, Group, UnitQuaternions, _require_integer, as_generator

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"

ALGEBRA_TOL = 1e-12  # tolerance for algebraic identities on float carriers

_TRIAD_BLOCK = 2048  # triads scored per step of the sweep
_KEY_BLOCK = 4096  # triads keyed per step of the ranked su2 sweep
_KEY_TIE = 1e-11  # delta: keys within it of the least are scored (module docstring)
_KEY_CACHE_BYTES = 2**19  # key blocks of one n are cached up to this size: n <= 65

Triad = tuple[int, int, int]
Indicator = Callable[[Element], float]


class PCMatrix:
    """Immutable n x n matrix of optional group elements.

    The matrix is stored as the carrier array of its present entries, in
    row-major order, and their sorted flat positions ``i * n + j``, so a
    sparse comparison graph costs memory for its edges only; ``gap_free``
    counts the positions.  The public constructor takes any nested sequence
    of rows with ``None`` marking a gap and checks the present values once,
    with one ``group.batch_check``; the triad sweeps and solvers work on
    the carrier array and never check it again.  ``entries``, the grid of
    plain elements, is built on first access; ``entry`` reads one stored
    carrier.
    """

    __slots__ = ("group", "n", "variance", "_carriers", "_positions", "_grid")

    def __init__(self, group: Group, entries, variance: str = COVARIANT):
        rows = [list(r) for r in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("entries must form a square grid with n >= 2")
        flat = [e for r in rows for e in r]
        pos = [p for p, e in enumerate(flat) if e is not None]
        self._set(group, n, group.batch_check([flat[p] for p in pos]), np.array(pos, dtype=np.intp), variance)

    @classmethod
    def _of_checked(cls, group: Group, n: int, carriers: np.ndarray, positions, variance: str) -> PCMatrix:
        """Wrap a carrier array of entries that already passed ``group.check``
        and their strictly increasing flat positions, an index array aligned
        with the carriers; nothing is checked again."""
        A = cls.__new__(cls)
        A._set(group, n, carriers, positions, variance)
        return A

    def _set(self, group, n, carriers, positions, variance) -> None:
        if variance not in (COVARIANT, CONTRAVARIANT):
            raise ValueError(f"variance must be covariant or contravariant, got {variance!r}")
        if n < 2:
            raise ValueError(f"a PC matrix needs n >= 2, got n = {n}")
        _frozen(carriers, positions)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "_carriers", carriers)
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_grid", None)

    def __setattr__(self, name, value):
        raise AttributeError("PCMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the canonical carriers, unchecked
        return (type(self)._of_checked, (self.group, self.n, self._carriers, self._positions, self.variance))

    @property
    def entries(self) -> tuple[tuple[Element | None, ...], ...]:
        """The n x n grid of plain elements, ``None`` at the gaps."""
        if self._grid is None:
            n, flat = self.n, [None] * (self.n * self.n)
            for p, v in zip(self._positions.tolist(), self.group.from_array(self._carriers)):
                flat[p] = v
            object.__setattr__(self, "_grid", tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n)))
        return self._grid

    def entry(self, i: int, j: int) -> Element | None:
        """The entry a_ij, ``None`` at a gap, read from its stored carrier."""
        i, j = _require_integer("row index i", i), _require_integer("column index j", j)
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i},{j}) is outside the {self.n} x {self.n} matrix")
        P, p = self._positions, i * self.n + j
        k = int(P.searchsorted(p))  # where a_ij is stored, if it is
        if k == len(P) or P[k] != p:
            return None
        return self.group.from_array(self._carriers[k : k + 1])[0]

    @property
    def gap_free(self) -> bool:
        return len(self._positions) == self.n * self.n

    def gaps(self) -> list[tuple[int, int]]:
        """The absent positions (i, j), row-major."""
        return [divmod(p, self.n) for p in np.setdiff1d(np.arange(self.n**2), self._positions).tolist()]

    def _key(self) -> tuple:
        # plain values, so that -0.0 and 0.0 compare and hash alike
        pos = tuple(self._positions.tolist())
        return (self.group, self.variance, self.n, pos, tuple(self._carriers.ravel().tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, PCMatrix) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        gaps = self.n * self.n - len(self._carriers)
        extra = f", gaps={gaps}" if gaps else ""
        return f"PCMatrix({self.group.tag}, n={self.n}, {self.variance}{extra})"


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, read-only: the pairs i < j, row-major."""
    return _frozen(*np.triu_indices(n, 1))


@functools.lru_cache(maxsize=64)
def _pair_positions(n: int) -> np.ndarray:
    """The flat positions ``i * n + j`` of the pairs i < j, row-major,
    read-only: indexing a flattened (n, n, ...) array with ``take`` at them
    is faster than indexing the grid by (I, J)."""
    I, J = _pairs(n)
    return _frozen(I * n + J)[0]


def _entry_array(A: PCMatrix) -> np.ndarray:
    """The entries of a gap-free matrix as one read-only carrier array of
    shape (n, n, ...): its stored carriers, reshaped."""
    _require_gap_free(A, "matrix has gaps: this operation needs every entry; fill the gaps first")
    return A._carriers.reshape((A.n, A.n) + A._carriers.shape[1:])


def _identities(group: Group, count: int) -> np.ndarray:
    """A carrier array of ``count`` identities."""
    return np.repeat(group.to_array([group.identity]), count, axis=0)


def identity_matrix(group: Group, n: int, variance: str = COVARIANT) -> PCMatrix:
    return PCMatrix._of_checked(group, n, _identities(group, n * n), np.arange(n * n), variance)


def from_upper_triangle(group: Group, values: Sequence[Element], variance: str = COVARIANT) -> PCMatrix:
    """Build a matrix from its strict upper triangle, row-major.

    ``values`` has length n(n-1)/2; the diagonal is set to the identity and
    the lower triangle to the inverses.
    """
    m = len(values)
    n = round((1 + (1 + 8 * m) ** 0.5) / 2)
    if n < 2 or n * (n - 1) // 2 != m:
        raise ValueError(f"{m} values do not fill a strict upper triangle with n >= 2")
    return _from_pairs(group, n, *_pairs(n), group.batch_check(values), variance)


def _from_pairs(group: Group, n: int, I: np.ndarray, J: np.ndarray, upper: np.ndarray, variance: str) -> PCMatrix:
    """The one matrix builder: the identity on the diagonal, the carriers
    ``upper`` at the pairs (I, J), i < j, and their batched inverses at
    (J, I); every other position is a gap.  Nothing is checked again.  The
    entries go in row-major order by one sort of their flat positions."""
    d = np.arange(n)
    pos = np.concatenate((d * (n + 1), I * n + J, J * n + I))
    carriers = np.concatenate((_identities(group, n), upper, group.batch_inverse(upper)))
    order = np.argsort(pos)
    return PCMatrix._of_checked(group, n, carriers[order], pos[order], variance)


def validate(A: PCMatrix) -> list[tuple[int, int, str]]:
    """Check the PC axioms on the stored entries, each paired with its
    transpose (:func:`_pairing`).

    Returns an empty list when the matrix is valid; otherwise one
    ``(i, j, axiom)`` tuple per violation: each bad diagonal entry as
    (i, i, "diagonal"), then over the pairs i < j, row-major, a lone entry
    as (i, j, "gap symmetry") or a wrong a_ji as (j, i, "reciprocity").
    """
    G, n, C = A.group, A.n, A._carriers
    diag, lhs, up, lone_key, up_key = _gap_free_pairing(n) if A.gap_free else _pairing(A._positions, n)
    # one distance call: d(a_ii, 1) on the stored diagonal, then d(a_ji, a_ij^-1) on the pairs stored both ways
    rhs = np.concatenate((_identities(G, len(diag)), G.batch_inverse(C.take(up, axis=0))))
    bad = G.batch_distance(C.take(lhs, axis=0), rhs) > ALGEBRA_TOL
    bad_diag = np.ones(n, dtype=bool)  # a missing diagonal entry is bad
    bad_diag[diag] = bad[: len(diag)]
    out = [(i, i, "diagonal") for i in np.flatnonzero(bad_diag).tolist()]
    # one violation per pair at most, ordered by the pair's position i * n + j, i < j
    key = np.concatenate((lone_key, up_key[bad[len(diag) :]]))
    asymmetric = np.arange(len(key)) < len(lone_key)
    for t in np.argsort(key).tolist():
        i, j = divmod(int(key[t]), n)
        out.append((i, j, "gap symmetry") if asymmetric[t] else (j, i, "reciprocity"))
    return out


def _pairing(P: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """How :func:`validate` reads the sorted flat positions P of an n x n
    matrix's stored entries, each paired with its transpose by one
    ``searchsorted``: the vertices of the stored diagonal entries; the
    indices in P of those entries and then of each a_ji whose a_ij, i < j,
    is stored too; the indices of those a_ij and their positions i * n + j;
    and the position i * n + j, i < j, of each lone entry, whose mirror is
    a gap."""
    I, J = np.divmod(P, n)
    T = J * n + I  # each entry's transpose
    k = P.searchsorted(T)  # where the transpose is stored, if it is
    paired = P.take(k, mode="clip") == T  # past the end, P's last position is below T
    d = np.flatnonzero(I == J)
    up = np.flatnonzero(paired & (I < J))
    return I[d], np.concatenate((d, k[up])), up, np.minimum(P, T)[~paired], P[up]  # the diagonal is its own mirror


@functools.lru_cache(maxsize=64)
def _gap_free_pairing(n: int) -> tuple[np.ndarray, ...]:
    """:func:`_pairing` of the n * n positions of a gap-free matrix,
    read-only: its layout depends on n alone."""
    return _frozen(*_pairing(np.arange(n * n), n))


def _require_valid(A: PCMatrix) -> None:
    """Refuse a matrix that breaks the axioms, naming its first violation."""
    violations = validate(A)
    if violations:
        i, j, axiom = violations[0]
        message = f"matrix breaks the PC axioms: {axiom} at ({i},{j}); run `holopc check` on it to list every violation"
        raise InvalidMatrixError(message, violations[0])


def dualize(A: PCMatrix) -> PCMatrix:
    """Transpose the matrix (b_ij = a_ji) and flip its variance.

    An involution; maps covariant-consistent matrices to
    contravariant-consistent ones and back.
    """
    flipped = CONTRAVARIANT if A.variance == COVARIANT else COVARIANT
    n, pos = A.n, A._positions
    moved = (pos % n) * n + pos // n  # (i, j) goes to (j, i)
    order = np.argsort(moved)
    return PCMatrix._of_checked(A.group, n, A._carriers[order], moved[order], flipped)


def _require_gap_free(A: PCMatrix, message: str) -> None:
    if not A.gap_free:
        raise GapError(message)


@functools.lru_cache(maxsize=64)
def _triad_ranks(n: int) -> tuple[np.ndarray, ...]:
    """Per first index i: the ranks of its first triad and just past its
    last, the shift from the rank of a triad (i, j, k) to the rank of the
    pair (j, k), and the rank of the pair (i, j) less j."""
    first = np.arange(n)
    count = (n - 1 - first) * (n - 2 - first) // 2  # triads with first index i
    end = np.cumsum(count)
    # the pairs (j, k) with j > i are the suffix of the pair list after the
    # (i + 1)(n - 1) - i(i + 1)/2 pairs with j <= i
    shift = (first + 1) * (n - 1) - first * (first + 1) // 2 - (end - count)
    row = first * (2 * n - 3 - first) // 2 - 1  # row i of the pair list starts at (i, i + 1)
    return _frozen(end - count, end, shift, row)


def _triad_blocks(n: int, size: int):
    """The triads i < j < k in lexicographic order, in consecutive blocks of
    at most ``size``, each a (T, 3) array of pair ranks (ij, ik, jk).  The
    pairs, row-major, are the sorted edges of ``full_simplex(n - 1)``, so
    the blocks concatenate to its ``_tri_cols``."""
    total = math.comb(n, 3)
    for lo in range(0, total, size):
        hi = min(lo + size, total)
        yield _small_triads(n)[lo:hi] if total <= _TRIAD_BLOCK else _triad_columns(n, lo, hi)


@functools.lru_cache(maxsize=64)
def _small_triads(n: int) -> np.ndarray:
    """Every triad's columns, read-only, for an n whose triads fit one sweep
    block: building them would cost as much as scoring them."""
    return _frozen(_triad_columns(n, 0, math.comb(n, 3)))[0]


def _triad_columns(n: int, lo: int, hi: int) -> np.ndarray:
    """The pair ranks (ij, ik, jk) of the triads of ranks lo..hi-1."""
    (start, end, shift, row), (J, K) = _triad_ranks(n), _pairs(n)
    per_first = np.maximum(np.minimum(end, hi) - np.maximum(start, lo), 0)  # the block's triads per i
    jk = np.arange(lo, hi) + np.repeat(shift, per_first)
    ij = np.repeat(row, per_first)  # the rank of (i, j) less j
    return np.stack((ij + J[jk], ij + K[jk], jk)).T  # each column contiguous, for the gather


def _triangle_edges(cols: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The carriers (x, y, z) of the edges (ij, ik, jk) of each loop of the
    (T, 3) column array ``cols``, from carrier arrays X of shape (B, E, ...):
    three (B, T, ...) arrays, the triad entries (a_ij, a_ik, a_jk) of a
    matrix's upper triangle, or by ``K._tri_cols`` of a field's
    contravariant matrix, whose triad holonomies are its plaquettes."""
    ij, ik, jk = cols.T
    return X.take(ij, axis=1), X.take(ik, axis=1), X.take(jk, axis=1)


def _first_max(blocks, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first maximum over consecutive (rows, T) score blocks, and
    its column counted across them: ``argmax`` takes the first inside a
    block, and a later block wins only when strictly higher.  With no
    blocks: zeros and column -1."""
    best, arg, lo, every = np.zeros(rows), np.zeros(rows, dtype=np.intp) - 1, 0, np.arange(rows)
    for v in blocks:
        b = v.argmax(axis=1)
        top = v[every, b]  # faster than v.max(axis=1) along a short axis
        if lo:
            win = top > best
            best[win], arg[win] = top[win], b[win] + lo
        else:
            best, arg = top, b
        lo += v.shape[1]
    return best, arg


def _upper(A: PCMatrix) -> np.ndarray:
    """The entries a_ij, i < j, row-major, of a gap-free matrix as a carrier array."""
    M = _entry_array(A)
    return M.reshape((-1,) + M.shape[2:]).take(_pair_positions(A.n), axis=0)


def _triad_sweep(A: PCMatrix, score, key=None) -> tuple[float, Triad | None]:
    """The lexicographically first triad of maximal score, with its score.

    ``score(x, y, z)`` maps the carrier arrays of a block's entries
    (a_ij, a_ik, a_jk) of a gap-free matrix to one float per triad.
    ``key(x, y, z)``, given with the default su2 defect (:func:`_loop_key`),
    ranks the triads of a sweep longer than one block, and only the
    candidates of :func:`_ranked_candidates` are scored.  Matrices with
    n < 3 have no triads and give (0.0, None).
    """
    n, U = A.n, _upper(A)[None]  # the upper triangle: one field on the complete graph
    found = _ranked_candidates(U[0], n, key) if key is not None and math.comb(n, 3) > _TRIAD_BLOCK else None
    if found is None:
        # scored as (T, ...) arrays, on which the kernels run faster than on (1, T, ...)
        blocks = (score(*(e[0] for e in _triangle_edges(cols, U)))[None] for cols in _triad_blocks(n, _TRIAD_BLOCK))
        (value,), (t,) = _first_max(blocks, 1)
        if t < 0:
            return 0.0, None
    else:
        ranks, cols = found
        scores = score(*(e[0] for e in _triangle_edges(cols, U)))
        b = int(scores.argmax())  # the candidates are in rank order: the first maximum
        value, t = scores[b], ranks[b]
    _, end, shift, _ = _triad_ranks(n)
    i = int(end.searchsorted(t, side="right"))
    p, (J, K) = int(t + shift[i]), _pairs(n)
    return float(value), (i, int(J[p]), int(K[p]))


def _ranked_candidates(U: np.ndarray, n: int, key) -> tuple[np.ndarray, np.ndarray] | None:
    """The ranks and (T, 3) pair-rank columns, in rank order, of the triads
    whose key is within ``_KEY_TIE`` of the least key, from the upper
    triangle U of an n x n su2 matrix: every triad of maximal defect is
    among them (module docstring).  None when they outnumber one sweep
    block, as every triad of a matrix within rounding of consistent does
    in the first key block: the sweep then scores every triad."""
    low, found, count = math.inf, [], 0
    edges = np.empty((3, _KEY_BLOCK) + U.shape[1:])  # one buffer for every block's gather
    for lo, cols in _key_blocks(n):
        k = key(*(U.take(c, axis=0, out=e[: len(c)]) for c, e in zip(cols, edges)))
        low = min(low, float(k.min()))
        near = np.flatnonzero(k <= low + _KEY_TIE)
        count += len(near)
        if len(near) > _TRIAD_BLOCK:  # no lower key can drop these
            return None
        found.append((k[near], near + lo, cols[:, near]))
        if count > _TRIAD_BLOCK:  # drop the triads a lower key has left behind
            found = [_pruned(found, low)]
            count = len(found[0][1])
            if count > _TRIAD_BLOCK:
                return None
    _, ranks, cols = _pruned(found, low)
    return ranks, cols.T


def _pruned(found: list, low: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (keys, ranks, columns) of :func:`_ranked_candidates` joined, less
    the triads whose key is more than ``_KEY_TIE`` above ``low``."""
    keys, ranks, cols = (np.concatenate(parts, axis=-1) for parts in zip(*found))
    keep = keys <= low + _KEY_TIE
    return keys[keep], ranks[keep], cols[:, keep]


def _key_blocks(n: int):
    """The triads in lexicographic blocks of ``_KEY_BLOCK``: each block's
    first rank and its pair ranks (ij, ik, jk) as a (3, T) int32 array,
    each row contiguous for the gather.  Cached per n while the blocks of
    one n take at most ``_KEY_CACHE_BYTES``."""
    if 12 * math.comb(n, 3) <= _KEY_CACHE_BYTES:
        return _cached_key_blocks(n)
    return _new_key_blocks(n)


@functools.lru_cache(maxsize=8)
def _cached_key_blocks(n: int) -> tuple[tuple[int, np.ndarray], ...]:
    """:func:`_new_key_blocks`, read-only, for at most 8 sizes n of at
    most ``_KEY_CACHE_BYTES`` each: 4 MiB in all."""
    return tuple((lo, _frozen(cols)[0]) for lo, cols in _new_key_blocks(n))


def _new_key_blocks(n: int):
    """The blocks of :func:`_key_blocks`, built one at a time."""
    total = math.comb(n, 3)
    for lo in range(0, total, _KEY_BLOCK):
        yield lo, _triad_columns(n, lo, min(lo + _KEY_BLOCK, total)).T.astype(np.int32)


@dataclass(frozen=True)
class ConsistencyCheck:
    consistent: bool
    worst_triad: Triad | None
    worst_defect: float

    def __bool__(self) -> bool:
        return self.consistent


def _require_nonnegative(name: str, value: float) -> None:
    """Refuse a negative or nan option; the message names its flag too."""
    if not value >= 0.0:  # also rejects nan
        raise ValueError(f"{name} (--{name}) must be a nonnegative number, got {value!r}")


def is_consistent(A: PCMatrix, tol: float = 1e-9) -> ConsistencyCheck:
    """Test the consistency law recorded on the matrix.

    Covariant matrices must satisfy a_ij * a_jk = a_ik for every triad,
    contravariant ones a_jk * a_ij = a_ik; the defect is the group distance
    between the two sides, and the worst triad is reported as witness.  By
    bi-invariance the defect is the default indicator of the triad
    holonomy, so ``worst_defect`` and ``worst_triad`` are what
    ``ii_indicator(A)`` returns.  ``tol`` must be a nonnegative number.
    """
    _require_nonnegative("tol", tol)
    _require_gap_free(A, "consistency undefined with gaps")
    worst_defect, worst = _triad_sweep(A, _loop_scorer(A.group, A.variance, None), _loop_key(A.group, A.variance, None))
    return ConsistencyCheck(worst_defect <= tol, worst, worst_defect)


def _loop_scorer(G: Group, variance: str, indicator: Indicator | None) -> Callable[..., np.ndarray]:
    """The score of triad loops: ``score(x, y, z)`` maps carrier arrays
    (x, y, z) = (a_ij, a_ik, a_jk) to In of their holonomies, one float per
    loop.

    With the default indicator it is the defect d(xz, y) (covariant) or
    d(zx, y) (contravariant), which equals d(1, h^-1) of the holonomy h by
    bi-invariance; a supplied indicator is checked here, once, and called
    on each holonomy.
    """
    if indicator is None:
        if variance == CONTRAVARIANT:
            return lambda x, y, z: G.batch_defect(z, x, y)
        return lambda x, y, z: G.batch_defect(x, z, y)
    In = _batched_indicator(G, indicator)
    return lambda x, y, z: In(_holonomies(G, variance, x, y, z))


def _loop_key(G: Group, variance: str, indicator: Indicator | None) -> Callable[..., np.ndarray] | None:
    """A key of the triad loops that falls as :func:`_loop_scorer`'s score
    rises, for :func:`_triad_sweep` to rank them by: with the default
    indicator on su2, ``key(x, y, z)`` is <xz, y> (covariant) or <zx, y>
    (contravariant), ``UnitQuaternions.batch_defect_key``.  None otherwise."""
    if indicator is not None or not isinstance(G, UnitQuaternions):
        return None
    if variance == CONTRAVARIANT:
        return lambda x, y, z: G.batch_defect_key(z, x, y)
    return lambda x, y, z: G.batch_defect_key(x, z, y)


def _holonomies(G: Group, variance: str, x, y, z) -> np.ndarray:
    """Triad loop products over carrier arrays (x, y, z) = (a_ij, a_ik, a_jk)."""
    y_inv = G.batch_inverse(y)  # a_ki
    if variance == CONTRAVARIANT:  # a_ki (a_jk a_ij): z x first, as the defect d(zx, y) forms it
        return G.batch_multiply(y_inv, G.batch_multiply(z, x))
    return G.batch_multiply(G.batch_multiply(x, z), y_inv)


def triad_holonomy(A: PCMatrix, i: int, j: int, k: int) -> Element:
    """Loop product around the triad (i, j, k), i < j < k.

    Contravariant matrices use a_ki * a_jk * a_ij, covariant ones the
    reversed product a_ij * a_jk * a_ki; either equals the identity exactly
    when the triad satisfies its consistency law.
    """
    n, G = A.n, A.group
    i, j, k = (_require_integer(f"triad index {name}", v) for name, v in zip("ijk", (i, j, k)))
    if not 0 <= i < j < k < n:
        raise ValueError(f"triad indices must be strictly increasing in 0..{n - 1}, got ({i},{j},{k})")
    flat, P = [i * n + j, i * n + k, j * n + k], A._positions
    if not np.isin(flat, P).all():
        raise GapError(f"gap on the triangle ({i},{j},{k})")
    x, y, z = (A._carriers[[p]] for p in P.searchsorted(flat))  # the stored carriers (a_ij, a_ik, a_jk)
    return G.from_array(_holonomies(G, A.variance, x, y, z))[0]


def ii3(x: float, y: float, z: float) -> float:
    """Triad inconsistency 1 - min(y/(xz), xz/y) for positive reals.

    Zero exactly when y = x*z; always in [0, 1).  Each value is checked
    by ``RPLUS.check``.
    """
    x, y, z = map(RPLUS.check, (x, y, z))
    r = y / (x * z)
    return 1.0 - min(r, 1.0 / r)


def _require_rplus(A: PCMatrix, what: str) -> None:
    if A.group.tag != "rplus":
        raise ValueError(f"{what} is defined for positive-real matrices, not {A.group.tag}")


def ii3_matrix(A: PCMatrix) -> tuple[float, Triad | None]:
    """Worst-triad ii3 over all C(n,3) triads, with its argmax.

    Ties resolve to the lexicographically smallest triad; matrices with
    n < 3 have no triads and score 0.
    """
    _require_rplus(A, "ii3")
    _require_gap_free(A, "ii3 undefined with gaps")

    G = A.group
    # 1 - min(r, 1/r) for r = y / (xz) is 1 - exp(-|log r|), and |log r| is
    # the defect, a sum of logs that no product can push out of range
    return _triad_sweep(A, lambda x, y, z: -np.expm1(-G.batch_defect(x, z, y)))


def ii_n_chain(A: PCMatrix) -> float:
    """Chain inconsistency: worst mismatch between a_ij and the product of
    consecutive entries a_i,i+1 * ... * a_j-1,j, as 1 - min(r, 1/r).

    In logs the product is a difference S_j - S_i of prefix sums of
    log a_k,k+1, so the worst |log r| is one array expression and no
    product leaves the float range."""
    _require_rplus(A, "chain inconsistency")
    _require_gap_free(A, "chain inconsistency undefined with gaps")
    S = np.concatenate(([0.0], np.cumsum(np.log(np.diagonal(_entry_array(A), 1)))))
    I, J = _pairs(A.n)
    return float(-np.expm1(-np.max(np.abs(np.log(_upper(A)) - (S[J] - S[I])))))


def default_indicator(group: Group) -> Indicator:
    """The metric indicator map g -> d(1, g^-1); zero exactly at the identity."""

    def indicator(g: Element) -> float:
        return group.distance(group.identity, group.inverse(g))

    return indicator


def ii_indicator(A: PCMatrix, indicator: Indicator | None = None) -> tuple[float, Triad | None]:
    """Supremum of In(triad holonomy) over all triads, with its argmax.

    With the default metric indicator this is the group-valued
    generalization of ii3: on positive-real matrices the two are linked by
    ii3 = 1 - exp(-ii_In) triad by triad.  By bi-invariance the default
    In(h) = d(1, h^-1) is the triad defect d(xz, y) (covariant) or d(zx, y)
    (contravariant), so it equals ``is_consistent(A).worst_defect`` and is
    scored on whole blocks; a supplied indicator sees each holonomy.
    """
    _require_gap_free(A, "indicator undefined with gaps; score the field with simplicial.global_ii")
    return _triad_sweep(A, _loop_scorer(A.group, A.variance, indicator), _loop_key(A.group, A.variance, indicator))


def _batched_indicator(group: Group, indicator: Indicator | None) -> Callable[[np.ndarray], np.ndarray]:
    """The indicator as a map from a carrier array to one float per
    element: checked once, then called on each element.  None is
    :func:`default_indicator`, the holonomy form d(1, g^-1) that
    :func:`_loop_scorer` computes as a defect on whole arrays instead.
    A nan value raises ``ValueError`` naming the first element that gave
    it, so a sweep stops at its first nan loop, whatever block it is in.
    """
    ind = default_indicator(group) if indicator is None else indicator
    if not abs(ind(group.identity)) <= ALGEBRA_TOL:  # also refuses nan
        raise ValueError("not an indicator map: In(identity) != 0")
    tail = group.to_array([group.identity]).shape[1:]  # the carrier's own axes

    def apply(g):
        lead = g.shape[: g.ndim - len(tail)]
        elements = group.from_array(g.reshape((-1,) + tail))
        vals = np.array([float(ind(h)) for h in elements], dtype=float)
        bad = np.flatnonzero(np.isnan(vals))
        if len(bad):
            g0 = elements[bad[0]]
            raise ValueError(f"not an indicator map: In({g0!r}) is nan; In must map every element to a number")
        return vals.reshape(lead)

    return apply


def from_gauge_vector(group: Group, lam: Sequence[Element]) -> PCMatrix:
    """The covariant-consistent matrix a_ij = lam_i^-1 * lam_j.

    Invariant under a global left translation of ``lam``.
    """
    lam = group.batch_check(lam)
    if len(lam) < 2:
        raise ValueError("gauge vector needs at least 2 components")
    return _from_pairs(group, len(lam), *_pairs(len(lam)), _gauge_upper(group, lam), COVARIANT)


def _gauge_upper(group: Group, lam: np.ndarray) -> np.ndarray:
    """lam_i^-1 * lam_j over the pairs i < j, row-major, from a carrier
    array of checked gauge components."""
    I, J = _pairs(len(lam))
    return group.batch_multiply(group.batch_inverse(lam)[I], lam[J])


def normalize_gauge(group: Group, lam: Sequence[Element]) -> tuple[Element, ...]:
    """Left-translate so the first component is the identity."""
    lam = group.batch_check(lam)
    if len(lam) == 0:
        raise ValueError("normalize_gauge needs at least one gauge component, got none")
    shift = group.batch_inverse(lam[0])
    return (group.identity,) + tuple(group.from_array(group.batch_multiply(shift, lam[1:])))


def gauge_extract(A: PCMatrix, tol: float = 1e-9) -> tuple[Element, ...]:
    """Recover the normalized gauge vector of a covariant-consistent matrix.

    Returns lam with lam_0 = identity and lam_j = a_0j, so that
    ``from_gauge_vector`` reproduces the matrix within ``tol``.
    """
    if A.variance != COVARIANT:
        raise ValueError("gauge extraction expects a covariant matrix; dualize first")
    _require_gap_free(A, "gauge extraction undefined with gaps")
    chk = is_consistent(A, tol)
    if not chk:
        raise InconsistentMatrixError(
            f"no gauge vector exists: worst triad {chk.worst_triad} has defect {chk.worst_defect:.3g}",
            witness=chk.worst_triad,
        )
    return (A.group.identity, *A.group.from_array(A._carriers[1 : A.n]))  # row 0 of the stored carriers


def gauge_transform(A: PCMatrix, mu: Sequence[Element]) -> PCMatrix:
    """Vertex gauge action on a PC matrix.

    Contravariant matrices transform as a_ij -> mu_j * a_ij * mu_i^-1 and
    covariant ones by the dual action a_ij -> mu_i^-1 * a_ij * mu_j; each
    conjugates the matching triad holonomy, so indicator values built from
    a bi-invariant distance are unchanged.  The action
    (:func:`_gauge_action`, shared with ``simplicial.gauge_transform_field``)
    moves the stored carriers of the present pairs i < j, and the matrix is
    rebuilt from them by :func:`_from_pairs`, so gaps are preserved.
    """
    G = A.group
    mu = G.batch_check(mu)
    if len(mu) != A.n:
        raise ValueError(f"gauge length {len(mu)} does not match matrix size {A.n}")
    I, J = np.divmod(A._positions, A.n)
    up = I < J  # the present pairs i < j and their stored carriers
    I, J, X = I[up], J[up], A._carriers[up]
    return _from_pairs(G, A.n, I, J, _gauge_action(G, A.variance, mu, X, I, J), A.variance)


def _gauge_action(G: Group, variance: str, mu: np.ndarray, X: np.ndarray, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The vertex gauge action on the carriers X at the pairs (I, J), from a
    checked gauge carrier array ``mu``: (mu_j x) mu_i^-1 for contravariant
    carriers, such as a field's, and (mu_i^-1 x) mu_j for covariant ones."""
    inv = G.batch_inverse(mu)
    if variance == CONTRAVARIANT:
        return G.batch_multiply(G.batch_multiply(mu[J], X), inv[I])
    return G.batch_multiply(G.batch_multiply(inv[I], X), mu[J])


def random_pc_matrix(group: Group, n: int, rng, variance: str = COVARIANT) -> PCMatrix:
    """Upper-triangle entries i.i.d. Haar, reciprocity below, identity diagonal.

    ``rng`` is an integer seed or a ``numpy.random.Generator``; entries are
    drawn in row-major upper-triangle order, so results are reproducible.
    """
    if not group.compact:
        raise NonCompactGroupError(f"{group.tag}: no normalized Haar measure")
    n = _require_integer("matrix size n", n)
    if n < 2:
        raise ValueError(f"random matrix needs n >= 2, got {n}")
    upper = group.batch_haar_sample(as_generator(rng), (n * (n - 1) // 2,))
    return _from_pairs(group, n, *_pairs(n), upper, variance)
