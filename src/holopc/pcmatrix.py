"""Pairwise-comparison matrices over a group.

A PC matrix is an n x n grid of group elements with identity diagonal and
the reciprocity law a[j][i] = a[i][j]^-1.  Entries may be absent ("gaps")
when the matrix is assembled from an incomplete comparison graph; the gap
pattern is symmetric and the diagonal is never gapped.

The module provides validation, the two consistency notions (covariant
a_ij * a_jk = a_ik and contravariant a_jk * a_ij = a_ik), triad holonomy,
the classical triad indicator ii3 with its chain variant, the group-valued
indicator built from an indicator map, and the gauge-vector factorization
a_ij = lam_i^-1 * lam_j of consistent matrices together with its converse.

``is_consistent``, ``ii_indicator`` and ``ii3_matrix`` are one array sweep
over the C(n,3) triads i < j < k.  The sweep walks the triads in
lexicographic order in consecutive blocks of ``_TRIAD_BLOCK`` triads, which
bounds its temporaries, gathers (a_ij, a_ik, a_jk) for a whole block as
carrier arrays and scores them with the group's batched kernels.  The
reported triad is the lexicographically first one that attains the
maximum: ``argmax`` picks the first maximum inside a block, and a later
block replaces the best only when it scores strictly higher.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GapError, InconsistentMatrixError, NonCompactGroupError
from .groups import Element, Group, as_generator

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"

ALGEBRA_TOL = 1e-12  # tolerance for algebraic identities on float carriers

_TRIAD_BLOCK = 2048  # triads scored per step of the sweep

Triad = tuple[int, int, int]
Indicator = Callable[[Element], float]


class PCMatrix:
    """Immutable n x n grid of optional group elements.

    ``entries`` is any nested sequence; ``None`` marks a gap.  Carrier
    values are canonicalized through the group on construction, once: the
    triad sweeps work on a carrier array of the checked entries and never
    check them again.
    """

    __slots__ = ("group", "n", "variance", "entries", "_array")

    def __init__(self, group: Group, entries, variance: str = COVARIANT):
        self._set(group, [[None if e is None else group.check(e) for e in row] for row in entries], variance)

    @classmethod
    def _of_checked(cls, group: Group, rows, variance: str) -> PCMatrix:
        """Wrap a grid of elements that already passed ``group.check``."""
        A = cls.__new__(cls)
        A._set(group, rows, variance)
        return A

    def _set(self, group, rows, variance) -> None:
        if variance not in (COVARIANT, CONTRAVARIANT):
            raise ValueError(f"variance must be covariant or contravariant, got {variance!r}")
        grid = tuple(tuple(r) for r in rows)
        if len(grid) < 2 or any(len(r) != len(grid) for r in grid):
            raise ValueError("entries must form a square grid with n >= 2")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "n", len(grid))
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "_array", None)

    def __setattr__(self, name, value):
        raise AttributeError("PCMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the canonical carriers, unchecked
        return (type(self)._of_checked, (self.group, self.entries, self.variance))

    def entry(self, i: int, j: int) -> Element | None:
        return self.entries[i][j]

    @property
    def gap_free(self) -> bool:
        return all(e is not None for row in self.entries for e in row)

    def gaps(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if self.entries[i][j] is None
        ]

    def triads(self):
        """All index triples i < j < k."""
        return itertools.combinations(range(self.n), 3)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PCMatrix)
            and other.group == self.group
            and other.variance == self.variance
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.group, self.variance, self.entries))

    def __repr__(self) -> str:
        gaps = sum(1 for row in self.entries for e in row if e is None)
        extra = f", gaps={gaps}" if gaps else ""
        return f"PCMatrix({self.group.tag}, n={self.n}, {self.variance}{extra})"


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, read-only: the pairs i < j, row-major."""
    I, J = np.triu_indices(n, 1)
    I.flags.writeable = J.flags.writeable = False
    return I, J


def _entry_array(A: PCMatrix) -> np.ndarray:
    """The entries as one read-only carrier array of shape (n, n, ...),
    gaps filled with the identity; built once per matrix."""
    if A._array is None:
        e = A.group.identity
        M = A.group.to_array([e if v is None else v for row in A.entries for v in row])
        M = M.reshape((A.n, A.n) + M.shape[1:])
        M.flags.writeable = False
        object.__setattr__(A, "_array", M)
    return A._array


def identity_matrix(group: Group, n: int, variance: str = COVARIANT) -> PCMatrix:
    e = group.identity
    return PCMatrix(group, [[e] * n for _ in range(n)], variance)


def from_upper_triangle(group: Group, values: Sequence[Element], variance: str = COVARIANT) -> PCMatrix:
    """Build a matrix from its strict upper triangle, row-major.

    ``values`` has length n(n-1)/2; the diagonal is set to the identity and
    the lower triangle to the inverses.
    """
    m = len(values)
    n = round((1 + (1 + 8 * m) ** 0.5) / 2)
    if n < 2 or n * (n - 1) // 2 != m:
        raise ValueError(f"{m} values do not fill a strict upper triangle with n >= 2")
    upper = group.batch_check(values)
    return _from_upper_array(group, n, upper, variance)


def _from_upper_array(
    group: Group, n: int, upper: np.ndarray, variance: str, gaps: Sequence[tuple[int, int]] = ()
) -> PCMatrix:
    """The matrix whose strict upper triangle, row-major, is the carrier
    array ``upper``: identity diagonal, inverses below, nothing re-checked.
    Each pair (i, j), i < j, in ``gaps`` is absent in both orientations."""
    grid = [[group.identity] * n for _ in range(n)]
    pairs = zip(*(idx.tolist() for idx in _pairs(n)))
    for (i, j), a, b in zip(pairs, group.from_array(upper), group.from_array(group.batch_inverse(upper))):
        grid[i][j] = a
        grid[j][i] = b
    for i, j in gaps:
        grid[i][j] = grid[j][i] = None
    return PCMatrix._of_checked(group, grid, variance)


def validate(A: PCMatrix) -> list[tuple[int, int, str]]:
    """Check the PC matrix axioms.

    Returns an empty list when the matrix is valid; otherwise one
    ``(i, j, axiom)`` tuple per violation, with axiom one of "diagonal",
    "reciprocity", "gap symmetry".
    """
    G = A.group
    M = _entry_array(A)
    gap = np.array([[v is None for v in row] for row in A.entries])
    d = np.arange(A.n)
    bad_diag = gap[d, d] | (G.batch_distance(M[d, d], G.to_array([G.identity])) > ALGEBRA_TOL)
    out = [(i, i, "diagonal") for i in np.flatnonzero(bad_diag).tolist()]
    # one pass over the upper triangle, row-major
    I, J = _pairs(A.n)
    asymmetric = gap[I, J] != gap[J, I]
    unreciprocal = ~(gap[I, J] | gap[J, I]) & (G.batch_distance(M[J, I], G.batch_inverse(M[I, J])) > ALGEBRA_TOL)
    for p in np.flatnonzero(asymmetric | unreciprocal).tolist():
        i, j = int(I[p]), int(J[p])
        out.append((i, j, "gap symmetry") if asymmetric[p] else (j, i, "reciprocity"))
    return out


def dualize(A: PCMatrix) -> PCMatrix:
    """Transpose the matrix (b_ij = a_ji) and flip its variance.

    An involution; maps covariant-consistent matrices to
    contravariant-consistent ones and back.
    """
    flipped = CONTRAVARIANT if A.variance == COVARIANT else COVARIANT
    return PCMatrix._of_checked(A.group, zip(*A.entries), flipped)


def _require_gap_free(A: PCMatrix, message: str) -> None:
    if not A.gap_free:
        raise GapError(message)


def triad_entries(A: PCMatrix, i: int, j: int, k: int) -> tuple[Element, Element, Element]:
    """The upper-triangle triad (x, y, z) = (a_ij, a_ik, a_jk)."""
    x, y, z = A.entry(i, j), A.entry(i, k), A.entry(j, k)
    if x is None or y is None or z is None:
        raise GapError(f"gap on the triangle ({i},{j},{k})")
    return x, y, z


@functools.lru_cache(maxsize=64)
def _triad_ranks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per first index i: the rank just past its last triad, and the shift
    from the rank of a triad (i, j, k) to the rank of the pair (j, k)."""
    first = np.arange(n)
    count = (n - 1 - first) * (n - 2 - first) // 2  # triads with first index i
    end = np.cumsum(count)
    # the pairs (j, k) with j > i are the suffix of the pair list after the
    # (i + 1)(n - 1) - i(i + 1)/2 pairs with j <= i
    shift = (first + 1) * (n - 1) - first * (first + 1) // 2 - (end - count)
    end.flags.writeable = shift.flags.writeable = False
    return end, shift


def _triad_blocks(n: int):
    """Index arrays (i, j, k) of the triads i < j < k in lexicographic
    order, in consecutive blocks of at most ``_TRIAD_BLOCK`` triads."""
    J, K = _pairs(n)
    end, shift = _triad_ranks(n)
    total = math.comb(n, 3)
    for lo in range(0, total, _TRIAD_BLOCK):
        t = np.arange(lo, min(lo + _TRIAD_BLOCK, total))
        i = np.searchsorted(end, t, side="right")
        p = t + shift[i]
        yield i, J[p], K[p]


def _triad_sweep(A: PCMatrix, score) -> tuple[float, Triad | None]:
    """The lexicographically first triad of maximal score, with its score.

    ``score(x, y, z)`` maps the carrier arrays of a block's entries
    (a_ij, a_ik, a_jk) to one float per triad.  Matrices with n < 3 have no
    triads and give (0.0, None).
    """
    M = _entry_array(A)
    best_val, best_triad = 0.0, None
    for i, j, k in _triad_blocks(A.n):
        v = score(M[i, j], M[i, k], M[j, k])
        b = int(np.argmax(v))
        if best_triad is None or v[b] > best_val:
            best_val, best_triad = float(v[b]), (int(i[b]), int(j[b]), int(k[b]))
    return best_val, best_triad


@dataclass(frozen=True)
class ConsistencyCheck:
    consistent: bool
    worst_triad: Triad | None
    worst_defect: float

    def __bool__(self) -> bool:
        return self.consistent


def is_consistent(A: PCMatrix, tol: float = 1e-9) -> ConsistencyCheck:
    """Test the consistency law recorded on the matrix.

    Covariant matrices must satisfy a_ij * a_jk = a_ik for every triad,
    contravariant ones a_jk * a_ij = a_ik; the defect is the group distance
    between the two sides, and the worst triad is reported as witness.
    """
    _require_gap_free(A, "consistency undefined with gaps")
    G = A.group
    if A.variance == COVARIANT:
        worst_defect, worst = _triad_sweep(A, lambda x, y, z: G.batch_distance(G.batch_multiply(x, z), y))
    else:
        worst_defect, worst = _triad_sweep(A, lambda x, y, z: G.batch_distance(G.batch_multiply(z, x), y))
    return ConsistencyCheck(worst_defect <= tol, worst, worst_defect)


def _holonomies(G: Group, variance: str, x, y, z) -> np.ndarray:
    """Triad loop products over carrier arrays (x, y, z) = (a_ij, a_ik, a_jk)."""
    y_inv = G.batch_inverse(y)  # a_ki
    if variance == CONTRAVARIANT:
        return G.batch_multiply(G.batch_multiply(y_inv, z), x)
    return G.batch_multiply(G.batch_multiply(x, z), y_inv)


def triad_holonomy(A: PCMatrix, i: int, j: int, k: int) -> Element:
    """Loop product around the triad (i, j, k), i < j < k.

    Contravariant matrices use a_ki * a_jk * a_ij, covariant ones the
    reversed product a_ij * a_jk * a_ki; either equals the identity exactly
    when the triad satisfies its consistency law.
    """
    if not i < j < k:
        raise ValueError(f"triad indices must be strictly increasing, got ({i},{j},{k})")
    G = A.group
    x, y, z = (G.to_array([e]) for e in triad_entries(A, i, j, k))
    return G.from_array(_holonomies(G, A.variance, x, y, z))[0]


def ii3(x: float, y: float, z: float) -> float:
    """Triad inconsistency 1 - min(y/(xz), xz/y) for positive reals.

    Zero exactly when y = x*z; always in [0, 1).
    """
    if min(x, y, z) <= 0:
        raise ValueError("triad values must be positive")
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

    def score(x, y, z):
        r = y / (x * z)  # the formula of ii3, on whole blocks
        return 1.0 - np.minimum(r, 1.0 / r)

    return _triad_sweep(A, score)


def ii_n_chain(A: PCMatrix) -> float:
    """Chain inconsistency: worst mismatch between a_ij and the product of
    consecutive entries a_i,i+1 * ... * a_j-1,j, as 1 - min(r, 1/r)."""
    _require_rplus(A, "chain inconsistency")
    _require_gap_free(A, "chain inconsistency undefined with gaps")
    worst = 1.0
    for i in range(A.n):
        prod = 1.0
        for j in range(i + 1, A.n):
            prod *= A.entry(j - 1, j)
            r = A.entry(i, j) / prod
            worst = min(worst, r, 1.0 / r)
    return 1.0 - worst


def default_indicator(group: Group) -> Indicator:
    """The metric indicator map g -> d(1, g^-1); zero exactly at the identity."""

    def indicator(g: Element) -> float:
        return group.distance(group.identity, group.inverse(g))

    return indicator


def _checked_indicator(group: Group, indicator: Indicator | None) -> Indicator:
    if indicator is None:
        return default_indicator(group)
    if abs(indicator(group.identity)) > ALGEBRA_TOL:
        raise ValueError("not an indicator map: In(identity) != 0")
    return indicator


def ii_indicator(A: PCMatrix, indicator: Indicator | None = None) -> tuple[float, Triad | None]:
    """Supremum of In(triad holonomy) over all triads, with its argmax.

    With the default metric indicator this is the group-valued
    generalization of ii3: on positive-real matrices the two are linked by
    ii3 = 1 - exp(-ii_In) triad by triad.  The default indicator is applied
    to whole blocks of holonomies; a supplied one, to each holonomy.
    """
    _require_gap_free(A, "indicator undefined with gaps; score the field with simplicial.global_ii")
    G = A.group
    In = _batched_indicator(G, indicator)
    return _triad_sweep(A, lambda x, y, z: In(_holonomies(G, A.variance, x, y, z)))


def _batched_indicator(group: Group, indicator: Indicator | None) -> Callable[[np.ndarray], np.ndarray]:
    """The indicator as a map from a carrier array to one float per element.

    None is the default d(1, g^-1) on whole arrays; a supplied indicator is
    checked once and called on each element.
    """
    e = group.to_array([group.identity])
    if indicator is None:
        return lambda g: group.batch_distance(e, group.batch_inverse(g))
    ind = _checked_indicator(group, indicator)
    tail = e.shape[1:]  # the carrier's own axes

    def apply(g):
        lead = g.shape[: g.ndim - len(tail)]
        vals = [float(ind(h)) for h in group.from_array(g.reshape((-1,) + tail))]
        return np.array(vals, dtype=float).reshape(lead)

    return apply


def from_gauge_vector(group: Group, lam: Sequence[Element]) -> PCMatrix:
    """The covariant-consistent matrix a_ij = lam_i^-1 * lam_j.

    Invariant under a global left translation of ``lam``.
    """
    lam = [group.check(v) for v in lam]
    if len(lam) < 2:
        raise ValueError("gauge vector needs at least 2 components")
    return _gauge_matrix(group, group.to_array(lam), COVARIANT)


def _gauge_upper(group: Group, lam: np.ndarray) -> np.ndarray:
    """lam_i^-1 * lam_j over the pairs i < j, row-major, from a carrier
    array of checked gauge components."""
    I, J = _pairs(len(lam))
    return group.batch_multiply(group.batch_inverse(lam)[I], lam[J])


def _gauge_matrix(group: Group, lam: np.ndarray, variance: str) -> PCMatrix:
    """The consistent matrix a_ij = lam_i^-1 * lam_j of a carrier array."""
    return _from_upper_array(group, len(lam), _gauge_upper(group, lam), variance)


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
    return (A.group.identity,) + tuple(A.entry(0, j) for j in range(1, A.n))


def gauge_transform(A: PCMatrix, mu: Sequence[Element]) -> PCMatrix:
    """Vertex gauge action on a PC matrix.

    Contravariant matrices transform as a_ij -> mu_j * a_ij * mu_i^-1 and
    covariant ones by the dual action a_ij -> mu_i^-1 * a_ij * mu_j; each
    conjugates the matching triad holonomy, so indicator values built from
    a bi-invariant distance are unchanged.  Gaps are preserved.
    """
    G = A.group
    mu = G.batch_check(mu)
    if len(mu) != A.n:
        raise ValueError(f"gauge length {len(mu)} does not match matrix size {A.n}")
    I, J = _pairs(A.n)
    a = _entry_array(A)[I, J]  # gaps read as the identity and are put back below
    inv = G.batch_inverse(mu)
    if A.variance == CONTRAVARIANT:
        upper = G.batch_multiply(G.batch_multiply(mu[J], a), inv[I])
    else:
        upper = G.batch_multiply(G.batch_multiply(inv[I], a), mu[J])
    gaps = [(i, j) for i, j in A.gaps() if i < j]
    return _from_upper_array(G, A.n, upper, A.variance, gaps)


def random_pc_matrix(group: Group, n: int, rng, variance: str = COVARIANT) -> PCMatrix:
    """Upper-triangle entries i.i.d. Haar, reciprocity below, identity diagonal.

    ``rng`` is an integer seed or a ``numpy.random.Generator``; entries are
    drawn in row-major upper-triangle order, so results are reproducible.
    """
    if not group.compact:
        raise NonCompactGroupError(f"{group.tag}: no normalized Haar measure")
    if n < 2:
        raise ValueError(f"random matrix needs n >= 2, got {n}")
    upper = group.batch_haar_sample(as_generator(rng), (n * (n - 1) // 2,))
    return _from_upper_array(group, n, upper, variance)
