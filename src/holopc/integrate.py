"""Monte Carlo expectations under the product Haar measure.

Edge fields are sampled with one independent Haar draw per canonical edge,
and random comparison matrices with one draw per upper-triangle entry.
Sampling is plain i.i.d. -- the product measure is directly samplable, so
no Markov chain is involved.

Samples come in blocks of ``_MC_BLOCK``: block b covers samples
[_MC_BLOCK * b, _MC_BLOCK * (b + 1)) and draws them from its own generator
``block_rng(seed, b)``, counter-style as in Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11).  A block draws one carrier array of
shape (B, E) over the edges ``K.edges`` of a complex, or (B, n(n-1)/2) over
the strict upper triangle of an n x n matrix, row-major, and the observable
is scored on the whole array with the group's batched kernels.  Every
estimate is therefore a deterministic function of (seed, N) alone, and the
sample values at N are the first N sample values at any larger N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonCompactGroupError
from .groups import Group, as_generator
from .pcmatrix import COVARIANT, Indicator, _batched_indicator, _holonomies, _pairs
from .simplicial import EdgeField, SimplicialComplex2, _array_field, _path_product, _path_steps, _plaquettes

_MC_BLOCK = 1024  # samples per generator; part of what (seed, N) reproduces
_TRIAD_STEP = 256  # triads scored at once per block of random matrices

OBSERVABLE_TAGS = (
    "mean_curvature_In",
    "sup_curvature_In",
    "wilson_character",
    "ii3_of_random_matrix",
)


@dataclass(frozen=True)
class Observable:
    """What to evaluate on each sample.

    ``loop`` names the vertex loop of a wilson_character (default: the
    boundary of the first triangle); ``n`` is the matrix size for
    ii3_of_random_matrix.
    """

    tag: str
    loop: tuple[int, ...] | None = None
    n: int | None = None

    def __post_init__(self):
        if self.tag not in OBSERVABLE_TAGS:
            raise ValueError(f"unknown observable {self.tag!r}; expected one of {OBSERVABLE_TAGS}")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int
    observable: str

    def to_obj(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
            "observable": self.observable,
        }


@dataclass(frozen=True)
class Histogram:
    counts: tuple[int, ...]
    edges: tuple[float, ...]

    def to_obj(self) -> dict:
        return {"counts": list(self.counts), "edges": list(self.edges)}


def block_rng(seed: int, b: int) -> np.random.Generator:
    """Generator of block b of a run; counter-style derivation from (seed, b)."""
    return np.random.default_rng([seed, b])


sample_rng = block_rng  # older name; callers and perfbench's tracer still use it


def sample_field(K: SimplicialComplex2, group: Group, rng) -> EdgeField:
    """One product-Haar draw: i.i.d. elements on the canonical edges.

    On ``block_rng(seed, b)`` this is the first sample of block b.
    """
    if not group.compact:
        raise NonCompactGroupError(f"{group.tag}: no normalized Haar measure")
    return _array_field(K, group, group.batch_haar_sample(as_generator(rng), (len(K.edges),)))


def _character(group: Group) -> Callable[[np.ndarray], np.ndarray]:
    """Real character of the defining representation, on carrier arrays."""
    if group.tag == "u1":
        return np.cos
    if group.tag == "su2":
        return lambda g: 2.0 * g[..., 0]
    if group.tag.startswith("zmod"):
        m = group.m
        return lambda g: np.cos(2.0 * np.pi * g / m)
    raise ValueError(f"no compact character for {group.tag}")


def _make_scorer(
    K: SimplicialComplex2 | None,
    group: Group,
    obs: Observable,
    indicator: Indicator | None,
) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    """Bind an observable to ``(width, score)``: each sample is ``width``
    Haar elements, and ``score`` maps a block's (B, width) carrier array to
    the B sample values."""
    if obs.tag == "ii3_of_random_matrix":
        if obs.n is None or obs.n < 2:
            raise ValueError("ii3_of_random_matrix needs a matrix size n >= 2")
        return obs.n * (obs.n - 1) // 2, _matrix_scorer(group, obs.n, _batched_indicator(group, indicator))

    if K is None:
        raise ValueError(f"observable {obs.tag} needs a complex to sample fields on")
    width = len(K.edges)

    if obs.tag == "wilson_character":
        loop = obs.loop
        if loop is None:
            if not K.triangles:
                raise ValueError("wilson_character on a complex without triangles needs an explicit loop")
            i, j, k = K.triangles[0]
            loop = (i, j, k, i)
        loop = tuple(int(v) for v in loop)
        if len(loop) < 2 or loop[0] != loop[-1]:
            raise ValueError(f"wilson loop must close up, got {loop}")
        cols, against = _path_steps(K, loop)
        chi = _character(group)
        return width, lambda X: chi(_path_product(group, X[:, cols], against))

    if not K.triangles:
        raise ValueError(f"observable {obs.tag} needs at least one triangle")
    In = _batched_indicator(group, indicator)

    def curvatures(X):  # In of the plaquettes, shape (B, T)
        return In(_plaquettes(K, group, X))

    if obs.tag == "mean_curvature_In":
        return width, lambda X: curvatures(X).mean(axis=1)
    return width, lambda X: curvatures(X).max(axis=1)


def _matrix_scorer(group: Group, n: int, In) -> Callable[[np.ndarray], np.ndarray]:
    """Worst In(triad holonomy) of covariant matrices given by their strict
    upper triangles, row-major: the value ``ii_indicator`` gives each matrix."""
    I, J = _pairs(n)
    rank = np.zeros((n, n), dtype=np.intp)
    rank[I, J] = np.arange(len(I))
    tri = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
    ij, ik, jk = rank[tri[:, 0], tri[:, 1]], rank[tri[:, 0], tri[:, 2]], rank[tri[:, 1], tri[:, 2]]

    def score(U):
        if not len(tri):
            return np.zeros(len(U))  # no triads, as in ii_indicator
        worst = np.full(len(U), -np.inf)
        for lo in range(0, len(tri), _TRIAD_STEP):
            t = slice(lo, lo + _TRIAD_STEP)
            hol = _holonomies(group, COVARIANT, U[:, ij[t]], U[:, ik[t]], U[:, jk[t]])
            np.maximum(worst, In(hol).max(axis=1), out=worst)
        return worst

    return score


def _sample_values(
    K: SimplicialComplex2 | None,
    group: Group,
    obs: Observable,
    N: int,
    seed: int,
    indicator: Indicator | None,
) -> np.ndarray:
    """Values of samples 0..N-1, block by block on ``block_rng(seed, b)``."""
    if N < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if not group.compact:
        raise NonCompactGroupError(f"{group.tag}: no normalized Haar measure")
    width, score = _make_scorer(K, group, obs, indicator)
    vals = np.empty(N)
    for b, lo in enumerate(range(0, N, _MC_BLOCK)):
        hi = min(lo + _MC_BLOCK, N)
        vals[lo:hi] = score(group.batch_haar_sample(block_rng(seed, b), (hi - lo, width)))
    return vals


def _estimate(vals: np.ndarray, seed: int, tag: str) -> MCEstimate:
    n = len(vals)
    return MCEstimate(
        mean=float(np.mean(vals)),
        std_error=float(np.std(vals, ddof=1) / np.sqrt(n)),
        samples=n,
        seed=seed,
        observable=tag,
    )


def expectation(
    K: SimplicialComplex2 | None,
    group: Group,
    obs: Observable,
    N: int,
    seed: int = 0,
    indicator: Indicator | None = None,
) -> MCEstimate:
    """Plain Monte Carlo mean and standard error of an observable.

    Samples are drawn and scored a block at a time (see the module notes),
    so results are bit-identical for fixed (seed, N); the standard error
    uses the unbiased variance estimator, so N >= 2.
    """
    return _estimate(_sample_values(K, group, obs, N, seed, indicator), seed, obs.tag)


def ii_distribution(
    group: Group,
    n: int,
    N: int,
    seed: int = 0,
    indicator: Indicator | None = None,
    bins: int = 64,
) -> tuple[Histogram, MCEstimate]:
    """Empirical law of the indicator over Haar-random n x n matrices.

    Returns a fixed-bin histogram over the observed range together with the
    Monte Carlo estimate of the mean.  The histogram needs all N values,
    so memory grows as 8 N bytes.
    """
    vals = _sample_values(None, group, Observable("ii3_of_random_matrix", n=n), N, seed, indicator)
    counts, edges = np.histogram(vals, bins=bins)
    hist = Histogram(tuple(int(c) for c in counts), tuple(float(e) for e in edges))
    return hist, _estimate(vals, seed, "ii3_of_random_matrix")
