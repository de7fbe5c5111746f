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
the pairs i < j of an n x n matrix, row-major: a field on the complete
graph, whose triangles are the triads.  The observable is scored on the
whole array through ``pcmatrix``'s triangle loops.  Every estimate is
therefore a deterministic function of (seed, N) alone, and the sample
values at N are the first N sample values at any larger N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonCompactGroupError
from .groups import Group, _as_integer, _require_integer, as_generator
from .pcmatrix import CONTRAVARIANT, COVARIANT, Indicator, _first_max, _loop_scorer, _triad_blocks, _triangle_edges
from .simplicial import EdgeField, SimplicialComplex2, _array_field, _path_product, _path_steps

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
    return _array_field(K, group, group.batch_haar_sample(as_generator(rng), (len(K._edge_array),)))


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
        n = None if obs.n is None else _require_integer("matrix size n (--random-pc)", obs.n)
        if n is None or n < 2:
            raise ValueError(f"matrix size n (--random-pc) must be at least 2, got {obs.n!r}")
        score = _loop_scorer(group, COVARIANT, indicator)
        return n * (n - 1) // 2, lambda U: _first_max(
            (score(*_triangle_edges(cols, U)) for cols in _triad_blocks(n, _TRIAD_STEP)), len(U)
        )[0]

    if K is None:
        raise ValueError(f"observable {obs.tag} needs a complex to sample fields on")
    width = len(K._edge_array)

    if obs.tag == "wilson_character":
        loop = obs.loop
        if loop is None:
            if not len(K._tri_array):
                raise ValueError("wilson_character on a complex without triangles needs an explicit loop")
            i, j, k = K._tri_array[0].tolist()
            loop = (i, j, k, i)
        loop = tuple(_require_integer("wilson loop (--loop): vertex", v) for v in loop)
        if len(loop) < 2 or loop[0] != loop[-1]:
            raise ValueError(f"wilson loop (--loop) must close up, got {loop}")
        try:
            cols, against = _path_steps(K, loop)
        except ValueError as exc:
            raise ValueError(f"wilson loop (--loop): {exc}") from None
        chi = _character(group)
        return width, lambda X: chi(_path_product(group, X[:, cols], against))

    if not len(K._tri_array):
        raise ValueError(f"observable {obs.tag} needs at least one triangle")
    score = _loop_scorer(group, CONTRAVARIANT, indicator)

    def curvatures(X):  # In of the plaquettes, shape (B, T)
        return score(*_triangle_edges(K._tri_cols, X))

    if obs.tag == "mean_curvature_In":
        return width, lambda X: curvatures(X).mean(axis=1)
    return width, lambda X: _first_max((curvatures(X),), len(X))[0]


def _seed(seed) -> int:
    """``seed`` as an int by the rule of :func:`holopc.groups._as_integer`,
    at least 0."""
    k = _as_integer(seed)
    if k is None or k < 0:
        raise ValueError(f"seed (--seed) must be a nonnegative integer, got {seed!r}")
    return k


def _sample_values(
    K: SimplicialComplex2 | None,
    group: Group,
    obs: Observable,
    N: int,
    seed: int,
    indicator: Indicator | None,
) -> np.ndarray:
    """Values of samples 0..N-1, block by block on ``block_rng(seed, b)``,
    for a seed that :func:`_seed` has read."""
    N = _require_integer("sample count N (-N/--samples)", N)
    if N < 2:
        raise ValueError(f"sample count N (-N/--samples) must be at least 2 for a standard error, got {N!r}")
    if not group.compact:
        raise NonCompactGroupError(f"{group.tag}: no normalized Haar measure")
    width, score = _make_scorer(K, group, obs, indicator)
    vals = np.empty(N)
    for b, lo in enumerate(range(0, N, _MC_BLOCK)):
        hi = min(lo + _MC_BLOCK, N)
        vals[lo:hi] = score(group.batch_haar_sample(block_rng(seed, b), (hi - lo, width)))
    return vals


def _estimate(vals: np.ndarray, seed: int, tag: str) -> MCEstimate:
    """Mean and standard error of the sample values, bit for bit
    ``np.mean(vals)`` and ``np.std(vals, ddof=1) / np.sqrt(n)``: the same
    sums and divisions, without the wrappers around them."""
    n = len(vals)
    mean = vals.sum() / n
    dev = vals - mean
    np.multiply(dev, dev, out=dev)
    return MCEstimate(
        mean=float(mean),
        std_error=math.sqrt(dev.sum() / (n - 1)) / math.sqrt(n),
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
    seed = _seed(seed)
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
    seed = _seed(seed)
    vals = _sample_values(None, group, Observable("ii3_of_random_matrix", n=n), N, seed, indicator)
    counts, edges = np.histogram(vals, bins=bins)
    hist = Histogram(tuple(int(c) for c in counts), tuple(float(e) for e in edges))
    return hist, _estimate(vals, seed, "ii3_of_random_matrix")
