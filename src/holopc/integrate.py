"""Monte Carlo expectations under the product Haar measure.

Edge fields are sampled with one independent Haar draw per canonical edge,
and random comparison matrices with one draw per upper-triangle entry.
Sampling is plain i.i.d. -- the product measure is directly samplable, so
no Markov chain is involved.

Sample k derives its own generator from (seed, k), so every estimate is
a deterministic function of (seed, N) alone: rerunning with the same seed
and sample count reproduces it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonCompactGroupError
from .groups import Group
from .pcmatrix import Indicator, _checked_indicator, ii_indicator, random_pc_matrix
from .simplicial import EdgeField, SimplicialComplex2, global_ii, path_holonomy, plaquette

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


def sample_rng(seed: int, k: int) -> np.random.Generator:
    """Generator for sample k of a run; counter-style derivation from (seed, k)."""
    return np.random.default_rng([seed, k])


def sample_field(K: SimplicialComplex2, group: Group, rng) -> EdgeField:
    """One product-Haar draw: i.i.d. elements on the canonical edges."""
    if not group.compact:
        raise NonCompactGroupError(f"{group.tag}: no normalized Haar measure")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return EdgeField(group, {e: group.haar_sample(gen) for e in K.edges})


def _character(group: Group):
    """Real character of the defining representation."""
    if group.tag == "u1":
        return lambda g: np.cos(g)
    if group.tag == "su2":
        return lambda g: 2.0 * g[0]
    if group.tag.startswith("zmod"):
        m = group.m
        return lambda g: np.cos(2.0 * np.pi * g / m)
    raise ValueError(f"no compact character for {group.tag}")


def _make_evaluator(
    K: SimplicialComplex2 | None,
    group: Group,
    obs: Observable,
    indicator: Indicator | None,
) -> Callable[[np.random.Generator], float]:
    """Bind an observable to a per-sample evaluation closure."""
    if obs.tag == "ii3_of_random_matrix":
        if obs.n is None or obs.n < 2:
            raise ValueError("ii3_of_random_matrix needs a matrix size n >= 2")
        n = obs.n
        # ``indicator`` goes through as given: None selects the batched default
        return lambda rng: ii_indicator(random_pc_matrix(group, n, rng), indicator)[0]

    if K is None:
        raise ValueError(f"observable {obs.tag} needs a complex to sample fields on")

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
        for v, w in zip(loop, loop[1:]):
            if not K.has_edge(v, w):
                raise ValueError(f"wilson loop steps over a missing edge {v}-{w}")
        chi = _character(group)

        def wilson(rng):
            F = sample_field(K, group, rng)
            return float(chi(path_holonomy(K, F, loop)))

        return wilson

    if not K.triangles:
        raise ValueError(f"observable {obs.tag} needs at least one triangle")
    ind = _checked_indicator(group, indicator)
    if obs.tag == "mean_curvature_In":

        def mean_curv(rng):
            F = sample_field(K, group, rng)
            return float(np.mean([ind(plaquette(K, F, t)) for t in K.triangles]))

        return mean_curv

    def sup_curv(rng):
        return global_ii(K, sample_field(K, group, rng), ind)[0]

    return sup_curv


def _sample_values(value_at, seed: int, N: int) -> np.ndarray:
    """Values of samples 0..N-1, sample k evaluated on sample_rng(seed, k)."""
    return np.fromiter((value_at(sample_rng(seed, k)) for k in range(N)), dtype=float, count=N)


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

    Sample k is evaluated on ``sample_rng(seed, k)``, so results are
    bit-identical for fixed (seed, N); the standard error uses the unbiased
    variance estimator, so N >= 2.
    """
    if N < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if not group.compact:
        raise NonCompactGroupError(f"{group.tag}: no normalized Haar measure")
    value_at = _make_evaluator(K, group, obs, indicator)
    vals = _sample_values(value_at, seed, N)
    return _estimate(vals, seed, obs.tag)


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
    Monte Carlo estimate of the mean.
    """
    if N < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if not group.compact:
        raise NonCompactGroupError(f"{group.tag}: no normalized Haar measure")
    value_at = lambda rng: ii_indicator(random_pc_matrix(group, n, rng), indicator)[0]
    vals = _sample_values(value_at, seed, N)
    counts, edges = np.histogram(vals, bins=bins)
    hist = Histogram(tuple(int(c) for c in counts), tuple(float(e) for e in edges))
    return hist, _estimate(vals, seed, "ii3_of_random_matrix")
