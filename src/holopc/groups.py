"""The concrete groups behind every comparison and holonomy computation.

Single elements are plain Python values, one carrier per group:

* positive reals ``"rplus"``  -- strictly positive finite floats,
* circle group ``"u1"``       -- angles in (-pi, pi],
* unit quaternions ``"su2"``  -- 4-tuples (w, x, y, z) of unit norm,
* cyclic groups ``"zmod:m"``  -- integer residues modulo m.

A :class:`Group` instance supplies the group law, a bi-invariant distance,
exponential/logarithm coordinates on the Lie algebra, and Haar sampling for
the compact groups.  Everything is a pure function of its inputs; random
sampling draws from an explicit ``numpy.random.Generator``.

Each group writes its law once, as array kernels: :meth:`Group.to_array`
stacks already-checked elements into a carrier array -- shape ``(...,)``
float for rplus and u1, ``(...,)`` int64 for zmod, ``(..., 4)`` float for
su2 -- and the ``batch_*`` kernels apply the law elementwise over the
leading axes, with broadcasting, and never check their inputs.  The element
methods (``multiply``, ``inverse``, ``distance``, ``exp_coords``,
``log_coords``, ``haar_sample``) are those kernels on one element: they
check each input with the group's :meth:`Group.check`, run the kernel on a
carrier array of length one, and return the plain value.  A call costs a
few microseconds of numpy overhead, so code that handles many elements
builds carrier arrays and calls the kernels itself.  ``batch_adjoint`` has
no element form: it gives the matrices of conjugation in log coordinates,
which the Gauss-Newton consistencizer needs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import GroupMismatchError, LogBranchError, NonCompactGroupError

Element = float | int | tuple[float, float, float, float]

TAU = 2.0 * math.pi
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the canonical branch (-pi, pi]; ties go to +pi."""
    t = math.remainder(theta, TAU)
    if t <= -math.pi:
        t += TAU
    return t


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Array form of :func:`wrap_angle`, bit for bit.

    ``fmod`` is exact and leaves (-TAU, TAU); one correction by TAU lands
    in (-pi, pi] and is exact too (Sterbenz), so the result is the same
    exactly reduced angle that ``remainder`` plus the tie rule gives.
    Scalars and 0-d arrays come back as 0-d arrays.
    """
    t = np.asarray(np.fmod(theta, TAU))  # fmod gives a numpy scalar on 0-d input
    np.subtract(t, TAU, out=t, where=t > math.pi)
    np.add(t, TAU, out=t, where=t <= -math.pi)
    return t


class Group:
    """Group operations on raw carrier values.

    Subclasses fix the carrier, the validator :meth:`check` and the
    ``batch_*`` kernels.  The kernels keep the carrier invariants
    (positivity, canonical angle branch, unit quaternion norm, reduced
    residue) on their outputs; the element methods here are the kernels on
    one checked element.
    """

    tag: str
    dim: int
    compact: bool
    identity: Element
    dtype = float  # carrier array dtype

    def check(self, a: Element) -> Element:
        """Return the canonicalized element, or raise :class:`GroupMismatchError`."""
        raise NotImplementedError

    def multiply(self, a: Element, b: Element) -> Element:
        return self._element(self.batch_multiply(self._carrier(a), self._carrier(b)))

    def inverse(self, a: Element) -> Element:
        return self._element(self.batch_inverse(self._carrier(a)))

    def distance(self, a: Element, b: Element) -> float:
        """Bi-invariant metric: d(gx, gy) = d(xg, yg) = d(x, y)."""
        return float(self.batch_distance(self._carrier(a), self._carrier(b))[0])

    def exp_coords(self, v: Sequence[float]) -> Element:
        """Exponential of a Lie-algebra coordinate vector of length ``dim``."""
        return self._element(self.batch_exp(self._coords(v)[None]))

    def log_coords(self, g: Element) -> np.ndarray:
        """Principal logarithm as a coordinate vector; inverse of exp_coords
        near the identity.  Raises :class:`LogBranchError` at the cut locus."""
        return self.batch_log(self._carrier(g))[0]

    def haar_sample(self, rng: np.random.Generator) -> Element:
        """One Haar draw: :meth:`batch_haar_sample` of a single element."""
        return self._element(self.batch_haar_sample(rng, (1,)))

    def _carrier(self, a: Element) -> np.ndarray:
        """One element, checked, as a carrier array of length one."""
        return self.to_array([self.check(a)])

    def _element(self, arr: np.ndarray) -> Element:
        return self.from_array(arr)[0]

    def element_to_obj(self, a: Element):
        """JSON-ready representation of an element."""
        return self.checked_to_obj(self.check(a))

    def checked_to_obj(self, a: Element):
        """JSON-ready representation of an element that already passed :meth:`check`."""
        return a

    def element_from_obj(self, obj) -> Element:
        """Parse the representation written by :meth:`element_to_obj`."""
        raise NotImplementedError

    # -- array forms: carrier arrays of checked elements, never checked again --

    def to_array(self, elements) -> np.ndarray:
        """Stack a sequence of already-checked elements into a carrier array."""
        return np.array(elements, dtype=self.dtype)

    def from_array(self, arr: np.ndarray) -> list[Element]:
        """The elements of a one-dimensional stack of carriers, as plain values."""
        return arr.tolist()

    def batch_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch_inverse(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch_exp(self, v: np.ndarray) -> np.ndarray:
        """Exponential of coordinate vectors stacked along the last axis (length ``dim``)."""
        raise NotImplementedError

    def batch_log(self, g: np.ndarray) -> np.ndarray:
        """Principal logarithms, coordinates along a new last axis of length ``dim``.
        Raises :class:`LogBranchError` if any element sits at the cut locus."""
        raise NotImplementedError

    def batch_adjoint(self, g: np.ndarray) -> np.ndarray:
        """The matrices of v -> log(g exp(v) g^-1) in exp/log coordinates,
        shape ``(..., dim, dim)``.  An abelian group acts trivially: the
        identity matrix."""
        return np.broadcast_to(np.eye(self.dim), g.shape + (self.dim, self.dim))

    def batch_haar_sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        """Carrier array of i.i.d. Haar draws over the leading axes ``shape``
        (possibly none), filled in row-major order from ``rng``."""
        raise NonCompactGroupError(f"{self.tag}: no normalized Haar measure")

    def _coords(self, v) -> np.ndarray:
        arr = np.asarray(v, dtype=float).reshape(-1)
        if arr.shape != (self.dim,):
            raise ValueError(f"{self.tag}: expected {self.dim} coordinates, got {arr.shape}")
        return arr

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and other.tag == self.tag

    def __hash__(self) -> int:
        return hash(self.tag)

    def __repr__(self) -> str:
        return f"<group {self.tag}>"


def _as_real(tag: str, a) -> float:
    if isinstance(a, bool) or not isinstance(a, (int, float, np.integer, np.floating)):
        raise GroupMismatchError(f"group mismatch: {a!r} is not a {tag} element")
    x = float(a)
    if not math.isfinite(x):
        raise GroupMismatchError(f"group mismatch: non-finite {tag} element {a!r}")
    return x


class PositiveReals(Group):
    """Multiplicative group of strictly positive reals."""

    tag = "rplus"
    dim = 1
    compact = False
    identity = 1.0

    def check(self, a):
        x = _as_real(self.tag, a)
        if x <= 0.0:
            raise GroupMismatchError(f"group mismatch: {a!r} is not a positive real")
        return x

    def batch_multiply(self, a, b):
        with np.errstate(over="ignore"):  # an overflow to inf is raised on below
            p = a * b
        if not np.all((p > 0.0) & np.isfinite(p)):
            raise ValueError("positive-real product left (0, inf)")
        return p

    def batch_inverse(self, a):
        return 1.0 / a

    def batch_distance(self, a, b):
        return np.abs(np.log(a / b))

    def batch_exp(self, v):
        return np.exp(v[..., 0])

    def batch_log(self, g):
        return np.log(g)[..., None]

    def element_from_obj(self, obj):
        return self.check(obj)


class CircleGroup(Group):
    """U(1) stored as an angle on the canonical branch (-pi, pi]."""

    tag = "u1"
    dim = 1
    compact = True
    identity = 0.0

    def check(self, a):
        return wrap_angle(_as_real(self.tag, a))

    def batch_multiply(self, a, b):
        return wrap_angles(a + b)

    def batch_inverse(self, a):
        return wrap_angles(-a)

    def batch_distance(self, a, b):
        return np.abs(wrap_angles(a - b))

    def batch_exp(self, v):
        return wrap_angles(v[..., 0])

    def batch_log(self, g):
        return g[..., None]

    def batch_haar_sample(self, rng, shape):
        return wrap_angles(rng.uniform(-math.pi, math.pi, size=shape))

    def checked_to_obj(self, a):
        return {"theta": a}

    def element_from_obj(self, obj):
        if not isinstance(obj, dict) or "theta" not in obj:
            raise GroupMismatchError(f"group mismatch: {obj!r} is not a u1 element")
        return self.check(obj["theta"])


class UnitQuaternions(Group):
    """SU(2) realized as unit quaternions (w, x, y, z)."""

    tag = "su2"
    dim = 3
    compact = True
    identity = (1.0, 0.0, 0.0, 0.0)

    def check(self, a):
        if isinstance(a, np.ndarray):
            a = tuple(a.tolist())
        if not isinstance(a, (tuple, list)) or len(a) != 4:
            raise GroupMismatchError(f"group mismatch: {a!r} is not a quaternion")
        try:
            q = tuple(float(c) for c in a)
        except (TypeError, ValueError) as exc:
            raise GroupMismatchError(f"group mismatch: {a!r} is not a quaternion") from exc
        if not all(math.isfinite(c) for c in q):
            raise GroupMismatchError(f"group mismatch: non-finite quaternion {a!r}")
        n2 = sum(c * c for c in q)
        if abs(n2 - 1.0) > 1e-6:
            raise GroupMismatchError(f"group mismatch: quaternion norm {math.sqrt(n2):.6g} != 1")
        n = math.sqrt(n2)
        return tuple(c / n for c in q)

    # The kernels below spell out every sum term by term: a numpy reduction
    # over the last axis would add in another order and move result bits.

    @staticmethod
    def _batch_normalize(w, x, y, z):
        n = np.sqrt(w * w + x * x + y * y + z * z)
        return np.stack((w / n, x / n, y / n, z / n), axis=-1)

    def to_array(self, elements):
        return np.array(elements, dtype=float).reshape(-1, 4)

    def from_array(self, arr):
        return [tuple(q) for q in arr.tolist()]

    def batch_multiply(self, a, b):
        w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
        w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
        return self._batch_normalize(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def batch_inverse(self, a):
        return a * _CONJUGATE

    def batch_distance(self, a, b):
        dm, dp = a - b, a + b
        dm = np.sqrt(dm[..., 0] ** 2 + dm[..., 1] ** 2 + dm[..., 2] ** 2 + dm[..., 3] ** 2)
        dp = np.sqrt(dp[..., 0] ** 2 + dp[..., 1] ** 2 + dp[..., 2] ** 2 + dp[..., 3] ** 2)
        return 2.0 * np.arctan2(dm, dp)

    def batch_exp(self, v):
        vx, vy, vz = np.moveaxis(v, -1, 0)
        phi = np.sqrt(vx * vx + vy * vy + vz * vz)
        small = phi < 1e-8
        k = np.where(small, 1.0 - phi * phi / 6.0, np.sin(phi) / np.where(small, 1.0, phi))
        return self._batch_normalize(np.cos(phi), k * vx, k * vy, k * vz)

    def batch_log(self, g):
        w, x, y, z = np.moveaxis(g, -1, 0)
        s = np.sqrt(x * x + y * y + z * z)
        tiny = s < 1e-15
        if np.any(tiny & (w <= 0.0)):
            raise LogBranchError("log branch singularity: antipodal to identity")
        if np.any((w < 0.0) & (s < 1e-9)):
            raise LogBranchError("log branch singularity: within 1e-9 of the cut locus")
        k = np.where(tiny, 0.0, np.arctan2(s, w) / np.where(tiny, 1.0, s))
        return np.stack((k * x, k * y, k * z), axis=-1)

    def batch_adjoint(self, g):
        # conjugation by a unit quaternion rotates the vector part: the
        # rotation matrix of the quaternion, whatever the rotation angle
        w, x, y, z = np.moveaxis(g, -1, 0)
        rows = (
            (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
            (2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
            (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
        )
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    def batch_haar_sample(self, rng, shape):
        # Four standard normals per element, normalized: uniform on the 3-sphere.
        v = rng.normal(size=tuple(shape) + (4,))
        while True:
            w, x, y, z = np.moveaxis(v, -1, 0)
            n = np.sqrt(w * w + x * x + y * y + z * z)
            small = n <= 1e-12  # no direction to normalize: draw the element again
            if not small.any():
                return v / n[..., None]
            v[small] = rng.normal(size=(int(small.sum()), 4))

    def checked_to_obj(self, a):
        return {"q": list(a)}

    def element_from_obj(self, obj):
        if not isinstance(obj, dict) or "q" not in obj:
            raise GroupMismatchError(f"group mismatch: {obj!r} is not an su2 element")
        return self.check(obj["q"])


MAX_CYCLIC_ORDER = 2**62  # residue sums a + b stay below 2**63, inside int64


class CyclicGroup(Group):
    """Z_m with additive notation; exact integer arithmetic throughout."""

    dim = 0
    compact = True
    identity = 0
    dtype = np.int64

    def __init__(self, m: int):
        m = int(m)
        if m < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {m}")
        if m > MAX_CYCLIC_ORDER:
            raise ValueError(f"cyclic group order must be at most 2**62 (int64 carriers), got {m}")
        self.m = m
        self.tag = f"zmod:{m}"

    def check(self, a):
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
            raise GroupMismatchError(f"group mismatch: {a!r} is not a {self.tag} residue")
        return int(a) % self.m

    def batch_multiply(self, a, b):
        return (a + b) % self.m

    def batch_inverse(self, a):
        return (-a) % self.m

    def batch_distance(self, a, b):
        k = np.abs(a - b) % self.m
        return TAU * np.minimum(k, self.m - k) / self.m

    def batch_exp(self, v):
        return np.zeros(v.shape[:-1], dtype=np.int64)

    def batch_log(self, g):
        if np.any(g != 0):
            raise LogBranchError("log branch singularity: finite group has no continuous log away from the identity")
        return np.zeros(g.shape + (0,))

    def batch_haar_sample(self, rng, shape):
        return rng.integers(self.m, size=shape)

    def element_from_obj(self, obj):
        return self.check(obj)


RPLUS = PositiveReals()
U1 = CircleGroup()
SU2 = UnitQuaternions()


def zmod(m: int) -> CyclicGroup:
    return CyclicGroup(m)


def group_from_tag(tag: str) -> Group:
    """Resolve "rplus", "u1", "su2", or "zmod:<m>" to a group instance."""
    if tag == "rplus":
        return RPLUS
    if tag == "u1":
        return U1
    if tag == "su2":
        return SU2
    if isinstance(tag, str) and tag.startswith("zmod:"):
        try:
            return CyclicGroup(int(tag.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad cyclic group tag {tag!r}: {exc}") from exc
    raise ValueError(f"unknown group tag {tag!r}")


def as_generator(rng) -> np.random.Generator:
    """Accept either an integer seed or a ready Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
