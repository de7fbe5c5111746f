"""The concrete groups behind every comparison and holonomy computation.

Single elements are plain Python values, one carrier per group:

* positive reals ``"rplus"``  -- floats in (2**-1024, 1.7976931348623153e308), closed under the inverse,
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
builds carrier arrays and calls the kernels itself; :meth:`Group.batch_check`
checks a whole sequence of raw values into a carrier array, bit for bit as
``check`` would one at a time.  Every group does so in one array pass over
the values its ``check`` reads without conversion (Python floats and ints,
ints alone for zmod, or a numeric ndarray; see :func:`_scalar_array`, and
su2's rows of four); anything else, and any value the pass refuses, goes
through the loop over ``check``, which answers as ``check`` does and names
the first bad value.  The 81 angles of a u1 n = 9 matrix document are
checked in 7.3-7.4 us instead of 32-56 us by the loop, and the 9 of an
n = 3 document in 4-6 us either way (median of 9 ``timeit`` repeats, two
runs, shared 2-vCPU host).  ``batch_adjoint`` has
no element form: it gives the matrices of conjugation in log coordinates,
which the Newton consistencizer needs, as it needs ``batch_pair_hessian``,
the curvature and bracket terms of its Hessian, ``batch_synchronize``,
the gauge it starts from, and ``batch_log_ratio``, its residual logs
log(e^-1 a).  Nor has ``batch_defect``,
the triad defect d(ab, c) that scores every default-indicator loop: one
product and one distance, except for rplus, which sums logs so that a
product beyond the float range is never formed; nor su2's
``batch_defect_key``, the inner product <ab, c> by which ``pcmatrix``
ranks su2 triads before it scores the few near the worst.  :class:`PositiveReals`
alone knows the rplus range, (2**-1024, c) with c = 1.7976931348623153e308,
and reads it through one predicate, ``_rplus_carriers``.  The range holds
the inverse of each of its elements: 1 / 2**-1024 overflows, and c is the
least float whose inverse rounds to 2**-1024, so the three largest floats
are refused as carriers, since a matrix could not store their inverses.
Its check refuses a value outside the range, naming both ends; its
product and exponential refuse a result outside it; and its distance and
residual logs, in logs where a ratio or product leaves it, never fail.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import FloatRangeError, GroupMismatchError, LogBranchError, NonCompactGroupError

Element = float | int | tuple[float, float, float, float]

TAU = 2.0 * math.pi
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
_AXES = np.arange(3)
# r @ _CROSS is the matrix of b -> b x r, row-major: [[0, z, -y], [-z, 0, x], [y, -x, 0]]
_CROSS = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)
# vec(q q^T) @ _ROTATION is the rotation matrix of a unit quaternion q = (w, v),
# (w^2 - |v|^2) I + 2 v v^T + 2 w [v]x, where [v]x = -(v @ _CROSS) is b -> v x b
_ROTATION = np.zeros((4, 4, 3, 3))
_ROTATION[0, 0] = np.eye(3)
_ROTATION[0, 1:] = -2.0 * _CROSS.reshape(3, 3, 3)
_ROTATION[_AXES + 1, _AXES + 1] -= np.eye(3)
_ROTATION[_AXES[:, None] + 1, _AXES + 1, _AXES[:, None], _AXES] += 2.0
_ROTATION = _ROTATION.reshape(16, 9)


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the canonical branch (-pi, pi]; ties go to +pi."""
    t = math.remainder(theta, TAU)
    if t <= -math.pi:
        t += TAU
    return t


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Array form of :func:`wrap_angle`, bit for bit.

    ``fmod`` is exact and leaves (-TAU, TAU); one :func:`_fold` lands in
    (-pi, pi] and is exact too, so the result is the same exactly reduced
    angle that ``remainder`` plus the tie rule gives.  Scalars and 0-d
    arrays come back as 0-d arrays.
    """
    return np.asarray(_fold(np.fmod(theta, TAU)))


def _fold(t: np.ndarray) -> np.ndarray:
    """Angles t in (-TAU, TAU] moved onto (-pi, pi] by one exact step,
    t - TAU k with k = 1 above pi, -1 at or below -pi and 0 otherwise
    (Sterbenz).  Subtracting 0.0 keeps -0.0, and TAU goes to 0.0, as
    ``fmod`` sends it; on the rest of this range ``fmod`` by TAU changes
    nothing, so a sum or difference of two carriers, or a carrier's
    negation, needs only this fold."""
    return t - TAU * ((t > math.pi).view(np.int8) - (t <= -math.pi).view(np.int8))


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
    obj_key: str | None = None  # an element's JSON form: the bare carrier, or {obj_key: carrier}

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
        """JSON-ready representation of an element that already passed
        :meth:`check`: the carrier itself, or ``{obj_key: carrier}`` with a
        quaternion as a list.  This is the one place that decides an
        element's JSON shape; the report writer fills a template of it."""
        if self.obj_key is None:
            return a
        return {self.obj_key: list(a) if isinstance(a, tuple) else a}

    def unwrap_obj(self, obj):
        """The unchecked carrier value inside the representation written by
        :meth:`element_to_obj`; raises :class:`GroupMismatchError` on another shape."""
        if self.obj_key is None:
            return obj
        if not isinstance(obj, dict) or self.obj_key not in obj:
            raise GroupMismatchError(f"group mismatch: {obj!r} is not a {self.tag} element")
        return obj[self.obj_key]

    def unwrap_objs(self, objs: list) -> list:
        """The carrier values inside the items of ``objs``, in one
        comprehension.  A bad item raises ``KeyError`` or ``TypeError``;
        :meth:`unwrap_obj` names it."""
        if self.obj_key is None:
            return objs
        return [obj[self.obj_key] for obj in objs]

    def element_from_obj(self, obj) -> Element:
        """Parse the representation written by :meth:`element_to_obj`."""
        return self.check(self.unwrap_obj(obj))

    def batch_check(self, values) -> np.ndarray:
        """Carrier array of the sequence ``values``, each canonicalized as
        :meth:`check` does, bit for bit.  On a bad value raise what
        :meth:`check` raises on the first one.  Here it is the loop over
        :meth:`check`.  Every concrete group overrides it with one array
        pass of its check's arithmetic, over the values that check reads
        without conversion (see :func:`_scalar_array`), and falls back to
        this loop when the pass refuses, only to name the bad value."""
        return self.to_array([self.check(v) for v in values])

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

    def batch_defect(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The defect d(ab, c) of a triad loop: one product and one distance."""
        return self.batch_distance(self.batch_multiply(a, b), c)

    def batch_exp(self, v: np.ndarray) -> np.ndarray:
        """Exponential of coordinate vectors stacked along the last axis (length ``dim``)."""
        raise NotImplementedError

    def batch_log(self, g: np.ndarray) -> np.ndarray:
        """Principal logarithms, coordinates along a new last axis of length ``dim``.
        Raises :class:`LogBranchError` if any element sits at the cut locus."""
        raise NotImplementedError

    def batch_log_ratio(self, e: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Principal logarithms of e^-1 a, coordinates along a new last axis:
        the residual logs of the Newton consistencizer.  Here the log of the
        composition; raises :class:`LogBranchError` as :meth:`batch_log` does."""
        return self.batch_log(self.batch_multiply(self.batch_inverse(e), a))

    def batch_adjoint(self, g: np.ndarray) -> np.ndarray:
        """The matrices of v -> log(g exp(v) g^-1) in exp/log coordinates,
        shape ``(..., dim, dim)``.  An abelian group acts trivially: the
        identity matrix."""
        return np.broadcast_to(np.eye(self.dim), g.shape + (self.dim, self.dim))

    def batch_pair_hessian(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The second-order terms of h(a, b) = |log(exp(-b) exp(a) exp(r))|^2 / 2
        at a = b = 0, for log coordinates r stacked along the last axis:
        matrices W and X of shape ``(..., dim, dim)`` with

            h(a, b) = h(0, 0) + <r, a - b> + (a - b)^T W (a - b) / 2 + a^T X b + O(3).

        W is the Riemannian Hessian of half the squared distance from the
        identity, and X comes from the BCH bracket, a^T X b = <r, [a, b]> / 2.
        An abelian group is flat and its brackets vanish: W = I and X = 0."""
        shape = r.shape[:-1] + (self.dim, self.dim)
        return np.broadcast_to(np.eye(self.dim), shape), np.zeros(shape)

    def batch_synchronize(self, M: np.ndarray) -> np.ndarray:
        """A gauge vector for the (n, n, ...) entry carrier array M of a
        covariant matrix, a_ij = lam_i^-1 lam_j when M is consistent: an
        (n, ...) carrier array with lam_0 the identity, exact on consistent
        input up to rounding.  A group with no better estimate returns the
        row-0 gauge lam_j = a_0j."""
        return _row_gauge(self, M)

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


def _row_gauge(G: Group, M: np.ndarray) -> np.ndarray:
    """The gauge lam_0 = identity, lam_j = a_0j of an entry carrier array."""
    return np.concatenate((G.to_array([G.identity]), M[0, 1:]))


def _log_row_mean(G: Group, M: np.ndarray) -> np.ndarray:
    """The gauge l_i = -(1/n) sum_k log a_ik in log coordinates, shifted to
    l_0 = 0, of a one-dimensional group's entry carrier array: on rplus the
    least-squares optimum, on u1 its principal-branch reading."""
    ell = -G.batch_log(M)[..., 0].mean(axis=1)
    ell -= ell[0]
    return G.batch_exp(ell[:, None])


def _rplus_carriers(x):
    """Which values are positive-real carriers, inside (2**-1024, c) for
    c = ``_RPLUS_CEIL``: the one rule of the rplus range.  The stored
    inverse 1 / x of such a value is inside too: 1 / 2**-1024 overflows,
    and c is the least float whose inverse rounds to 2**-1024 or below."""
    return (x > _RPLUS_FLOOR) & (x < _RPLUS_CEIL)


def _scalar_array(values, dtype) -> np.ndarray | None:
    """A new one-dimensional ``dtype`` array of ``values`` when ``check``
    reads each of them without conversion: a list or tuple of Python
    floats and ints (of ints alone for an integer ``dtype``), or a
    one-dimensional numeric ndarray that casts to ``dtype`` as ``check``
    converts its items (for int64, no uint64).  None for anything else,
    bools, strings and numpy scalars among them, and for an int beyond the
    range of ``dtype``: the element loop answers for those."""
    integer = np.dtype(dtype).kind == "i"
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        fits = (kind in "iu" and np.can_cast(values.dtype, dtype)) if integer else kind in "fiu"
        if values.ndim != 1 or not fits:
            return None
    elif not isinstance(values, (list, tuple)) or not set(map(type, values)) <= ({int} if integer else {float, int}):
        return None
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:  # an int beyond the range of dtype
        return None


def _as_real(tag: str, a) -> float:
    if isinstance(a, bool) or not isinstance(a, (int, float, np.integer, np.floating)):
        raise GroupMismatchError(f"group mismatch: {a!r} is not a {tag} element")
    try:
        x = float(a)
    except OverflowError:  # an int beyond the float range
        raise GroupMismatchError(f"group mismatch: {tag} element {a!r} is too large for a float") from None
    if not math.isfinite(x):
        raise GroupMismatchError(f"group mismatch: non-finite {tag} element {a!r}")
    return x


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


def _require_integer(name: str, value) -> int:
    """``value`` as an int by the rule of :func:`_as_integer`; anything else
    raises ``ValueError`` naming ``name`` and the value."""
    k = _as_integer(value)
    if k is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return k


_RPLUS_FLOOR = 2.0**-1024  # 1 / 2**-1024 overflows; the inverse of every larger positive float is finite
_RPLUS_CEIL = 1.7976931348623153e308  # the least float whose inverse, 2**-1024, is not above the floor
_RPLUS_RANGE = f"(2**-1024, {_RPLUS_CEIL!r})"


class PositiveReals(Group):
    """Multiplicative group of strictly positive reals, carried in
    (2**-1024, 1.7976931348623153e308), a range closed under the inverse."""

    tag = "rplus"
    dim = 1
    compact = False
    identity = 1.0

    def check(self, a):
        x = _as_real(self.tag, a)
        if x <= 0.0:
            raise GroupMismatchError(f"group mismatch: {a!r} is not a positive real")
        if not _rplus_carriers(x):
            raise GroupMismatchError(
                f"group mismatch: rplus element {a!r} is outside {_RPLUS_RANGE}, the floats whose inverses are inside it"
            )
        return x

    def batch_check(self, values):
        x = _scalar_array(values, float)
        if x is not None and _rplus_carriers(x).all():  # check returns each value as float() reads it
            return x
        return super().batch_check(values)

    def batch_multiply(self, a, b):
        with np.errstate(over="ignore"):  # an overflow to inf is raised on below
            p = a * b
        if not _rplus_carriers(p).all():  # outside, the stored inverse would leave the range
            raise FloatRangeError(f"positive-real product left {_RPLUS_RANGE}, where its inverse is inside too")
        return p

    def batch_inverse(self, a):
        return 1.0 / a

    def batch_distance(self, a, b):
        # |log(a / b)|, and |log a - log b| where the ratio leaves the range
        with np.errstate(over="ignore", divide="ignore"):
            q = a / b
            d = np.abs(np.log(q))
        far = ~_rplus_carriers(q)
        return np.where(far, np.abs(np.log(a) - np.log(b)), d) if far.any() else d

    def batch_defect(self, a, b, c):
        # |log a - log c + log b|: a sum of logs, where the product ab or the
        # ratio ab / c could leave the float range
        return np.abs(np.log(a) - np.log(c) + np.log(b))

    def batch_log_ratio(self, e, a):
        # log((1 / e) a), the composition's log bit for bit, and log a - log e
        # where the product leaves the range, which the product kernel refuses
        with np.errstate(over="ignore", divide="ignore"):
            p = 1.0 / e * a
            r = np.log(p)
        far = ~_rplus_carriers(p)
        return (np.where(far, np.log(a) - np.log(e), r) if far.any() else r)[..., None]

    def batch_exp(self, v):
        with np.errstate(over="ignore"):  # an overflow to inf is raised on below
            x = np.exp(v[..., 0])
        if not _rplus_carriers(x).all():
            raise FloatRangeError(f"positive-real exponential left {_RPLUS_RANGE}, where its inverse is inside too")
        return x

    def batch_log(self, g):
        return np.log(g)[..., None]

    def batch_synchronize(self, M):
        # the log row mean is the least-squares gauge; where the exponential
        # kernel refuses it, beyond the float range, row 0 stands in
        try:
            return _log_row_mean(self, M)
        except FloatRangeError:
            return _row_gauge(self, M)


class CircleGroup(Group):
    """U(1) stored as an angle on the canonical branch (-pi, pi].

    The kernels on carriers reduce with :func:`_fold` alone: a sum or
    difference of two angles in (-pi, pi], or a negation, lies in
    (-TAU, TAU], where ``fmod`` by TAU changes nothing but TAU itself, which
    the fold sends to 0.0 too; so the fold gives what :func:`wrap_angles`
    gives, bit for bit, in one pass.
    ``batch_exp`` and ``batch_synchronize`` take arbitrary angles and keep
    the full :func:`wrap_angles`, as :meth:`check` keeps :func:`wrap_angle`.
    """

    tag = "u1"
    dim = 1
    compact = True
    identity = 0.0
    obj_key = "theta"

    def check(self, a):
        return wrap_angle(_as_real(self.tag, a))

    def batch_check(self, values):
        x = _scalar_array(values, float)
        if x is not None and ((x > -math.pi) & (x <= math.pi)).all():
            return x  # on the branch already, where wrap_angle returns each angle as it is
        if x is not None and np.isfinite(x).all():
            return wrap_angles(x)
        return super().batch_check(values)

    def batch_multiply(self, a, b):
        return _fold(a + b)

    def batch_inverse(self, a):
        return _fold(-a)

    def batch_distance(self, a, b):
        return np.abs(_fold(a - b))

    def batch_defect(self, a, b, c):
        # the size of the loop product (ab) c^-1 by the group law, bit for bit
        # the indicator of the holonomy the element methods form; it is
        # d(ab, c) but at c = pi, which is its own inverse on (-pi, pi]
        return np.abs(self.batch_multiply(self.batch_multiply(a, b), self.batch_inverse(c)))

    def batch_exp(self, v):
        return wrap_angles(v[..., 0])

    def batch_log(self, g):
        return g[..., None]

    def batch_synchronize(self, M):
        # angular synchronization (Singer 2011): for consistent M the matrix
        # (e^{i a_ij}) is conj(z) z^T with z_j = e^{i lam_j}, so its top
        # eigenvector v is conj(z) up to a phase, and v_0 conj(v_j) = e^{i (lam_j - lam_0)}
        v = np.linalg.eigh(np.exp(1j * M))[1][:, -1]
        lam = wrap_angles(np.angle(v[0] * v.conj()))
        lam[0] = self.identity
        return lam

    def batch_haar_sample(self, rng, shape):
        return _fold(rng.uniform(-math.pi, math.pi, size=shape))


class UnitQuaternions(Group):
    """SU(2) realized as unit quaternions (w, x, y, z)."""

    tag = "su2"
    dim = 3
    compact = True
    identity = (1.0, 0.0, 0.0, 0.0)
    obj_key = "q"

    def check(self, a):
        if isinstance(a, np.ndarray):
            a = tuple(a.tolist())
        if not isinstance(a, (tuple, list)) or len(a) != 4:
            raise GroupMismatchError(f"group mismatch: {a!r} is not a quaternion")
        try:
            q = tuple(float(c) for c in a)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GroupMismatchError(f"group mismatch: {a!r} is not a quaternion") from exc
        if not all(math.isfinite(c) for c in q):
            raise GroupMismatchError(f"group mismatch: non-finite quaternion {a!r}")
        n2 = sum(c * c for c in q)
        if abs(n2 - 1.0) > 1e-6:
            raise GroupMismatchError(f"group mismatch: quaternion norm {math.sqrt(n2):.6g} != 1")
        n = math.sqrt(n2)
        return tuple(c / n for c in q)

    def batch_check(self, values):
        # check's arithmetic on an (N, 4) float array, in the same order; any
        # value that is not four real numbers, or fails a test, goes to the loop
        try:
            q = np.array(values)
        except (TypeError, ValueError, OverflowError):
            q = None
        if q is not None and q.dtype.kind in "fiu" and q.ndim == 2 and q.shape[1] == 4:
            q = q.astype(float, copy=False)
            w, x, y, z = q.T
            with np.errstate(over="ignore"):  # a huge component fails the norm test below
                n2 = w * w + x * x + y * y + z * z
            if np.all(np.abs(n2 - 1.0) <= 1e-6):  # false on nan and inf: the finite test too
                return q / np.sqrt(n2)[:, None]
        return super().batch_check(values)

    # The kernels below spell out every sum term by term: a numpy reduction
    # over the last axis would add in another order and move result bits.

    @staticmethod
    def _batch_normalize(w, x, y, z):
        n = np.sqrt(w * w + x * x + y * y + z * z)
        out = np.empty(n.shape + (4,))
        for c, v in enumerate((w, x, y, z)):
            np.divide(v, n, out=out[..., c])
        return out

    def to_array(self, elements):
        return np.array(elements, dtype=float).reshape(-1, 4)

    def from_array(self, arr):
        return [tuple(q) for q in arr.tolist()]

    def batch_multiply(self, a, b):
        w1, x1, y1, z1 = (a[..., c] for c in range(4))
        w2, x2, y2, z2 = (b[..., c] for c in range(4))
        return self._batch_normalize(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def batch_inverse(self, a):
        return a * _CONJUGATE

    def batch_distance(self, a, b):
        return 2.0 * np.arctan2(_norms(a - b), _norms(a + b))

    def batch_defect_key(self, a, b, c):
        """The inner product <ab, c> of the unnormalized product with c:
        cos d(ab, c) up to rounding, so it falls as the defect rises, at
        about half the defect's cost (no normalization, norms or atan2).
        It ranks triads in ``pcmatrix``'s sweep and has no element form."""
        # batch_multiply's sums, then the four terms of the inner product in
        # component order, accumulated in place (the products with c may broadcast)
        w1, x1, y1, z1 = (a[..., k] for k in range(4))
        w2, x2, y2, z2 = (b[..., k] for k in range(4))
        t = w1 * w2
        t -= x1 * x2
        t -= y1 * y2
        t -= z1 * z2
        s = t * c[..., 0]
        t = w1 * x2
        t += x1 * w2
        t += y1 * z2
        t -= z1 * y2
        s += t * c[..., 1]
        t = w1 * y2
        t -= x1 * z2
        t += y1 * w2
        t += z1 * x2
        s += t * c[..., 2]
        t = w1 * z2
        t += x1 * y2
        t -= y1 * x2
        t += z1 * w2
        s += t * c[..., 3]
        return s

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
        qq = (g[..., :, None] * g[..., None, :]).reshape(g.shape[:-1] + (16,))
        return (qq @ _ROTATION).reshape(g.shape[:-1] + (3, 3))

    def batch_pair_hessian(self, r):
        # On the unit 3-sphere half the squared distance from the identity has
        # curvature 1 along r and c = phi cot phi across it, phi = |r|, so
        # W = c I + k r r^T with k = (1 - c) / phi^2; c is clamped at 0 past
        # phi = pi/2, where the exact W turns indefinite.  With [a, b] = 2 a x b,
        # a^T X b = <r, a x b> = a^T (b x r).
        phi2 = np.einsum("...i,...i->...", r, r)
        phi = np.sqrt(phi2)
        small = phi < 1e-4  # phi cot phi = 1 - phi^2 / 3 - phi^4 / 45 - ...
        c = np.where(small, 1.0 - phi2 / 3.0, np.maximum(phi / np.tan(np.where(small, 1.0, phi)), 0.0))
        k = np.where(small, 1.0 / 3.0, (1.0 - c) / np.where(small, 1.0, phi2))
        W = r[..., :, None] * (k[..., None] * r)[..., None, :]
        W[..., _AXES, _AXES] += c[..., None]
        return W, (r @ _CROSS).reshape(r.shape[:-1] + (3, 3))

    def batch_synchronize(self, M):
        # Q(w, x, y, z) = [[w + ix, y + iz], [-y + iz, w - ix]] is a homomorphism
        # with Q(q^-1) = Q(q)^H, so for consistent M the Hermitian matrix of
        # blocks Q(a_ij) is U^H U with U = [Q(lam_0) ... Q(lam_{n-1})], and its
        # top two eigenvectors are the columns of U^H R / sqrt(n) for a unitary
        # R.  Their 2 x 2 blocks B_i give B_0 B_i^H = Q(lam_0^-1 lam_i) / n,
        # which is read back by projecting onto the span of Q and normalizing.
        n = len(M)
        w, x, y, z = np.moveaxis(M, -1, 0)
        Q = np.empty((n, 2, n, 2), dtype=complex)  # Q[i, :, j, :] = Q(a_ij)
        Q[:, 0, :, 0] = w + 1j * x
        Q[:, 0, :, 1] = y + 1j * z
        Q[:, 1, :, 0] = -y + 1j * z
        Q[:, 1, :, 1] = w - 1j * x
        B = np.linalg.eigh(Q.reshape(2 * n, 2 * n))[1][:, -2:].reshape(n, 2, 2)
        P = B[0] @ B.conj().swapaxes(1, 2)
        (a, b), (c, d) = P[:, 0].T, P[:, 1].T  # P_i = [[a, b], [c, d]]
        lam = self._batch_normalize((a + d).real, (a - d).imag, (b - c).real, (b + c).imag)
        lam[0] = self.identity
        return lam

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


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of length 4, the squares summed
    term by term in component order."""
    s = v[..., 0] ** 2
    for c in (1, 2, 3):
        s += v[..., c] ** 2
    return np.sqrt(s)


MAX_CYCLIC_ORDER = 2**62  # residue sums a + b stay below 2**63, inside int64


class CyclicGroup(Group):
    """Z_m with additive notation; exact integer arithmetic throughout."""

    dim = 0
    compact = True
    identity = 0
    dtype = np.int64

    def __init__(self, m: int):
        m = _require_integer("cyclic group order m", m)
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

    def batch_check(self, values):
        r = _scalar_array(values, np.int64)
        if r is not None:
            return r % self.m  # numpy's remainder takes the sign of m, as Python's does
        return super().batch_check(values)

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
