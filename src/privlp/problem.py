"""Problem data model: constraint systems, linear objectives, privacy parameters.

The optimization problem is

    maximize c.x  subject to  A x <= b,  x >= 0,

where only the coefficient matrix ``A`` is sensitive. Public knowledge about
``A`` consists of a mask of public, exact coefficients (``zero_mask``; a
structural zero is the commonest case) and an entrywise upper bound
(``sup_A``, equal to ``A`` at masked entries); together they describe the
set of matrices the true ``A`` is known to belong to. A public constraint is
a fully masked row of the same system, and a public row may be an equality
``a.x = b_i``: the simplex solves it as one row, and the bound side reads
it as the pair ``a.x <= b_i``, ``-a.x <= -b_i`` (see
:meth:`ConstraintSystem.inequality_form`).
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import orjson


class SchemaError(ValueError):
    """A problem document is malformed; the message names the offending field."""


class DimensionError(ValueError):
    """Array shapes in a problem are inconsistent."""


class MembershipError(ValueError):
    """An entry of A exceeds its public upper bound sup_A."""


class FeasibilityAssumptionError(ValueError):
    """The worst-case region {x >= 0 : sup_A x <= b} is empty.

    The pipeline requires one point feasible under every realization of the
    bounded constraint set; the worst-case region is exactly that
    intersection, so emptiness means no amount of tightening can preserve
    feasibility.
    """


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError(f"{name} must be a non-empty 2-D matrix, got shape {arr.shape}")
    return arr


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _require_finite(arr: np.ndarray, name: str):
    if not np.isfinite(arr).all():
        at = next(zip(*np.nonzero(~np.isfinite(arr))))
        raise ValueError(f"{name}[{']['.join(map(str, at))}] is {arr[at]}; entries must be finite")


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget (epsilon, delta) and adjacency bound k.

    ``k`` bounds how far a single coefficient may move between two inputs
    that must be rendered indistinguishable.
    """

    epsilon: float
    delta: float
    k: float

    def __post_init__(self):
        for name in ("epsilon", "delta", "k"):  # kept as given: an int stays an int
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be a positive finite real, got {self.epsilon}")
        if not (0 < self.delta < 0.5):
            raise ValueError(f"delta must lie in the open interval (0, 1/2), got {self.delta}")
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError(f"k must be a positive finite real, got {self.k}")

    @property
    def sigma(self) -> float:
        """Noise scale k/epsilon."""
        return self.k / self.epsilon


FEAS_TOL = 1e-9  # a point whose residuals are at most this is feasible: the rest is round-off


@dataclass(frozen=True)
class ConstraintSystem:
    """Constraint system A x <= b with public structure.

    ``zero_mask`` marks public, exact coefficients, which are never
    privatized; structural zeros are the usual case, and a fully masked row
    is a public constraint. ``sup_A`` is the entrywise supremum of the public
    bound set; masked entries must have ``sup_A == A``. ``equality`` marks
    the rows that hold with equality, ``A[i] x = b[i]``; only fully masked
    rows may. It is None when there are none, and an all-False array is
    stored as None. ``A`` and ``b`` must be finite. Arrays are frozen
    read-only so instances can be shared across threads.
    """

    A: np.ndarray
    b: np.ndarray
    zero_mask: np.ndarray
    sup_A: np.ndarray
    equality: np.ndarray | None = None

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        sup_A = _as_matrix(self.sup_A, "sup_A")
        b = np.asarray(self.b, dtype=float)
        mask = np.asarray(self.zero_mask, dtype=bool)
        m, n = A.shape
        if b.shape != (m,):
            raise DimensionError(f"b must have shape ({m},), got {b.shape}")
        _require_finite(A, "A")
        _require_finite(b, "b")
        if sup_A.shape != (m, n):
            raise DimensionError(f"sup_A must have shape ({m}, {n}), got {sup_A.shape}")
        if mask.shape != (m, n):
            raise DimensionError(f"zero_mask must have shape ({m}, {n}), got {mask.shape}")
        if np.any(sup_A[mask] != A[mask]):
            i, j = next(zip(*np.nonzero(mask & (sup_A != A))))
            raise ValueError(f"A[{i}][{j}] = {A[i, j]} is masked as public, so sup_A[{i}][{j}] "
                             f"must equal it, got {sup_A[i, j]}")
        equality = self.equality
        if equality is not None:
            equality = np.array(equality, dtype=bool)
            if equality.shape != (m,):
                raise DimensionError(f"equality must have shape ({m},), got {equality.shape}")
            private = equality & ~mask.all(axis=1)
            if private.any():
                raise ValueError(f"row {np.flatnonzero(private)[0]} is an equality, so it must "
                                 "be public: every entry of it masked in zero_mask")
            equality = _readonly(equality) if equality.any() else None
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "b", _readonly(b))
        object.__setattr__(self, "zero_mask", _readonly(mask))
        object.__setattr__(self, "sup_A", _readonly(sup_A))
        object.__setattr__(self, "equality", equality)

    def tightened(self, A_tilde: np.ndarray) -> ConstraintSystem:
        """This system with ``A`` replaced by ``A_tilde``, any matrix of the bound set.

        Skips the checks of construction, so ``A_tilde`` must have ``A``'s
        shape, be finite, float and read-only, equal ``A`` at masked entries
        (so equality rows, which are public, keep theirs) and stay under
        ``sup_A``. ``privatize_matrix(self, ...).A_tilde`` is such a matrix by
        construction of the mechanism (acceptance criterion 04), and so is a
        finite ``sup_A`` with ``A <= sup_A``. The copy holds no cached
        :attr:`private_rows`, whose ``A`` block would be the original's.
        """
        system = object.__new__(ConstraintSystem)
        for name, value in (("A", A_tilde), ("b", self.b), ("zero_mask", self.zero_mask),
                            ("sup_A", self.sup_A), ("equality", self.equality)):
            object.__setattr__(system, name, value)
        return system

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Each row's violation at ``x``: ``A x - b``, and ``|A x - b|`` on equality rows.

        ``x`` may be a stack of points along a leading axis; each point's
        product is the one-point call's matrix-vector product.
        """
        r = (self.A @ x[..., None])[..., 0] - self.b
        if self.equality is not None:
            np.abs(r, out=r, where=self.equality)
        return r

    def inequality_form(self) -> ConstraintSystem:
        """The same region as ``A x <= b`` alone: the paper's form, which the bound reads.

        Each equality row becomes its pair ``a.x <= b_i``, ``-a.x <= -b_i``:
        the row stays in place, and the negated copies follow all rows, in
        row order. A system without equality rows is returned as is.
        """
        if self.equality is None:
            return self
        eq = self.equality
        return ConstraintSystem(A=np.vstack([self.A, -self.A[eq]]),
                                b=np.concatenate([self.b, -self.b[eq]]),
                                zero_mask=np.vstack([self.zero_mask, self.zero_mask[eq]]),
                                sup_A=np.vstack([self.sup_A, -self.A[eq]]))

    def row_nonzero_counts(self) -> np.ndarray:
        """Number of non-masked coefficients in each row."""
        return (~self.zero_mask).sum(axis=1)

    @cached_property
    def private_rows(self) -> tuple[np.ndarray, ...]:
        """Read-only ``(counts, rows, free, A, sup_A)``, computed once per system.

        ``counts`` is :meth:`row_nonzero_counts`; ``rows`` are the rows with
        a non-masked entry, and the rest are blocks of those rows.
        """
        counts = self.row_nonzero_counts()
        rows = np.flatnonzero(counts)
        return tuple(_readonly(a) for a in (counts, rows, ~self.zero_mask[rows],
                                            self.A[rows], self.sup_A[rows]))


@dataclass(frozen=True)
class LinearProgram:
    """Linear objective c over a constraint system, with implicit x >= 0."""

    c: np.ndarray
    system: ConstraintSystem
    privacy: PrivacyParams | None = field(default=None)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        n = self.system.shape[1]
        if c.shape != (n,):
            raise DimensionError(f"c must have shape ({n},), got {c.shape}")
        _require_finite(c, "c")
        object.__setattr__(self, "c", _readonly(c))

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant of the objective: the Euclidean norm of c.

        Raises ``ValueError`` when the norm overflows.
        """
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.c))
        if not math.isfinite(norm):
            raise ValueError("the norm of c overflows; entries of c are too large")
        return norm


@dataclass(frozen=True)
class ValidatedProblem:
    """A problem that passed :func:`validate`, plus the feasibility witness.

    ``witness`` satisfies sup_A x <= b and x >= 0 (with equality on
    equality rows, where ``sup_A == A``), certifying that a point
    exists that is feasible under every realization of the bound set.
    """

    problem: LinearProgram
    witness: np.ndarray

    @property
    def system(self) -> ConstraintSystem:
        return self.problem.system


_REQUIRED = object()
_NUMBER = (int, float)


def _document(text: str) -> dict:
    """The JSON object ``text`` holds, or a :class:`SchemaError` naming the document.

    orjson reads it, and ``json.loads`` decides every text orjson refuses, so
    each of those reads as it always has: the ``NaN`` and ``Infinity``
    literals ``json.dumps`` writes, a number past the float range, a lone
    surrogate, a byte-order mark and every syntax error. Both give the same
    bits for every finite number. An integer literal outside [-2^63, 2^64) is
    the one reading that differs: orjson returns the nearest float, not an int.

    orjson reads nesting of any depth, but overflows the C stack near 10^5
    levels. The count of ``[`` and ``{`` bounds the depth, so a text with at
    least as many as the recursion limit (1000 by default) goes to
    ``json.loads`` alone, which refuses nesting that deep by name; a matrix
    with that many rows is read there too, at ``json.loads``'s speed.
    """
    data = text.encode("utf-8", "surrogatepass")  # orjson refuses a lone surrogate's bytes
    codes = np.frombuffer(data, np.uint8)
    openers = np.count_nonzero((codes == ord("[")) | (codes == ord("{")))  # bound the depth
    try:
        try:
            doc = orjson.loads(data) if openers < sys.getrecursionlimit() else json.loads(text)
        except orjson.JSONDecodeError:
            doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"document: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError("document: top level must be a JSON object")
    return doc


def _field(doc: dict, key: str, convert, default=_REQUIRED):
    """``convert(doc[key])``, or ``default`` when ``key`` is absent and not required.

    Every document field is read here: a converter's ``TypeError`` or
    ``ValueError`` becomes a :class:`SchemaError` that starts with the key
    (``key.inner`` for a nested field).
    """
    if key not in doc:
        if default is _REQUIRED:
            raise SchemaError(f"{key}: missing required field")
        return default
    try:
        return convert(doc[key])
    except SchemaError as exc:
        raise SchemaError(f"{key}.{exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise SchemaError(f"{key}: {exc}") from None


def _integer(value) -> int:
    """A JSON integer; a boolean is not one."""
    if type(value) is not int:
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _real(value, name: str = ""):
    """A finite JSON number, returned as it was read; a boolean is not one."""
    if type(value) not in _NUMBER or not math.isfinite(value):
        raise ValueError(f"{name}must be a finite number, got {value!r}")
    return value


def _shape(value, kinds: tuple, what: str) -> tuple[int, int]:
    """The shape of ``value``, a non-empty array of equally long non-empty arrays of ``kinds``."""
    if not (type(value) is list and value and set(map(type, value)) == {list}):
        raise ValueError("must be a non-empty array of arrays")
    if len(set(map(len, value))) > 1 or not value[0]:
        raise ValueError("rows must all have the same length")
    # by type, since numpy reads true as 1.0; set(map(type, ...)) runs in C, ~40 us on 40x40
    found = set(map(type, itertools.chain.from_iterable(value))).difference(kinds)
    if found:
        raise ValueError(f"entries must be {what}, got {min(t.__name__ for t in found)}")
    return len(value), len(value[0])


def _matrix(value) -> np.ndarray:
    """A rectangular array of arrays of finite numbers, as a float matrix."""
    m, n = _shape(value, _NUMBER, "numbers")
    arr = np.fromiter(itertools.chain.from_iterable(value), float, m * n).reshape(m, n)
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    return arr


def _vector(value) -> np.ndarray:
    """A non-empty array of finite numbers, as floats."""
    if not (type(value) is list and value):
        raise ValueError("must be a non-empty array")
    return _matrix([value])[0]


def _mask(value) -> np.ndarray:
    """A rectangular array of arrays of booleans, as a boolean matrix."""
    shape = _shape(value, (bool,), "booleans")
    # a boolean is the int 0 or 1, so the entries pack into bytes in C
    return np.frombuffer(bytes(itertools.chain.from_iterable(value)), dtype=bool).reshape(shape)


def _privacy(block) -> PrivacyParams:
    """The privacy block: three finite numbers, whose ranges :class:`PrivacyParams` checks."""
    if type(block) is not dict:
        raise ValueError("must be an object")
    return PrivacyParams(*(_field(block, key, _real) for key in ("epsilon", "delta", "k")))


def load_problem(text: str) -> LinearProgram:
    """Parse a JSON problem document.

    Schema::

        { "c": [n], "A": [m][n], "b": [m], "sup_A": [m][n],
          "zero_mask": [m][n] (optional),
          "privacy": {"epsilon": e, "delta": d, "k": k} (optional) }

    Numbers are JSON numbers (a boolean is not one) and must be finite; an
    integer literal outside [-2^63, 2^64) reads as the nearest float (see
    :func:`_document`). When ``zero_mask`` is absent it is inferred from the
    zero entries of ``A``. Raises :class:`SchemaError` naming the offending
    field, or :class:`DimensionError` on shape mismatches.
    """
    doc = _document(text)
    A = _field(doc, "A", _matrix)
    sup_A = _field(doc, "sup_A", _matrix)
    b = _field(doc, "b", _vector)
    c = _field(doc, "c", _vector)
    mask = _field(doc, "zero_mask", _mask, None)
    privacy = _field(doc, "privacy", _privacy, None)
    system = ConstraintSystem(A=A, b=b, zero_mask=A == 0.0 if mask is None else mask, sup_A=sup_A)
    return LinearProgram(c=c, system=system, privacy=privacy)


def validate(p: LinearProgram) -> ValidatedProblem:
    """Check the standing assumptions and return the problem tagged as valid.

    Checks, in order: every entry of A is within its public bound, the
    bounds are finite, and the worst-case region {x >= 0 : sup_A x <= b} is
    non-empty (established constructively by a phase-1 feasibility solve).
    The worst-case region equals the intersection of the feasible regions of
    all matrices in the bound set, so its witness point stays feasible under
    any tightening. Deterministic and side-effect free.
    """
    from .simplex import phase1_feasible

    sys_ = p.system
    if not np.isfinite(sys_.sup_A).all():
        i, j = next(zip(*np.nonzero(~np.isfinite(sys_.sup_A))))
        raise MembershipError(f"sup_A[{i}][{j}] is not finite; the bound set must be bounded")
    over = sys_.A > sys_.sup_A
    if over.any():
        i, j = next(zip(*np.nonzero(over)))
        raise MembershipError(
            f"A[{i}][{j}] = {sys_.A[i, j]} exceeds sup_A[{i}][{j}] = {sys_.sup_A[i, j]}")

    witness = phase1_feasible(sys_.tightened(sys_.sup_A))
    if witness is None:
        raise FeasibilityAssumptionError(
            "the worst-case region {x >= 0 : sup_A x <= b} is empty; no point is feasible "
            "under every realization of the bounded constraint set, so tightened constraints "
            "cannot be guaranteed feasible")
    return ValidatedProblem(problem=p, witness=witness)
