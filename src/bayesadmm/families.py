"""Exponential-family algebra for three Gaussian families.

The families differ only in how the precision is constrained:

==============  ======================  =========================  ==========================
kind            natural coordinates     sufficient statistic       expectation coordinates
==============  ======================  =========================  ==========================
``isotropic``   m                       theta                      m
``diag``        (s*m, -s/2)             (theta, theta^2)           (m, m^2 + 1/s)
``full``        (S m, -S/2)             (theta, theta theta^T)     (m, m m^T + S^-1)
==============  ======================  =========================  ==========================

``NatParam`` stores the mean/precision pair internally and converts to the
ambient coordinate blocks above only at the boundary (``coords``/``as_dual``).
``DualVec`` holds raw ambient blocks with no positivity constraint: sums and
differences of natural parameters land there, and so do natural gradients and
prior terms.  All values are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import base64
import ctypes
import functools
import itertools
import math
import os
import sys
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from importlib import machinery, util

import numpy as np

from .errors import DegenerateMoment, FamilyMismatch, NonPositivePrecision

Array = np.ndarray

LOG_2PI = math.log(2.0 * math.pi)

ISOTROPIC = "isotropic"
DIAG = "diag"
FULL = "full"
KINDS = (ISOTROPIC, DIAG, FULL)

# Families whose ambient layout has a second (precision-carrying) block.
TWO_BLOCK = (DIAG, FULL)


def _frozen(a, dtype=float) -> Array:
    """Copy to a read-only float array."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _exactly_symmetric(mat: Array):
    """Whether each matrix of ``mat`` (..., d, d) equals its transpose bit for bit.

    ``+0.0`` against ``-0.0`` does not.  One matrix gives one ``np.bool_``, a
    (K, d, d) stack a (K,) array.
    """
    bits = mat.view(np.uint64)
    return (bits == np.swapaxes(bits, -1, -2)).reshape(*bits.shape[:-2], -1).all(axis=-1)


def _symmetrize(mat: Array, tol: float | None = 1e-8) -> Array:
    """``0.5 * (mat + mat.T)``, C-ordered; an exactly symmetric ``mat`` is that already.

    With a ``tol``, an asymmetry above ``tol`` times the largest entry (or 1)
    raises :class:`NonPositivePrecision`; with ``None`` any square matrix is
    averaged.  The shortcut changes no bit: ``0.5 * (a + a) == a`` for every
    float up to about 9e307, above which the average used to overflow to inf.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NonPositivePrecision(f"expected a square matrix, got shape {mat.shape}")
    if _exactly_symmetric(mat):
        return np.ascontiguousarray(mat)
    if tol is not None:
        scale = max(1.0, float(np.max(np.abs(mat))))
        if float(np.max(np.abs(mat - mat.T))) > tol * scale:
            raise NonPositivePrecision("matrix is not symmetric")
    return 0.5 * (mat + mat.T)


def chol_spd(mat: Array) -> Array:
    """Lower Cholesky factor of a symmetric positive-definite matrix, of that matrix exactly.

    One ``np.linalg.cholesky`` of the symmetrized ``mat``.  A matrix it
    rejects, which is not positive definite in floating point, raises
    :class:`NonPositivePrecision`; nothing is added to the diagonal.
    """
    mat = _symmetrize(mat)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NonPositivePrecision("matrix is not positive definite") from exc


@functools.cache
def _lapack():
    """LAPACK ``dtrtrs`` and ``dpotri`` for float64, loaded on first use, called without the GIL.

    They are the Fortran routines behind the f2py objects
    ``scipy.linalg.get_lapack_funcs`` returns, from the compiled module
    ``scipy.linalg._flapack``, called through the function pointer in each
    object's ``_cpointer`` capsule by ``ctypes``: the same code on the same
    arguments, so the same bits.  The f2py wrappers hold the GIL for the whole
    call, and a ``ctypes`` foreign call releases it, so a round's checks on a
    second thread (``federation.run_rounds``) invert and solve beside the next
    round's engine.  Each routine takes, after its own arguments, gfortran's
    hidden ``size_t`` length of each character argument.  (The same routines
    in ``scipy.linalg.cython_lapack`` take none, but loading that module
    runs ``scipy/__init__.py`` and took about four times as long.)

    The import system's own finder loads the module without running
    ``scipy/linalg/__init__.py``, which takes about a third of a second
    (through scipy's array-API layer it pulls in ``numpy.f2py``,
    ``numpy.testing`` and more), and the ``scipy`` package's directory comes
    from its spec, without running ``scipy/__init__.py`` either.  Loading an
    extension module enters it in ``sys.modules``; one this function loaded
    is taken out again, so a later ``import scipy.linalg`` loads the module
    itself, from the same routines, and sets its ``_flapack`` attribute.  Only
    the ``full`` family needs it; constructing a full :class:`Family` calls
    this, so a run pays for the load in its setup.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        package, spec = util.find_spec("scipy"), None
        if package is not None and package.submodule_search_locations:
            loader = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
            directory = os.path.join(package.submodule_search_locations[0], "linalg")
            spec = machinery.FileFinder(directory, loader).find_spec(name)
        if spec is None:
            raise ImportError(f"no LAPACK extension module {name} in scipy", name=name)
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    char, size, data, length = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p, ctypes.c_size_t
    # dtrtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info) and dpotri(uplo, n, a, lda, info).
    trtrs = ctypes.CFUNCTYPE(None, char, char, char, size, size, data, size, data, size, size, length, length, length)
    potri = ctypes.CFUNCTYPE(None, char, size, data, size, size, length)
    return trtrs(pointer(module.dtrtrs._cpointer, None)), potri(pointer(module.dpotri._cpointer, None))


def _require_finite(a: Array) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _lapack_result(x: Array, info: int, routine: str) -> Array:
    """``x``, or scipy's errors for a failed LAPACK call: a zero diagonal is singular."""
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")
    return x


def _chol_solve_rows(lows: Array, rhs: Array, trans: bytes = b"TN") -> Array:
    """Triangular solves with each lower factor of a (K, d, d) stack for its rows of ``rhs``.

    ``rhs`` is (K, d), or (K, r, d) for r right-hand sides per factor.  Each
    letter of ``trans`` is one LAPACK ``dtrtrs`` call per factor, solving in
    place in one C-ordered copy of ``rhs``: a C-ordered factor ``low`` is its
    Fortran-ordered transpose, the upper factor, so ``b"T"`` solves
    ``low @ x = b`` and ``b"N"`` solves ``low.T @ x = b``, the calls
    ``scipy.linalg.solve_triangular`` makes with the same arguments, so the
    same bits.  The default ``b"TN"`` solves ``(low @ low.T) @ x = rhs``.
    Each stacked array is checked once, and each solve's result before the
    next: a non-finite entry is scipy's ``ValueError``, a zero diagonal its
    ``LinAlgError``.
    """
    _require_finite(lows)
    _require_finite(rhs)
    x = np.array(rhs, dtype=float, order="C")
    count, d = len(x), x.shape[-1]
    if x.ndim not in (2, 3) or lows.shape != (count, d, d):
        raise ValueError(f"cannot solve with factors of shape {lows.shape} for rows of shape {x.shape}")
    lows = np.ascontiguousarray(lows, dtype=float)
    trtrs, _ = _lapack()
    r = 1 if x.ndim == 2 else x.shape[1]
    n, nrhs, info = ctypes.c_int(d), ctypes.c_int(r), ctypes.c_int()
    factors, rows, step = lows.ctypes.data, x.ctypes.data, lows.strides[0]
    for i in range(len(trans)):
        if i:
            _require_finite(x)
        how = trans[i:i + 1]
        for k in range(count):
            trtrs(b"U", how, b"N", n, nrhs, factors + k * step, n, rows + 8 * k * r * d, n, info, 1, 1, 1)
            _lapack_result(x, info.value, "trtrs")
    return x


@functools.cache
def _strict_upper(d: int) -> Array:
    """Read-only mask of the entries above the diagonal of a ``d`` by ``d`` matrix."""
    return _frozen(np.triu(np.ones((d, d), dtype=bool), 1), dtype=bool)


def _chol_inverse(low: Array) -> Array:
    """Inverse of ``low @ low.T`` from its lower Cholesky factor, by LAPACK ``dpotri``.

    ``dpotri`` fills one triangle.  The other is its mirror image, and both
    are ``entry + 0.0``, so the result is symmetric bit for bit (signed zeros
    too) and C-ordered.  Errors as in :func:`_chol_solve_rows`.
    """
    _require_finite(low)
    _, potri = _lapack()
    # dpotri reads Fortran order, where a C-ordered copy of ``low`` is its upper factor ``low.T``,
    # and writes the inverse's upper triangle there: the lower one in C order.
    out = np.array(low, dtype=float, order="C")
    n = len(out)
    if out.shape != (n, n):
        raise ValueError(f"cannot invert from a factor of shape {out.shape}")
    size, info = ctypes.c_int(max(n, 1)), ctypes.c_int()
    potri(b"U", ctypes.c_int(n), out.ctypes.data, size, info, 1)
    _lapack_result(out, info.value, "potri")
    out += 0.0
    upper = _strict_upper(n)
    out[upper] = out.T[upper]
    return out


def _chol_logdet(low: Array) -> float:
    """``log det(low @ low.T)`` given its lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(low))))


# ---------------------------------------------------------------------------
# family descriptor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """Which Gaussian family, and its dimension."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FamilyMismatch(f"unknown family kind {self.kind!r}")
        if self.dim < 1:
            raise FamilyMismatch("dim must be >= 1")
        if self.kind == FULL:
            _lapack()

    # -- constructors ------------------------------------------------------

    @classmethod
    def isotropic(cls, dim: int) -> "Family":
        """Unit-precision Gaussian N(m, I); recovers plain gradient methods."""
        return cls(ISOTROPIC, dim)

    @classmethod
    def diag(cls, dim: int) -> "Family":
        return cls(DIAG, dim)

    @classmethod
    def full(cls, dim: int) -> "Family":
        return cls(FULL, dim)

    # -- helpers -----------------------------------------------------------

    @property
    def two_block(self) -> bool:
        return self.kind in TWO_BLOCK


def check_same_family(a, b):
    if a.fam is not b.fam and a.fam != b.fam:
        raise FamilyMismatch(f"family mismatch: {a.fam.kind}/{a.fam.dim} vs {b.fam.kind}/{b.fam.dim}")


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


def _second_shape(fam: Family) -> tuple[int, ...] | None:
    """Shape of ``fam``'s second (precision-carrying) block; ``None`` where it has none."""
    return {DIAG: (fam.dim,), FULL: (fam.dim, fam.dim)}.get(fam.kind)


def _blocks(fam: Family, first, second, tol: float | None = 1e-8) -> tuple[Array, Array | None]:
    """Read-only copies of a container's two blocks, checked against ``fam``'s layout.

    The first block has shape ``(dim,)``.  The second is absent for
    ``isotropic``, a length-``dim`` vector for ``diag`` and a
    square matrix for ``full``, symmetrized by :func:`_symmetrize` with ``tol``.
    Any other layout raises :class:`FamilyMismatch`.
    """
    b1 = _frozen(first)
    if b1.shape != (fam.dim,):
        raise FamilyMismatch(f"first block shape {b1.shape} != ({fam.dim},)")
    shape = _second_shape(fam)
    if shape is None:
        if second is not None:
            raise FamilyMismatch(f"{fam.kind} family has a single-block layout")
        return b1, None
    if second is None:
        raise FamilyMismatch(f"{fam.kind} family requires a second block")
    b2 = np.asarray(second, dtype=float)
    if b2.shape != shape:
        raise FamilyMismatch(f"second block shape {b2.shape} != {shape}")
    if fam.kind == FULL:
        b2 = _symmetrize(b2, tol)
    return b1, _frozen(b2)


@dataclass(frozen=True)
class NatParam:
    """Natural parameter, stored as mean plus precision (where the family has one).

    ``prec`` is the precision vector (``diag``) or matrix (``full``); it is
    ``None`` for the isotropic family, whose precision is I.  The constructor enforces
    strict positivity of the encoded precision and finiteness of every
    entry (``np.linalg.cholesky`` factors ``[[inf]]``).  A full precision keeps in
    ``_chol`` the exact lower Cholesky factor of ``prec`` itself, so a full
    ``NatParam`` exists only for a precision that ``np.linalg.cholesky``
    accepts; :meth:`from_dual` hands over the one it already made, so each
    step factors once.  A caller passing ``_chol`` vouches that it is
    :func:`chol_spd` of ``prec``.
    """

    fam: Family
    m: Array
    prec: Array | None = None
    _chol: Array | None = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        m, prec = _blocks(self.fam, self.m, self.prec)
        if self.fam.kind == DIAG:
            if not np.all((prec > 0.0) & (prec < np.inf)):
                raise NonPositivePrecision("diag precision has entries <= 0 or not finite")
        elif self.fam.kind == FULL:
            if not np.isfinite(prec).all():
                raise NonPositivePrecision("full precision has non-finite entries")
            low = chol_spd(prec) if self._chol is None else self._chol
            object.__setattr__(self, "_chol", _frozen(low))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "prec", prec)

    # -- ambient coordinates -----------------------------------------------

    def coords(self) -> tuple[Array, Array | None]:
        """Ambient coordinate blocks per the family table: :func:`coords_rows` of one."""
        b1, b2 = coords_rows(self.fam, self.m[None], None if self.prec is None else self.prec[None])
        return b1[0], None if b2 is None else b2[0]

    def as_dual(self) -> "DualVec":
        b1, b2 = self.coords()
        return _wrap(DualVec, self.fam, b1, b2)

    @classmethod
    def from_dual(cls, dual: "DualVec") -> "NatParam":
        """Reinterpret ambient coordinates as a natural parameter: :func:`from_dual_rows` of one.

        Raises :class:`NonPositivePrecision` when the encoded precision fails
        positivity; callers decide whether that is an error or a reportable
        divergence.
        """
        b2 = None if dual.b2 is None else dual.b2[None]
        return nat_rows(dual.fam, *from_dual_rows(dual.fam, dual.b1[None], b2))[0]


# Stacked rows: K parameters of one family, each block with a leading client
# axis, so a step of K solves pays each numpy call once.  A single parameter
# is the stack of one.


def from_dual_rows(fam: Family, b1: Array, b2: Array | None) -> tuple[Array, Array | None, Array | None]:
    """Mean, precision and precision factor of each row of stacked ambient blocks.

    ``b1`` is (K, dim) and ``b2`` (K, ...) or ``None``; each row is read as
    :meth:`NatParam.from_dual` reads one dual, and the full kind factors all K
    precisions in one ``np.linalg.cholesky`` call (the same LAPACK call per
    matrix).  Raises :class:`NonPositivePrecision` if any row's precision
    fails, without saying which: a caller that needs to know redoes the rows
    one at a time.  The results are fresh, or ``b1`` itself (isotropic).
    """
    if fam.kind == ISOTROPIC:
        return b1, None, None
    prec = -2.0 * b2
    if fam.kind == DIAG:
        if not np.all(prec > 0.0):
            raise NonPositivePrecision("coordinate block encodes nonpositive precision")
        return b1 / prec, prec, None
    # Each row of ``b2`` is exactly symmetric, and so is its precision: factor it as it is.
    try:
        low = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NonPositivePrecision("matrix is not positive definite") from exc
    return _chol_solve_rows(low, b1), prec, low


def coords_rows(fam: Family, m: Array, prec: Array | None) -> tuple[Array, Array | None]:
    """Ambient coordinate blocks of each row of stacked means (K, dim) and precisions (K, ...)."""
    if fam.kind == ISOTROPIC:
        return m, None
    if fam.kind == DIAG:
        return prec * m, -0.5 * prec
    return (prec @ m[..., None])[..., 0], -0.5 * prec


def nat_rows(fam: Family, m: Array, prec: Array | None, low: Array | None) -> list["NatParam"]:
    """One :class:`NatParam` per row of :func:`from_dual_rows`' results, wrapped, not copied."""
    return [_wrap(NatParam, fam, m[k], None if prec is None else prec[k], None if low is None else low[k])
            for k in range(len(m))]


@dataclass(frozen=True)
class ExpParam:
    """Expectation parameter: first moment plus raw second moment where present.

    A two-block family also keeps the covariance in ``_cov``.  The public
    constructor derives it as ``m2 - m m^T`` and raises
    :class:`DegenerateMoment` unless it is positive (diag) or positive
    definite (full, by one :func:`chol_spd`).  :func:`to_expectation` keeps
    the covariance it built ``m2`` from, so :func:`to_natural` never takes
    ``m m^T`` back out of ``m2``, which cancels catastrophically once the mean
    dwarfs the standard deviation.
    """

    fam: Family
    m: Array
    m2: Array | None = None
    _cov: Array | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        m, m2 = _blocks(self.fam, self.m, self.m2)
        object.__setattr__(self, "m", m)
        if m2 is None:
            return
        if self.fam.kind == DIAG:
            cov = m2 - m * m
            if not np.all(cov > 0.0):
                raise DegenerateMoment("implied variance has entries <= 0")
        else:
            cov = m2 - np.outer(m, m)
            try:
                chol_spd(cov)
            except NonPositivePrecision as exc:
                raise DegenerateMoment("implied covariance is not positive definite") from exc
        object.__setattr__(self, "m2", m2)
        object.__setattr__(self, "_cov", _frozen(cov))


@dataclass(frozen=True)
class DualVec:
    """Raw ambient-layout vector: unconstrained, unlike ``NatParam``.

    Differences of natural parameters, natural gradients, prior terms and
    Lagrange multipliers all live here.  The second block stores the ambient
    value directly, i.e. ``-u/2`` (diag) or ``-V/2`` (full).
    """

    fam: Family
    b1: Array
    b2: Array | None = None

    def __post_init__(self):
        b1, b2 = _blocks(self.fam, self.b1, self.b2, tol=None)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)

    # Named views matching how round updates are written.
    @property
    def v(self) -> Array:
        return self.b1

    @property
    def u(self) -> Array:
        """-2 times the second block (the precision-like payload)."""
        if self.b2 is None:
            raise FamilyMismatch(f"{self.fam.kind} family has no second block")
        return -2.0 * self.b2


_FIELD_NAMES = {cls: tuple(f.name for f in fields(cls)) for cls in (NatParam, ExpParam, DualVec)}


def _wrap(cls, fam: Family, *arrays):
    """A container around the family algebra's own results: frozen in place, not copied or rechecked.

    Only for arrays this module's arithmetic has just made from valid
    containers and that nothing else holds: their shapes, positivity and
    exact symmetry follow from the inputs.  Everything from outside goes
    through the public constructor, which copies and checks it.  ``arrays``
    fill the fields after ``fam`` in order; the rest are ``None``.
    """
    for a in arrays:
        if a is not None:
            a.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(zip(_FIELD_NAMES[cls], (fam, *arrays, None, None)))
    return obj


def dual_zero(fam: Family) -> DualVec:
    shape = _second_shape(fam)
    return DualVec(fam, np.zeros(fam.dim), None if shape is None else np.zeros(shape))


def _axpy(a: float, x: Array, y: Array) -> Array:
    out = np.multiply(a, x)
    out += y
    return out


def dual_axpy(a: float, x: DualVec, y: DualVec) -> DualVec:
    """``a * x + y`` componentwise in the ambient layout."""
    check_same_family(x, y)
    if x.fam.two_block:
        return _wrap(DualVec, x.fam, _axpy(a, x.b1, y.b1), _axpy(a, x.b2, y.b2))
    return _wrap(DualVec, x.fam, _axpy(a, x.b1, y.b1))


def dual_scale(a: float, x: DualVec) -> DualVec:
    """``a * x + 0.0``: the bits of ``dual_axpy`` onto :func:`dual_zero`, without building the zero."""
    if x.fam.two_block:
        return _wrap(DualVec, x.fam, _axpy(a, x.b1, 0.0), _axpy(a, x.b2, 0.0))
    return _wrap(DualVec, x.fam, _axpy(a, x.b1, 0.0))


def dual_sum(vecs: Iterable[DualVec]) -> DualVec:
    """Sum in the given (client-id) order with compensated summation.

    Each vector is added as it comes, so summing a generator holds one of
    its vectors at a time, with the same bits as summing their list.
    """
    vecs = iter(vecs)
    first = next(vecs, None)
    if first is None:
        raise ValueError("dual_sum of an empty list")
    sums = [_Kahan(first.b1)] + ([_Kahan(first.b2)] if first.fam.two_block else [])
    for v in itertools.chain([first], vecs):
        check_same_family(first, v)
        for kahan, block in zip(sums, (v.b1, v.b2)):
            kahan.add(block)
    return _wrap(DualVec, first.fam, *(kahan.total for kahan in sums))


class _Kahan:
    """Compensated sum fed one array at a time: ``y = a - carry; t = total + y; carry = (t - total) - y``."""

    def __init__(self, like: Array):
        self.total, self.carry = np.zeros_like(like), np.zeros_like(like)
        self._y, self._t = np.empty_like(like), np.empty_like(like)

    def add(self, a: Array) -> None:
        np.subtract(a, self.carry, out=self._y)
        np.add(self.total, self._y, out=self._t)
        np.subtract(self._t, self.total, out=self.carry)
        self.carry -= self._y
        self.total, self._t = self._t, self.total


def _kahan(arrays: Iterable[Array]) -> Array:
    """:class:`_Kahan` of ``arrays`` in order."""
    arrays = iter(arrays)
    first = next(arrays)
    total = _Kahan(first)
    for a in itertools.chain([first], arrays):
        total.add(a)
    return total.total


def dual_inf_norm(x: DualVec) -> float:
    out = float(np.max(np.abs(x.b1))) if x.b1.size else 0.0
    if x.b2 is not None:
        out = max(out, float(np.max(np.abs(x.b2))))
    return out


def dual_sub(x: DualVec, y: DualVec) -> DualVec:
    """``x - y`` componentwise in the ambient layout."""
    check_same_family(x, y)
    if x.fam.two_block:
        return _wrap(DualVec, x.fam, x.b1 - y.b1, x.b2 - y.b2)
    return _wrap(DualVec, x.fam, x.b1 - y.b1)


def nat_sub(lam_a: NatParam, lam_b: NatParam) -> DualVec:
    """Ambient difference of natural parameters (lands in dual space)."""
    return dual_sub(lam_a.as_dual(), lam_b.as_dual())


def exp_sub(mu_a: ExpParam, mu_b: ExpParam) -> DualVec:
    """Ambient difference of expectation parameters, in the same container."""
    check_same_family(mu_a, mu_b)
    if mu_a.fam.two_block:
        return _wrap(DualVec, mu_a.fam, mu_a.m - mu_b.m, mu_a.m2 - mu_b.m2)
    return _wrap(DualVec, mu_a.fam, mu_a.m - mu_b.m)


def pair_with_stat(dual: DualVec, theta: Array) -> float:
    """Inner product of an ambient vector with the sufficient statistic at theta.

    This is the log of the site factor parameterized by ``dual``.
    """
    theta = np.asarray(theta, dtype=float)
    out = float(dual.b1 @ theta)
    if dual.b2 is None:
        return out
    if dual.fam.kind == DIAG:
        return out + float(dual.b2 @ (theta * theta))
    return out + float(theta @ dual.b2 @ theta)


# ---------------------------------------------------------------------------
# dual maps, log partition, divergence
# ---------------------------------------------------------------------------


def to_expectation(lam: NatParam) -> ExpParam:
    """Forward dual map: expectation parameter of ``lam``, keeping the covariance.

    The precision is positive definite (diag entries positive; a full one
    has ``_chol``, its exact Cholesky factor), so its inverse is too, and the
    covariance is outside the moment cone only where float64 cannot hold it:
    an entry that overflowed, or a diag ``1/inf`` of 0.  Raises
    :class:`DegenerateMoment` then, without factoring the covariance.
    """
    kind = lam.fam.kind
    if kind == ISOTROPIC:
        return _wrap(ExpParam, lam.fam, lam.m)
    if kind == DIAG:
        cov = 1.0 / lam.prec
        m2 = lam.m * lam.m + cov
        in_cone = np.all((cov > 0.0) & (cov < np.inf))
    else:
        cov = _chol_inverse(lam._chol)
        m2 = np.outer(lam.m, lam.m) + cov
        in_cone = np.isfinite(cov).all()
    if not in_cone:
        raise DegenerateMoment("implied covariance is not finite and positive")
    return _wrap(ExpParam, lam.fam, lam.m, m2, cov)


def to_natural(mu: ExpParam) -> NatParam:
    """Inverse dual map: inverts the covariance ``mu`` keeps.

    Raises :class:`DegenerateMoment` when that covariance is not positive
    definite or its inverse overflows.
    """
    kind = mu.fam.kind
    if kind == ISOTROPIC:
        return NatParam(mu.fam, mu.m)
    try:
        return NatParam(mu.fam, mu.m, 1.0 / mu._cov if kind == DIAG else _chol_inverse(chol_spd(mu._cov)))
    except NonPositivePrecision as exc:
        raise DegenerateMoment("implied covariance is not positive definite") from exc


def log_partition(lam: NatParam) -> float:
    """Log-partition; convex in the ambient coordinates, gradient = expectation."""
    kind = lam.fam.kind
    d = lam.fam.dim
    if kind == ISOTROPIC:
        return 0.5 * float(lam.m @ lam.m) + 0.5 * d * LOG_2PI
    if kind == DIAG:
        return (
            0.5 * float(lam.prec @ (lam.m * lam.m))
            - 0.5 * float(np.sum(np.log(lam.prec)))
            + 0.5 * d * LOG_2PI
        )
    return 0.5 * float(lam.m @ lam.prec @ lam.m) - 0.5 * _chol_logdet(lam._chol) + 0.5 * d * LOG_2PI


def log_density(lam: NatParam, theta: Array) -> float:
    """Log density at theta (Gaussian base measure is the constant 1)."""
    return pair_with_stat(lam.as_dual(), theta) - log_partition(lam)


def kl(lam_a: NatParam, lam_b: NatParam) -> float:
    """KL(q_a || q_b) for same-family Gaussians, in closed form."""
    check_same_family(lam_a, lam_b)
    kind = lam_a.fam.kind
    d = lam_a.fam.dim
    dm = lam_a.m - lam_b.m
    if kind == ISOTROPIC:
        return 0.5 * float(dm @ dm)
    if kind == DIAG:
        ratio = lam_b.prec / lam_a.prec
        return 0.5 * float(
            np.sum(ratio - np.log(ratio) - 1.0) + (lam_b.prec * dm) @ dm
        )
    cov_a = _chol_inverse(lam_a._chol)
    trace = float(np.sum(lam_b.prec * cov_a))
    return 0.5 * (
        trace
        + float(dm @ lam_b.prec @ dm)
        - d
        + _chol_logdet(lam_a._chol)
        - _chol_logdet(lam_b._chol)
    )


def kl_grad_mu(lam_a: NatParam, lam_b: NatParam) -> DualVec:
    """Gradient of KL(q_a || q_b) in the expectation coordinates of ``q_a``.

    Equals the natural-parameter difference exactly, so this shares its
    arithmetic with :func:`nat_sub`.
    """
    return nat_sub(lam_a, lam_b)


def sample(lam: NatParam, count: int, seed=None) -> Array:
    """Draw ``count`` samples; deterministic given ``seed``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, lam.fam.dim))
    kind = lam.fam.kind
    if kind == ISOTROPIC:
        return lam.m + z
    if kind == DIAG:
        return lam.m + z / np.sqrt(lam.prec)
    # theta = m + L^-T z  gives covariance (L L^T)^-1 = S^-1.
    return lam.m + _chol_solve_rows(lam._chol[None], z[None], b"N")[0]


# ---------------------------------------------------------------------------
# JSON serialization (named fields; arrays through one binary-exact codec)
# ---------------------------------------------------------------------------


# A block stored against a guess starts with this marker, then the CRC-32 of its own words
# as eight hex digits and a colon; base64 has no colon.
GUESS_MARK = "guess:"


def array_to_jsonable(a: Array, triangle: bool = False, xor: Array | None = None,
                      guess: Array | None = None) -> str:
    """``a``'s little-endian float64 words in C order as one base64 string, bit for bit.

    The words are stored as byte planes, byte 0 of every word, then byte 1,
    and so on, deflated by zlib's run-length strategy at level 1: a float
    array's sign and exponent planes repeat where its mantissa planes are
    noise, which is what the shuffle filters of HDF5 and Blosc exploit.  With
    ``triangle``, a square ``a`` keeps only its upper triangle, row by row with
    the diagonal.  With ``xor``, an array of ``a``'s shape cut the same way,
    each word is XORed with ``xor``'s: near-copies of ``xor`` leave planes of
    zero bits.  A ``guess`` is such an array that the reader must rebuild: where
    it is finite and the string XORed with it is shorter, the result is
    :data:`GUESS_MARK`, the CRC-32 of ``a``'s own words as eight hex digits, a
    colon and that string.  The string holds no shape; :func:`array_from_jsonable` is given it.
    """
    a = np.ascontiguousarray(a, dtype="<f8")
    cut = _upper_indices(a.shape[0]) if triangle else ...
    words = a.view("<u8")[cut]
    plain = _deflated(words if xor is None else words ^ _words(xor, cut))
    if guess is None or not np.isfinite(guess).all():
        return plain
    coded = _deflated(words ^ _words(guess, cut))
    return f"{GUESS_MARK}{zlib.crc32(words.tobytes()):08x}:{coded}" if len(coded) < len(plain) else plain


def _words(a: Array, cut) -> Array:
    return np.ascontiguousarray(a, dtype="<f8").view("<u8")[cut]


def _deflated(words: Array) -> str:
    planes = words.reshape(-1, 1).view(np.uint8).T.tobytes()
    deflate = zlib.compressobj(1, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
    return base64.b64encode(deflate.compress(planes) + deflate.flush()).decode("ascii")


def is_guessed(data) -> bool:
    """Whether ``data`` is a string :func:`array_to_jsonable` stored against a guess."""
    return isinstance(data, str) and data.startswith(GUESS_MARK)


def array_from_jsonable(data: str, shape: tuple[int, ...], triangle: bool = False,
                        xor: Array | None = None, guess: Array | None = None) -> Array:
    """Inverse of :func:`array_to_jsonable` for an array of ``shape``; a writable copy, bit for bit.

    ``triangle`` and ``xor`` must be the writer's; a ``triangle`` is mirrored
    back into the lower half.  A string stored against a guess is XORed with
    ``guess`` instead, and its words must then match its CRC-32.  A value that
    is not a string, corrupt base64, a corrupt or truncated deflate stream, a
    byte count other than ``shape``'s, a string stored against a guess with no
    ``guess`` given, or words that fail their CRC-32 (a rebuilt ``guess`` that is
    not the writer's) is a ``ValueError``; zlib's Adler-32 checksum guards the
    stream itself.
    """
    if not isinstance(data, str):
        raise ValueError(f"expected a base64 string, got {type(data).__name__}")
    crc = None
    if is_guessed(data):
        crc, _, data = data[len(GUESS_MARK):].partition(":")
        if guess is None:
            raise ValueError("stored against a guess, and no guess was rebuilt")
        xor = guess
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:
        raise ValueError(f"corrupt base64: {exc}") from None
    try:
        planes = zlib.decompress(raw)
    except zlib.error as exc:
        raise ValueError(f"corrupt or truncated deflate stream: {exc}") from None
    count = shape[0] * (shape[0] + 1) // 2 if triangle else math.prod(shape)
    if len(planes) != 8 * count:
        what = "upper triangle" if triangle else "array"
        raise ValueError(f"{what} of shape {shape} needs {8 * count} bytes, got {len(planes)}")
    words = np.frombuffer(planes, dtype=np.uint8).reshape(8, count).T.copy().view("<u8").ravel()
    cut = _upper_indices(shape[0]) if triangle else ...
    if xor is not None:
        words = words ^ _words(xor, cut).ravel()
    if crc is not None and (found := f"{zlib.crc32(words.tobytes()):08x}") != crc:
        raise ValueError(f"CRC-32 {found} of the words decoded against the rebuilt guess is not the stored "
                         f"{crc}: the guess rebuilt here is not the writer's, or the block is corrupt")
    flat = words.view("<f8").astype(float, copy=False)
    if not triangle:
        return flat.reshape(shape)
    out = np.empty(shape)
    rows, cols = cut
    out[rows, cols] = flat
    out[cols, rows] = flat
    return out


def entry_from_jsonable(data: dict, key: str, shape: tuple[int, ...], triangle: bool = False,
                        xor: Array | None = None, guess: Array | None = None) -> Array:
    """The array :func:`array_to_jsonable` stored under ``data[key]``; a ``ValueError`` names ``key``."""
    try:
        return array_from_jsonable(data[key], shape, triangle, xor, guess)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


@functools.cache
def _upper_indices(d: int) -> tuple[Array, Array]:
    """Row and column indices of a ``d`` by ``d`` matrix's upper triangle, row by row."""
    rows, cols = np.triu_indices(d)
    return _frozen(rows, dtype=np.intp), _frozen(cols, dtype=np.intp)


# Each two-block family's keys for a NatParam's precision and a DualVec's ``u``.  A full
# family stores both as upper triangles: a full precision and a full ``DualVec``'s second
# block are symmetric bit for bit (README, "Library layout"), so the mirror loses no bit.
_JSON_KEYS = {DIAG: ("s", "u"), FULL: ("S", "V")}


def nat_to_jsonable(lam: NatParam, xor: NatParam | None = None) -> dict:
    """``lam``'s blocks; with ``xor``, each stored against ``xor``'s block under its key."""
    fam = lam.fam
    out = {"m": array_to_jsonable(lam.m, xor=None if xor is None else xor.m)}
    if fam.two_block:
        out[_JSON_KEYS[fam.kind][0]] = array_to_jsonable(lam.prec, fam.kind == FULL,
                                                         None if xor is None else xor.prec)
    return out


def nat_from_jsonable(fam: Family, data: dict, xor: NatParam | None = None) -> NatParam:
    """Inverse of :func:`nat_to_jsonable`, given the same ``xor``; each shape is ``fam``'s."""
    m = entry_from_jsonable(data, "m", (fam.dim,), xor=None if xor is None else xor.m)
    if fam.two_block:
        prec = entry_from_jsonable(data, _JSON_KEYS[fam.kind][0], _second_shape(fam), fam.kind == FULL,
                                   None if xor is None else xor.prec)
        return NatParam(fam, m, prec)
    return NatParam(fam, m)


def dual_to_jsonable(dual: DualVec, guess: DualVec | None = None) -> dict:
    """``dual``'s ``v`` block, and its ``u`` or ``V``; with ``guess``, each stored against ``guess``'s
    block under its key where that is shorter (:func:`array_to_jsonable`).

    A checkpoint's guess for a client's dual is minus the natural gradient at
    the client's own ``lam``: the dual it holds at the fixed point.
    """
    out = {"v": array_to_jsonable(dual.b1, guess=None if guess is None else guess.b1)}
    if dual.fam.two_block:
        out[_JSON_KEYS[dual.fam.kind][1]] = array_to_jsonable(dual.u, dual.fam.kind == FULL,
                                                              guess=None if guess is None else guess.u)
    return out


def dual_from_jsonable(fam: Family, data: dict, guess: DualVec | None = None) -> DualVec:
    """Inverse of :func:`dual_to_jsonable`; a block stored against a guess needs the writer's ``guess``."""
    v = entry_from_jsonable(data, "v", (fam.dim,), guess=None if guess is None else guess.b1)
    if fam.two_block:
        u = entry_from_jsonable(data, _JSON_KEYS[fam.kind][1], _second_shape(fam), fam.kind == FULL,
                                guess=None if guess is None else guess.u)
        return DualVec(fam, v, -0.5 * u)
    return DualVec(fam, v)
