"""Truncated multivariate Taylor arithmetic.

A jet stores the Taylor coefficients of a smooth function at a base
point up to a fixed total order: ``coeffs[alpha] = d^alpha f(x) /
alpha!``.  Multi-indices are enumerated by total degree and then
lexicographically, so truncation to a lower order is a prefix slice.
Coefficient arrays may carry leading batch axes; every operation is
vectorized over them.

Ring operations truncate consistently: the product of jets of orders
``p`` and ``q`` is exact to order ``min(p, q)``, derivatives drop one
order.  Polynomials of degree at most the jet order are represented
exactly, which is what makes the calculus downstream free of
discretization error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


def _graded_exponents(dim: int, order: int) -> np.ndarray:
    exps = []
    for total in range(order + 1):
        # combinations_with_replacement yields a degree's multisets in the
        # reverse of the lexicographic order of their exponent tuples
        for comb in reversed(list(itertools.combinations_with_replacement(range(dim), total))):
            exps.append([comb.count(i) for i in range(dim)])
    return np.array(exps, dtype=np.int64).reshape(-1, dim)


class JetSpace:
    """Index tables for dense jets of a given dimension and order cap."""

    def __init__(self, dim: int, order: int):
        self.dim = dim
        self.order = order
        self.exponents = _graded_exponents(dim, order)
        self.degrees = self.exponents.sum(axis=1)
        self.size = len(self.exponents)
        self.index = {tuple(e): i for i, e in enumerate(self.exponents)}
        # number of terms of degree <= m
        self.n_at = np.searchsorted(self.degrees, np.arange(order + 2), side="left")
        self._build_product_table()
        self._build_derivative_maps()
        self._shift_tables: dict[tuple[int, int], tuple] = {}
        self._frame_keys: dict[int, tuple] = {}

    def _find(self, exps: np.ndarray) -> np.ndarray:
        """Indices of exponent rows, through their base-(order + 1) codes."""
        place = (self.order + 1) ** np.arange(self.dim, dtype=np.int64)
        codes = self.exponents @ place
        srt = np.argsort(codes)
        return srt[np.searchsorted(codes[srt], exps @ place)]

    def _build_product_table(self):
        # every pair (a, b) of total degree <= order, a-major, and the
        # index of the exponent sum; the stable sort by output keeps that
        # order within each output's group
        pa, pb = np.nonzero(self.degrees[:, None] + self.degrees[None, :] <= self.order)
        pout = self._find(self.exponents[pa] + self.exponents[pb])
        srt = np.argsort(pout, kind="stable")
        self.pair_a = pa[srt]
        self.pair_b = pb[srt]
        self.pair_out = pout[srt]
        # pairs feeding outputs of degree <= m form a prefix
        self.pairs_at = np.searchsorted(self.pair_out, self.n_at, side="left")
        # reduceat group starts, one per output index
        self.group_starts = np.searchsorted(self.pair_out, np.arange(self.size))

    def _build_derivative_maps(self):
        # deriv_src[j][r], deriv_coef[j][r]: coefficient r of d/du_j f is
        # deriv_coef * coeffs[deriv_src], valid for jets of order >= 1;
        # row j holds every exponent of degree <= order-1 raised by one in j
        lower = self.exponents[: self.n_at[self.order]]
        raised = lower + np.eye(self.dim, dtype=np.int64)[:, None, :]
        self.deriv_src = self._find(raised)
        self.deriv_coef = (lower.T + 1).astype(float, order="C")

    def terms(self, order: int) -> int:
        return int(self.n_at[order + 1])

    def multiply(self, a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
        n_pairs = self.pairs_at[order + 1]
        prod = a[..., self.pair_a[:n_pairs]] * b[..., self.pair_b[:n_pairs]]
        starts = self.group_starts[: self.terms(order)]
        return np.add.reduceat(prod, starts, axis=-1)

    def multiplication_matrix(self, a: np.ndarray, order: int) -> np.ndarray:
        """Matrix M with (a * b)_r = sum_s M[r, s] b_s at the given order."""
        n = self.terms(order)
        n_pairs = self.pairs_at[order + 1]
        m = np.zeros((n, n))
        # each (out, b) pair occurs once, so a plain scatter fills M; the
        # + 0.0 gives the +0.0 that adding a -0.0 onto a zero would give
        m[self.pair_out[:n_pairs], self.pair_b[:n_pairs]] = a[self.pair_a[:n_pairs]] + 0.0
        return m

    def shift_tables(self, degree: int, order: int) -> tuple:
        """The point-free parts of `polynomial_shift_matrix`, built once.

        For monomials a of degree <= degree and b of degree <= order:
        index[b, a] is the position of the exponent a - b in the graded
        monomials of degree <= degree where b <= a coordinatewise, and 0
        (the constant monomial) elsewhere; binom[b, a] is the product of
        the coordinatewise binomials binom(a_k, b_k), which is 0 exactly
        where b <= a fails.
        """
        key = (degree, order)
        tables = self._shift_tables.get(key)
        if tables is None:
            a = self.exponents[: self.terms(degree)]
            b = self.exponents[: self.terms(order)]
            diff = a[None, :, :] - b[:, None, :]
            valid = np.all(diff >= 0, axis=-1)
            index = np.zeros(valid.shape, dtype=np.intp)
            index[valid] = self._find(diff[valid])
            top = max(degree, order) + 1
            pascal = np.array(
                [[math.comb(n, k) for k in range(top)] for n in range(top)], dtype=float
            )
            binom = np.prod(pascal[a[None, :, :], b[:, None, :]], axis=-1)
            tables = (index, binom)
            self._shift_tables[key] = tables
        return tables

    def frame_keys(self, order: int) -> tuple:
        """The point-free parts of `frames.FrameCalc`'s operators, built once.

        For the operator from jets of order `order` to order - 1 of a
        field with chart components c_j:
        (c_j * d/du_j f)_r = sum over product pairs (a, s) -> r of
        c_j[a] deriv_coef[j][s] f[deriv_src[j][s]].  Every (j, pair)
        term is listed j-major, as the flat key r * terms(order) +
        deriv_src[j][s] of the operator entry it adds to, with the
        component index (j, a) and the factor deriv_coef[j][s] that
        weigh it.  For one j the keys are distinct.
        """
        keys = self._frame_keys.get(order)
        if keys is None:
            n_pairs = self.pairs_at[order]
            out = self.pair_out[:n_pairs]
            a = self.pair_a[:n_pairs]
            s = self.pair_b[:n_pairs]
            j = np.repeat(np.arange(self.dim), n_pairs)
            flat = (out * self.terms(order) + self.deriv_src[:, s]).ravel()
            keys = (flat, j, np.tile(a, self.dim), self.deriv_coef[:, s].ravel())
            self._frame_keys[order] = keys
        return keys


_SPACES: dict[int, JetSpace] = {}


def get_space(dim: int, order: int) -> JetSpace:
    sp = _SPACES.get(dim)
    if sp is None or sp.order < order:
        sp = JetSpace(dim, max(order, 4))
        _SPACES[dim] = sp
    return sp


@dataclass
class Jet:
    """Taylor coefficients of a function at a base point.

    ``coeffs`` has shape ``(..., n_terms)`` where leading axes are a
    batch; the terms follow the graded order of the jet space.
    """

    base_point: np.ndarray
    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.base_point = np.asarray(self.base_point, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        sp = self.space
        if self.coeffs.shape[-1] != sp.terms(self.order):
            raise ValueError(
                f"coefficient length {self.coeffs.shape[-1]} does not match "
                f"order {self.order} in dimension {self.dim}"
            )

    @property
    def dim(self) -> int:
        return len(self.base_point)

    @property
    def space(self) -> JetSpace:
        return get_space(self.dim, self.order)

    @property
    def value(self) -> np.ndarray | float:
        v = self.coeffs[..., 0]
        return float(v) if v.ndim == 0 else v

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError(f"cannot extend jet of order {self.order} to {order}")
        if order == self.order:
            return self
        n = self.space.terms(order)
        return Jet(self.base_point, order, self.coeffs[..., :n])

    def _coerce(self, other):
        return other if isinstance(other, Jet) else constant_jet(other, self.base_point, self.order)

    def __add__(self, other) -> "Jet":
        other = self._coerce(other)
        m = min(self.order, other.order)
        a = self.truncated(m)
        b = other.truncated(m)
        return Jet(self.base_point, m, a.coeffs + b.coeffs)

    __radd__ = __add__

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.base_point, self.order, self.coeffs * np.asarray(other)[..., None])
        m = min(self.order, other.order)
        sp = get_space(self.dim, max(self.order, other.order))
        na = self.space.terms(m)
        coeffs = sp.multiply(self.coeffs[..., :na], other.coeffs[..., :na], m)
        return Jet(self.base_point, m, coeffs)

    def log(self) -> "Jet":
        """log of a jet with strictly positive value."""
        a0 = self.coeffs[..., :1]
        if np.any(a0 <= 0):
            raise ValueError("log requires a strictly positive jet value")
        rest = self.coeffs / a0
        rest[..., 0] = 0.0
        nil = Jet(self.base_point, self.order, rest)
        acc = self._coerce(np.log(a0[..., 0]))
        term = self._coerce(np.ones(self.coeffs.shape[:-1]))
        for k in range(1, self.order + 1):
            term = term * nil
            acc = acc + term * ((-1.0) ** (k + 1) / k)
        return acc


def constant_jet(value, base_point: np.ndarray, order: int) -> Jet:
    base_point = np.asarray(base_point, dtype=float)
    sp = get_space(len(base_point), order)
    arr = np.asarray(value, dtype=float)
    coeffs = np.zeros(arr.shape + (sp.terms(order),))
    coeffs[..., 0] = arr
    return Jet(base_point, order, coeffs)


def coordinate_jet(axis: int, base_point: np.ndarray, order: int) -> Jet:
    """Jet of the coordinate function u_axis."""
    j = constant_jet(float(np.asarray(base_point)[axis]), base_point, order)
    if order >= 1:
        sp = j.space
        e = tuple(1 if k == axis else 0 for k in range(j.dim))
        j.coeffs[..., sp.index[e]] = 1.0
    return j


def polynomial_shift_matrix(
    x: np.ndarray, dim: int, degree: int, order: int
) -> np.ndarray:
    """Matrix taking monomial coefficients to jet coefficients at x.

    For p(u) = sum_alpha c_alpha u^alpha, the jet of p at x has
    coefficients jet_beta = sum_alpha c_alpha binom(alpha, beta)
    x^(alpha - beta); returns M with jet = c @ M.T.  Only the monomials
    of degree <= degree at x depend on x: one row of `_monomials`, read
    through the space's point-free `shift_tables`, where the binomials
    also zero every entry with beta > alpha.
    """
    index, binom = get_space(dim, max(degree, order)).shift_tables(degree, order)
    return binom * _monomials(x, dim, degree)[0, index]


def lift_polynomials(
    coeffs: np.ndarray, degree: int, x: np.ndarray, order: int, shift: np.ndarray | None = None
) -> Jet:
    """Lift a batch of dense polynomials (coeffs shape (..., n_terms)).

    A caller that lifts many batches at x passes the
    `polynomial_shift_matrix` of (x, degree, order) it holds as `shift`.
    """
    x = np.asarray(x, dtype=float)
    if shift is None:
        shift = polynomial_shift_matrix(x, len(x), degree, order)
    return Jet(x, order, np.asarray(coeffs, dtype=float) @ shift.T)


# ----------------------------------------------------------------------
# Test functions: each has dim; Polynomial has eval, eval_grad and
# lift(x, order), GaussianBump only eval and ShiftedSquare only lift
# ----------------------------------------------------------------------


class Polynomial:
    """Dense polynomial over the graded monomial basis."""

    def __init__(self, dim: int, degree: int, coefficients: np.ndarray):
        self.dim = dim
        self.degree = degree
        self.coefficients = np.asarray(coefficients, dtype=float)
        sp = get_space(dim, degree)
        if self.coefficients.shape[-1] != sp.terms(degree):
            raise ValueError("coefficient length does not match degree")

    @staticmethod
    def random(dim: int, degree: int, rng: np.random.Generator) -> "Polynomial":
        n = get_space(dim, degree).terms(degree)
        return Polynomial(dim, degree, rng.uniform(-1.0, 1.0, n))

    @staticmethod
    def monomial(dim: int, exponent: tuple[int, ...], coeff: float = 1.0) -> "Polynomial":
        degree = int(sum(exponent))
        sp = get_space(dim, degree)
        c = np.zeros(sp.terms(degree))
        c[sp.index[tuple(exponent)]] = coeff
        return Polynomial(dim, degree, c)

    @staticmethod
    def constant(dim: int, value: float) -> "Polynomial":
        return Polynomial.monomial(dim, (0,) * dim, value)

    @staticmethod
    def coordinate(dim: int, axis: int) -> "Polynomial":
        """The coordinate function u_axis."""
        return Polynomial.monomial(dim, tuple(int(k == axis) for k in range(dim)))

    def eval(self, points: np.ndarray) -> np.ndarray:
        return _monomials(points, self.dim, self.degree) @ self.coefficients

    def eval_grad(self, points: np.ndarray) -> np.ndarray:
        """Every partial derivative at points, from one monomial table."""
        points = np.asarray(points, dtype=float)
        mono = _monomials(points, self.dim, max(self.degree - 1, 0))
        out = np.empty(points.shape)
        for j in range(self.dim):
            out[..., j] = mono @ self._partial(j).coefficients
        return out

    def _partial(self, j: int) -> "Polynomial":
        if self.degree == 0:
            return Polynomial(self.dim, 0, np.zeros_like(self.coefficients))
        sp = get_space(self.dim, self.degree)
        deg = self.degree - 1
        n_out = sp.terms(deg)
        coeffs = sp.deriv_coef[j][:n_out] * self.coefficients[sp.deriv_src[j][:n_out]]
        return Polynomial(self.dim, deg, coeffs)

    def lift(self, x: np.ndarray, order: int) -> Jet:
        return lift_polynomials(self.coefficients, self.degree, x, order)


MONOMIAL_BLOCK = 4096  # points per block of `_monomials`


def _powers(points: np.ndarray, degree: int) -> np.ndarray:
    """points ** k for k = 0..degree, shape points.shape + (degree + 1,).

    Running products: power k is power k - 1 times the points, so every
    entry is a chain of correctly rounded IEEE products and does not
    depend on the platform's pow.
    """
    powers = np.empty(points.shape + (degree + 1,))
    powers[..., 0] = 1.0
    for k in range(1, degree + 1):
        powers[..., k] = powers[..., k - 1] * points
    return powers


def _monomials(points: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """The graded monomials up to degree at points, shape (..., terms).

    A single point gives shape (1, terms).  Each coordinate's powers are
    computed once, by `_powers`; each monomial is their running product
    over the coordinates in order, as np.prod forms it, per block of
    `MONOMIAL_BLOCK` points, so that no factor is gathered for all points.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None]
    sp = get_space(dim, degree)
    e = sp.exponents[: sp.terms(degree)]
    flat = points.reshape(-1, dim)
    mono = np.empty((len(flat), len(e)))
    for lo in range(0, len(flat), MONOMIAL_BLOCK):
        powers = _powers(flat[lo: lo + MONOMIAL_BLOCK], degree)
        block = mono[lo: lo + MONOMIAL_BLOCK]
        block[:] = powers[:, 0, e[:, 0]]
        for a in range(1, dim):
            block *= powers[:, a, e[:, a]]
    return mono.reshape(points.shape[:-1] + (len(e),))


class GaussianBump:
    """exp(-|u - center|^2 / (2 width^2)); positive and bounded."""

    def __init__(self, center: np.ndarray, width: float):
        self.center = np.asarray(center, dtype=float)
        self.dim = len(self.center)
        self.width = float(width)

    def eval(self, points):
        diff = np.asarray(points, dtype=float) - self.center
        return np.exp(-np.sum(diff**2, axis=-1) / (2.0 * self.width**2))


class ShiftedSquare:
    """p^2 + epsilon for a polynomial p; strictly positive everywhere."""

    def __init__(self, poly: Polynomial, epsilon: float):
        self.poly = poly
        self.dim = poly.dim
        self.epsilon = float(epsilon)

    def lift(self, x, order):
        p = self.poly.lift(x, order)
        return p * p + self.epsilon
