"""Multivariate complex polynomials on the closed complex unit ball.

Polynomials are stored as a dense term list (multi-index exponents plus
complex coefficients) in lexicographic exponent order, so evaluation and
certification sum terms in one fixed order and are bit-reproducible.

Points in C^n are plain complex numpy arrays; real vectors are accepted
wherever a point is expected.  `eval_many` keeps real points real and
takes each power z_j^a by the products numpy's complex power takes, so |p|
at a real point is bit-equal to complex evaluation for every exponent below
100.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial sum_a c_a z^a in n complex variables.

    It carries no sup bound: a check that needs sup |p| <= 1 computes
    `certify_sup` from the coefficients it is given.
    """

    dim: int
    exponents: np.ndarray  # (nterms, dim) int64, lexicographically sorted
    coeffs: np.ndarray     # (nterms,) complex128

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        exps = np.asarray(self.exponents, dtype=np.int64).reshape(-1, self.dim)
        cs = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if exps.shape[0] != cs.shape[0]:
            raise ValueError("exponents and coeffs must have equal length")
        if np.any(exps < 0):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coeffs", cs)

    @property
    def n_terms(self) -> int:
        return int(self.coeffs.size)

    @property
    def degree(self) -> int:
        if self.n_terms == 0:
            return 0
        return int(self.exponents.sum(axis=1).max())

    def is_constant(self) -> bool:
        return self.n_terms == 0 or bool(np.all(self.exponents == 0))

    def constant_term(self) -> complex:
        mask = np.all(self.exponents == 0, axis=1)
        return complex(self.coeffs[mask].sum()) if mask.any() else 0.0 + 0.0j


def from_terms(dim: int, terms) -> MultiPoly:
    """Canonical polynomial from {multi-index: coeff} or (index, coeff) pairs.

    Duplicate indices are summed; zero coefficients are dropped; terms are
    sorted lexicographically by exponent.
    """
    items = terms.items() if hasattr(terms, "items") else terms
    acc: dict[tuple[int, ...], complex] = {}
    for alpha, c in items:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != dim:
            raise ValueError(f"multi-index {alpha} does not have length {dim}")
        acc[alpha] = acc.get(alpha, 0.0 + 0.0j) + complex(c)
    entries = sorted((a, c) for a, c in acc.items() if c != 0)
    if not entries:
        return MultiPoly(dim, np.empty((0, dim), dtype=np.int64),
                         np.empty(0, dtype=np.complex128))
    exps = np.array([a for a, _ in entries], dtype=np.int64)
    cs = np.array([c for _, c in entries], dtype=np.complex128)
    return MultiPoly(dim, exps, cs)


def lift(p: MultiPoly, dim: int) -> MultiPoly:
    """Embed p into a higher-dimensional ambient space (new variables unused)."""
    if dim < p.dim:
        raise ValueError("target dim must be >= p.dim")
    if dim == p.dim:
        return p
    pad = np.zeros((p.n_terms, dim - p.dim), dtype=np.int64)
    return MultiPoly(dim, np.hstack([p.exponents, pad]), p.coeffs.copy())


def eval_many(p: MultiPoly, points: np.ndarray) -> np.ndarray:
    """Evaluate p at points of shape (N, dim); returns (N,) complex values.

    Real points stay real: each term adds Re(c) m and Im(c) m to the real
    and the imaginary part of the result.  A power z_j^a is the product
    chain of numpy's complex integer power below exponent 100 (binary
    exponentiation, low bits first: z*z, z*(z*z), ...), and a monomial is the product of its powers in coordinate order.  With
    every imaginary part zero each complex product reduces to the same real
    product, so at real points |p| is bit-equal to complex evaluation with
    ``z ** a``.  From exponent 100 on, numpy's power calls ``cpow`` and
    leaves imaginary parts of order 1e-14 on negative real z; here z^a of a
    real z is exactly real.
    """
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != p.dim:
        raise ValueError(f"points must have shape (N, {p.dim})")
    real = not np.iscomplexobj(pts)
    pts = pts.astype(np.float64 if real else np.complex128, copy=False)
    out = np.zeros(pts.shape[0], dtype=np.complex128)
    sums = (out.real, out.imag) if real else (out,)

    def power(j: int, a: int) -> np.ndarray:
        w, sq, k = None, pts[:, j], 1
        while True:
            if a & k:
                w = sq if w is None else w * sq
            k <<= 1
            if k > a:
                return w
            sq = sq * sq

    for alpha, c in zip(p.exponents, p.coeffs):
        mono = None
        for j in np.flatnonzero(alpha):
            w = power(int(j), int(alpha[j]))
            mono = w if mono is None else mono * w
        for acc, part in zip(sums, (c.real, c.imag) if real else (c,)):
            acc += part if mono is None else part * mono
    return out


def certify_sup(p: MultiPoly) -> float:
    """Coefficient l1 norm: certified sup bound on the closed unit ball."""
    return float(np.sum(np.abs(p.coeffs)))


def normalize(p: MultiPoly) -> MultiPoly:
    """Scale p so the sup certificate equals 1."""
    s = certify_sup(p)
    if s == 0.0:
        raise ValueError("cannot normalize the zero polynomial")
    return MultiPoly(p.dim, p.exponents.copy(), p.coeffs / s)

