"""Multivariate complex polynomials on the closed complex unit ball.

Polynomials are stored as a dense term list (multi-index exponents plus
complex coefficients) in lexicographic exponent order, so evaluation and
certification sum terms in one fixed order and are bit-reproducible.

Points in C^n are plain complex numpy arrays; real vectors are accepted
wherever a point is expected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npp

from .sampling import STREAM_SUP_DIAG, chunk_rng

SLICE_MARGIN = 1e-12
UNIT_TOL = 1e-12


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial sum_a c_a z^a in n complex variables.

    sup_cert, when set, is the coefficient l1 norm: a certified upper bound
    for sup |p| over the closed complex unit ball (|z^a| <= 1 there).
    """

    dim: int
    exponents: np.ndarray  # (nterms, dim) int64, lexicographically sorted
    coeffs: np.ndarray     # (nterms,) complex128
    sup_cert: float | None = None

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
    return MultiPoly(dim, np.hstack([p.exponents, pad]), p.coeffs.copy(),
                     sup_cert=p.sup_cert)


def eval_poly(p: MultiPoly, z) -> complex:
    """Evaluate p at a single point of C^n (term sum in fixed sorted order)."""
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if z.size != p.dim:
        raise ValueError(f"point has dimension {z.size}, expected {p.dim}")
    if p.n_terms == 0:
        return 0.0 + 0.0j
    monomials = np.prod(z[None, :] ** p.exponents, axis=1)
    return complex(np.sum(p.coeffs * monomials))


def eval_many(p: MultiPoly, points: np.ndarray) -> np.ndarray:
    """Evaluate p at points of shape (N, dim); returns (N,) complex values."""
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != p.dim:
        raise ValueError(f"points must have shape (N, {p.dim})")
    out = np.zeros(pts.shape[0], dtype=np.complex128)
    if p.n_terms == 0:
        return out
    pts = pts.astype(np.complex128, copy=False)
    for alpha, c in zip(p.exponents, p.coeffs):
        mono = np.ones(pts.shape[0], dtype=np.complex128)
        for j in range(p.dim):
            a = int(alpha[j])
            if a:
                mono *= pts[:, j] ** a
        out += c * mono
    return out


def certify_sup(p: MultiPoly) -> float:
    """Coefficient l1 norm: certified sup bound on the closed unit ball."""
    return float(np.sum(np.abs(p.coeffs)))


def certified(p: MultiPoly) -> MultiPoly:
    """Copy of p with sup_cert stored."""
    return replace(p, sup_cert=certify_sup(p))


def normalize(p: MultiPoly) -> MultiPoly:
    """Scale p so the sup certificate equals 1."""
    s = certify_sup(p)
    if s == 0.0:
        raise ValueError("cannot normalize the zero polynomial")
    coeffs = p.coeffs / s
    q = MultiPoly(p.dim, p.exponents.copy(), coeffs)
    return replace(q, sup_cert=certify_sup(q))


def sampled_sup_lower_bound(p: MultiPoly, samples: int, seed: int) -> float:
    """Diagnostic lower bound: max |p| over random points of the complex sphere."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = chunk_rng(seed, STREAM_SUP_DIAG, 0)
    best = 0.0
    remaining = samples
    while remaining > 0:
        m = min(remaining, 1 << 15)
        z = rng.standard_normal((m, p.dim)) + 1j * rng.standard_normal((m, p.dim))
        norms = np.linalg.norm(z, axis=1)
        norms[norms == 0.0] = 1.0
        z /= norms[:, None]
        best = max(best, float(np.max(np.abs(eval_many(p, z)))))
        remaining -= m
    return best


def max_slice_halflength(base, direction) -> float:
    """Largest halflength h so that {base + t*direction : |t| <= h} stays in
    the open complex unit ball (base, direction real, |direction| = 1)."""
    b = np.asarray(base, dtype=float)
    d = np.asarray(direction, dtype=float)
    bd = float(np.dot(b, d))
    disc = 1.0 - float(np.dot(b, b)) + bd * bd
    if disc <= 0.0:
        return 0.0
    return float(np.sqrt(disc) - abs(bd))


@dataclass(frozen=True)
class LineSlice:
    """Univariate restriction t -> p(base + t*direction), |t| <= halflength.

    Valid for complex t: the slice disk then stays inside the complex ball.
    """

    base: np.ndarray
    direction: np.ndarray
    halflength: float
    coeffs: np.ndarray  # univariate complex coefficients, ascending powers

    def eval(self, t) -> np.ndarray:
        return npp.polyval(np.asarray(t, dtype=np.complex128), self.coeffs)

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else 0


def restrict_to_line(p: MultiPoly, base, direction, halflength: float) -> LineSlice:
    """Restrict p to the segment/disk base + t*direction.

    Rejects non-unit directions (tolerance 1e-12) and slices whose complex
    disk of radius `halflength` leaves the unit ball (margin 1e-12).
    """
    b = np.asarray(base, dtype=float).reshape(-1)
    d = np.asarray(direction, dtype=float).reshape(-1)
    if b.size != p.dim or d.size != p.dim:
        raise ValueError("base and direction must have the polynomial dimension")
    if abs(np.linalg.norm(d) - 1.0) > UNIT_TOL:
        raise ValueError("direction must be a unit vector")
    if halflength <= 0:
        raise ValueError("halflength must be positive")
    limit = max_slice_halflength(b, d)
    if halflength > limit - SLICE_MARGIN:
        raise ValueError(
            f"slice of halflength {halflength} exits the unit ball "
            f"(limit {limit:.6g})")

    coeffs = np.zeros(1, dtype=np.complex128)
    for alpha, c in zip(p.exponents, p.coeffs):
        term = np.array([c], dtype=np.complex128)
        for j in range(p.dim):
            a = int(alpha[j])
            if a:
                term = npp.polymul(term, npp.polypow([b[j], d[j]], a))
        coeffs = npp.polyadd(coeffs, term)
    return LineSlice(b, d, float(halflength), np.asarray(coeffs, np.complex128))


# Text format: one term per line, "coeff_re coeff_im a_1 ... a_n".

def parse_poly(text: str) -> MultiPoly:
    """Parse the polynomial literal format (used by the CLI config loader)."""
    terms = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ValueError(f"line {lineno}: expected 're im a_1 ... a_n'")
        re_c, im_c = float(fields[0]), float(fields[1])
        if not (np.isfinite(re_c) and np.isfinite(im_c)):
            raise ValueError(f"line {lineno}: coefficients must be finite")
        alpha = tuple(int(f) for f in fields[2:])
        if dim is None:
            dim = len(alpha)
        elif len(alpha) != dim:
            raise ValueError(f"line {lineno}: inconsistent dimension")
        terms.append((alpha, complex(re_c, im_c)))
    if dim is None:
        raise ValueError("empty polynomial literal")
    return from_terms(dim, terms)


def format_poly(p: MultiPoly) -> str:
    lines = []
    for alpha, c in zip(p.exponents, p.coeffs):
        idx = " ".join(str(int(a)) for a in alpha)
        lines.append(f"{float(c.real)!r} {float(c.imag)!r} {idx}")
    return "\n".join(lines) + ("\n" if lines else "")
