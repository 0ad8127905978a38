import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sublevel_lab.cli import _read_poly
from sublevel_lab.poly import (MultiPoly, certify_sup, eval_many, from_terms,
                               lift, normalize)

from .ball_reference import complex_power_eval


def eval_poly(p: MultiPoly, z) -> complex:
    """Reference for eval_many: p at a single point of C^n, one product per term."""
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if z.size != p.dim:
        raise ValueError(f"point has dimension {z.size}, expected {p.dim}")
    if p.n_terms == 0:
        return 0.0 + 0.0j
    monomials = np.prod(z[None, :] ** p.exponents, axis=1)
    return complex(np.sum(p.coeffs * monomials))


def format_poly(p: MultiPoly) -> str:
    """The polynomial literal that cli._read_poly reads."""
    lines = []
    for alpha, c in zip(p.exponents, p.coeffs):
        idx = " ".join(str(int(a)) for a in alpha)
        lines.append(f"{float(c.real)!r} {float(c.imag)!r} {idx}")
    return "\n".join(lines) + ("\n" if lines else "")


def sampled_sup_lower_bound(p: MultiPoly, samples: int, seed: int) -> float:
    """Lower bound for sup |p|: the max of |p| over random points of the
    complex unit sphere."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, p.dim)) + 1j * rng.standard_normal((samples, p.dim))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return float(np.max(np.abs(eval_many(p, z))))


def random_poly(rng, max_dim=8, max_degree=6, max_terms=12) -> MultiPoly:
    dim = int(rng.integers(1, max_dim + 1))
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = {}
    for _ in range(n_terms):
        alpha = tuple(int(a) for a in rng.integers(0, max_degree + 1, dim))
        if sum(alpha) > max_degree:
            continue
        terms[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    if not terms:
        terms[(0,) * dim] = 1.0
    return from_terms(dim, terms)


def random_ball_point(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    z /= np.linalg.norm(z)
    return z * rng.random() ** (1.0 / (2 * dim))


class TestEval:
    def test_coordinate_projection(self):
        p = from_terms(2, {(1, 0): 1.0})
        assert eval_poly(p, [0.3 + 0j, 0.5j]) == pytest.approx(0.3)

    def test_constant(self):
        p = from_terms(3, {(0, 0, 0): 1.0})
        assert eval_poly(p, [0.1, 0.2j, -0.3]) == 1.0

    def test_half_shift_at_origin(self):
        p = from_terms(1, {(0,): 0.5, (1,): 0.5})
        assert eval_poly(p, [0.0]) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        p = from_terms(2, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            eval_poly(p, [0.1])
        with pytest.raises(ValueError):
            eval_many(p, np.array([[0.1]]))

    def test_eval_many_matches_eval_poly(self):
        rng = np.random.default_rng(7)
        p = random_poly(rng)
        pts = np.array([random_ball_point(rng, p.dim) for _ in range(50)])
        many = eval_many(p, pts)
        single = np.array([eval_poly(p, z) for z in pts])
        np.testing.assert_allclose(many, single, rtol=1e-13, atol=1e-15)


class TestRealPoints:
    """Real points are evaluated in real arithmetic; |p| keeps every bit of
    the complex-arithmetic evaluation with numpy's ``z ** a``."""

    @pytest.mark.parametrize("constant", [False, True], ids=["no_const", "const"])
    @pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real_c", "complex_c"])
    def test_moduli_bit_equal_to_complex_power(self, constant, complex_coeffs):
        rng = np.random.default_rng(29 + 2 * constant + complex_coeffs)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            terms = {}
            for _ in range(int(rng.integers(1, 8))):
                alpha = rng.integers(0, 100, dim) * (rng.random(dim) < 0.6)
                imag = rng.standard_normal() if complex_coeffs else 0.0
                terms[tuple(int(a) for a in alpha)] = complex(rng.standard_normal(), imag)
            if constant:
                terms[(0,) * dim] = 0.25
            p = from_terms(dim, terms)
            x = rng.uniform(-1.0, 1.0, (2000, dim))
            x[:5] = 0.0
            x[5:10] = -0.0
            assert np.array_equal(np.abs(eval_many(p, x)),
                                  np.abs(complex_power_eval(p, x)))

    def test_exponent_above_99_stays_real(self):
        # numpy's complex power calls cpow from exponent 100 on
        p = from_terms(2, {(101, 0): 0.5, (0, 150): -0.25, (0, 0): 0.25})
        x = -np.random.default_rng(3).random((20_000, 2))
        vals = eval_many(p, x)
        assert np.all(vals.imag == 0.0)
        np.testing.assert_allclose(
            vals.real, 0.5 * x[:, 0] ** 101 - 0.25 * x[:, 1] ** 150 + 0.25, rtol=1e-13,
            atol=1e-14)

    def test_zero_polynomial(self):
        for x in (np.zeros((3, 2)), np.zeros((3, 2), dtype=complex)):
            out = eval_many(from_terms(2, {}), x)
            assert out.dtype == np.complex128 and np.array_equal(out, np.zeros(3))


class TestCertify:
    def test_half_shift(self):
        p = from_terms(1, {(0,): 0.5, (1,): 0.5})
        assert certify_sup(p) == pytest.approx(1.0)

    def test_thin_rect_style_instance(self):
        # (1/2)(2*0.1*1 + z2 + 1/2): coefficient sum 0.85
        p = from_terms(2, {(0, 0): 0.1 + 0.25, (0, 1): 0.5})
        assert certify_sup(p) == pytest.approx(0.85)

    def test_zero_poly(self):
        p = from_terms(2, {})
        assert certify_sup(p) == 0.0

    def test_certificate_dominates_values(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            p = random_poly(rng)
            cert = certify_sup(p)
            z = rng.standard_normal((1000, p.dim)) \
                + 1j * rng.standard_normal((1000, p.dim))
            z /= np.linalg.norm(z, axis=1)[:, None]
            z *= rng.random(1000)[:, None] ** (1.0 / (2 * p.dim))
            assert np.max(np.abs(eval_many(p, z))) <= cert + 1e-9

    def test_sampled_lower_bound_below_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_poly(rng)
            low = sampled_sup_lower_bound(p, 2000, seed=11)
            assert low <= certify_sup(p) + 1e-9


class TestNormalize:
    def test_scale_by_half(self):
        p = normalize(from_terms(1, {(1,): 2.0}))
        np.testing.assert_allclose(p.coeffs, [1.0])

    def test_two_terms(self):
        p = normalize(from_terms(2, {(1, 0): 1.0, (0, 1): 1.0}))
        np.testing.assert_allclose(p.coeffs, [0.5, 0.5])

    def test_already_normalized_unchanged(self):
        p = normalize(from_terms(1, {(0,): 0.5, (1,): 0.5}))
        np.testing.assert_allclose(p.coeffs, [0.5, 0.5])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(from_terms(1, {}))

    def test_idempotent_certificate(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = random_poly(rng)
            assert certify_sup(normalize(p)) == pytest.approx(1.0, abs=1e-12)


class TestTextFormat:
    def test_round_trip(self):
        p = from_terms(2, {(1, 0): 0.5 + 0.25j, (0, 2): -1.5})
        q = _read_poly(format_poly(p))
        assert q.dim == p.dim
        np.testing.assert_array_equal(q.exponents, p.exponents)
        np.testing.assert_array_equal(q.coeffs, p.coeffs)

    def test_parse_example(self):
        p = _read_poly("0.5 0 0 0\n0.5 0 1 0\n")
        assert p.dim == 2
        assert eval_poly(p, [1.0, 0.0]) == pytest.approx(1.0)

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            _read_poly("0.5 0\n")

    @pytest.mark.parametrize("line, message", [
        ("0.5 0 1.5", r"invalid literal for int\(\)"),
        ("0.5 abc 1", "could not convert string to float: 'abc'"),
        ("0.5 0 -1", "exponents must lie in"),
        ("0.5 0 9223372036854775808", "exponents must lie in")])
    def test_bad_number_names_its_line(self, line, message):
        with pytest.raises(ValueError, match=f"^line 3: {message}"):
            _read_poly(f"0.5 0 0\n# comment\n{line}\n")

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=6))
    def test_round_trip_structure(self, alphas):
        terms = {a: 1.0 + 0.5j for a in alphas}
        p = from_terms(2, terms)
        q = _read_poly(format_poly(p))
        np.testing.assert_array_equal(q.exponents, p.exponents)


def test_lift_preserves_constant_term_and_certificate():
    p = normalize(from_terms(1, {(0,): 0.5, (1,): 0.5}))
    q = lift(p, 8)
    assert q.dim == 8
    assert q.constant_term() == p.constant_term()
    assert certify_sup(q) == certify_sup(p)
