"""Acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line.  Criterion 5's oscillating-family
growth clause is asserted exactly as stated; it fails for a structural
reason (the admissibility ceiling forces rescaled oscillating polynomials
to amplitudes far below the rectangle smear scale, and their sublevel law
is degree-free), documented in the README.  No tolerance here is loosened
to hide that.
"""

import math

import numpy as np

from sublevel_lab.intervals import IntervalSet
from sublevel_lab.kls import (LocalizationInstance, PiecewiseLogLinear,
                              localization_check_1d, random_instance)
from sublevel_lab.mobius import (MapParams, check_curvature,
                                 check_log_concavity,
                                 check_preimage_convexity,
                                 check_radial_profile)
from sublevel_lab.poly import from_terms, lift, normalize
from sublevel_lab.remez import (classical_remez_check, factor_bounds,
                                random_disk_function, remez_check)
from sublevel_lab.sampling import ks_distance
from sublevel_lab.thinrect import (ThinRectFunction, chebyshev_series,
                                   disk_normalized, limit_moduli,
                                   oracle_required_exponent,
                                   rectangle_moduli,
                                   required_exponent_from_summary)
from sublevel_lab.volume import (BallSpec, check_quantile_bounds,
                                 check_superlevel_power_bound, level_fraction,
                                 sigma_exponent)

from .map_reference import (curvature_grid_max, midpoint_defects,
                            preimage_midpoint_violations)

DELTAS = (1 / 32, 1 / 16, 1 / 8)
DIMS = (2, 8, 32)


def verdict(name: str, ok: bool, detail: str = ""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


class TestCriterion1MapProperties:
    def test_map_property_suite(self):
        ok = True
        details = []
        for delta in DELTAS:
            params = MapParams(delta)
            prof = check_radial_profile(params)
            ok &= prof.statistic > 0.0
            margin = prof.extras["image_radius"] - (1 - 2 * delta)
            ok &= margin >= 1e-3
            ok &= prof.extras["max_logderiv_ratio"] <= 1 / 30
            # the certificate, then its 1e4 x 360 reference grid
            curv = check_curvature(params)
            grid_max = curvature_grid_max(params, 10_000, 360)
            ok &= curv.passed and grid_max <= curv.statistic <= 25 / 27
            # the preimage certificate on the suite's ball, then 1e4
            # reference midpoint pairs
            r_img = params.image_radius
            ball = (0.35 * r_img, 0.4 * r_img)
            pre = check_preimage_convexity(params, *ball)
            violations, pairs = preimage_midpoint_violations(
                params, *ball, 10_000, seed=2000)
            ok &= pre.passed
            ok &= violations == 0 and pairs == 10_000
            details.append(f"delta={delta:.5f} curv={curv.statistic:.4f} "
                           f"grid={grid_max:.4f} margin={margin:.4f} "
                           f"rho_kappa={pre.statistic:.4f}")
            for n in DIMS:
                # the certificate, then 1e5 reference midpoint triples
                lc = check_log_concavity(params, n)
                ok &= lc.passed and lc.statistic > 0.0
                defect, dist_sq = midpoint_defects(params, n, 100_000,
                                                   seed=1000 + n)
                ok &= bool(np.min(defect) >= -1e-9)
                ok &= bool(np.min(defect - lc.statistic * dist_sq / 8) >= -1e-12)
        verdict("criterion-1 map properties", ok, "; ".join(details))
        assert ok

class TestCriterion2Localization:
    def test_closed_form_instance(self):
        uniform = PiecewiseLogLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        e = IntervalSet.from_pairs([(0.0, 0.9)])
        rep = localization_check_1d(
            LocalizationInstance(uniform, (0.0, 1.0), e, 2.0), 512)
        ok = (abs(rep.lhs_outer - 0.8) <= 1e-10
              and abs(rep.rhs - 0.81) <= 1e-10 and rep.passed)
        verdict("criterion-2 closed form", ok,
                f"lhs={rep.lhs_outer!r} rhs={rep.rhs!r}")
        assert ok

    def test_randomized_instances(self):
        rng = np.random.default_rng(20_240)
        worst = math.inf
        ok = True
        for _ in range(200):
            inst = random_instance(rng)
            rep = localization_check_1d(inst, 512)
            worst = min(worst, rep.rhs - rep.lhs_outer)
            ok &= rep.passed
        verdict("criterion-2 randomized", ok, f"worst margin={worst:.3e}")
        assert ok


class TestCriterion3DiskRemez:
    def test_randomized_disk_functions(self):
        rng = np.random.default_rng(31_337)
        ok = True
        n_run = 0
        while n_run < 500:
            f = random_disk_function(rng)
            a = float(rng.uniform(0.5, 0.99))
            lo = float(rng.uniform(-a, 0.0))
            hi = float(rng.uniform(lo + 0.05 * a, a))
            n = int(rng.integers(1, 11))
            cuts = np.sort(rng.uniform(lo, hi, 2 * n))
            e = IntervalSet.from_pairs(
                [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n)])
            if e.total_length < (hi - lo) / 100:
                continue
            n_run += 1
            fb = factor_bounds(f, a)
            rz = remez_check(f, a, (lo, hi), e, 100_000, 1000)
            ok &= fb.all_pass and rz.passed
        verdict("criterion-3 disk functions", ok, f"instances={n_run}")
        assert ok

    def test_classical_remez(self):
        rng = np.random.default_rng(777)
        ok = True
        n_run = 0
        while n_run < 100:
            deg = int(rng.integers(0, 21))
            coeffs = rng.standard_normal(deg + 1) \
                + 1j * rng.standard_normal(deg + 1)
            n = int(rng.integers(1, 6))
            cuts = np.sort(rng.uniform(-1.0, 1.0, 2 * n))
            e = IntervalSet.from_pairs(
                [(cuts[2 * k], cuts[2 * k + 1]) for k in range(n)])
            if e.total_length < 0.02:
                continue
            n_run += 1
            ok &= classical_remez_check(coeffs, (-1.0, 1.0), e,
                                        100_000, 1000).passed
        # x^N closed-form instance
        coeffs = np.zeros(8)
        coeffs[7] = 1.0
        rep = classical_remez_check(coeffs, (0.0, 1.0),
                                    IntervalSet.from_pairs([(0.0, 0.5)]),
                                    100_000, 2000)
        ok &= rep.passed and abs(rep.rhs - 4.0 ** 7) / 4.0 ** 7 < 1e-6
        verdict("criterion-3 classical", ok, f"instances={n_run}+1")
        assert ok


def _templates():
    rng = np.random.default_rng(2718)
    quad = {(0,): complex(rng.standard_normal(), rng.standard_normal()),
            (1,): complex(rng.standard_normal(), rng.standard_normal()),
            (2,): complex(rng.standard_normal(), rng.standard_normal())}
    cubic = {(k,): complex(rng.standard_normal(), rng.standard_normal())
             for k in range(4)}
    return {
        "half_shift": normalize(from_terms(1, {(0,): 0.5, (1,): 0.5})),
        "random_quadratic": normalize(from_terms(1, quad)),
        "random_cubic": normalize(from_terms(1, cubic)),
    }


class TestCriterion4BallBounds:
    def test_templates_across_dimensions(self):
        lambdas = [1.5, 2.0, 4.0, 8.0]
        count = 1_000_000
        ok = True
        details = []
        for name, base in _templates().items():
            sigmas = set()
            for i, n in enumerate((1, 2, 4, 8)):
                p = lift(base, n)
                spec = BallSpec(np.zeros(n), 0.7, 0.25)
                seed = 9000 + 17 * i
                qb = check_quantile_bounds(p, spec, lambdas, count, seed,
                                           threads=2)
                sf = check_superlevel_power_bound(p, spec, qb.quantile,
                                                  lambdas, count, seed,
                                                  threads=2)
                ok &= qb.all_pass and sf.all_pass
                sigmas.add(qb.sigma)
                frac, _ = level_fraction(p, spec, qb.quantile, "ge", count,
                                         seed + 1, threads=2)
                # the fraction estimate and the quantile estimate each carry
                # binomial level noise p(1-p)/N; compare at 3 sigma combined
                level_se = math.sqrt(2 * (1 / math.e) * (1 - 1 / math.e) / count)
                ok &= abs(frac - 1 / math.e) <= 3 * level_se + 2 / count
            ok &= len(sigmas) == 1  # dimension-free exponent, bitwise
            details.append(f"{name}: sigma={sigmas.pop():.5g}")
        verdict("criterion-4 ball bounds", ok, "; ".join(details))
        assert ok


class TestCriterion5ThinRectangles:
    def test_ks_distance_to_limit(self):
        f = ThinRectFunction(np.array([0.0, 1.0]), 0.1)
        rect = rectangle_moduli(f, 1e-4, 1_000_000, seed=555, threads=2)
        lim = limit_moduli(f, 1_000_000, seed=556, threads=2)
        ks = ks_distance(rect.sorted_moduli, lim.sorted_moduli)
        ok = ks <= 0.01
        verdict("criterion-5 thin-limit distance", ok, f"ks={ks:.5f}")
        assert ok

    def test_oracle_agreement(self):
        ok = True
        details = []
        for m in (4, 8, 16, 32):
            q = disk_normalized(chebyshev_series(m))
            f = ThinRectFunction(q, 0.1)
            summary = limit_moduli(f, 1_000_000, seed=600 + m, threads=2)
            est = required_exponent_from_summary(summary, 2.0)
            oracle = oracle_required_exponent(f, 2.0)
            ok &= abs(est.sigma_eff - oracle) <= 3 * est.std_err
            details.append(f"T{m}: mc={est.sigma_eff:.4f} or={oracle:.4f}")
        verdict("criterion-5 oracle agreement", ok, "; ".join(details))
        assert ok

    def test_oscillating_family_growth(self):
        """Exponent growth across the rescaled oscillating family.

        Stated requirement: sigma_eff strictly increasing with doubling
        ratios >= 1.5 at lambda = 2, delta = 1e-3, while the ball exponent
        varies by < 2x.  The admissible (disk-certified) rescaling makes
        the family's amplitude collapse below the rectangle smear, and the
        family's sublevel law is degree-free, so this criterion cannot hold;
        the assertion is kept as stated and fails honestly.
        """
        sigmas = []
        theorem_sigmas = []
        for i, m in enumerate((4, 8, 16, 32)):
            q = disk_normalized(chebyshev_series(m))
            f = ThinRectFunction(q, 0.1)
            summary = rectangle_moduli(f, 1e-3, 1_000_000, seed=700 + i,
                                       threads=2)
            est = required_exponent_from_summary(summary, 2.0)
            sigmas.append(est.sigma_eff)
            theorem_sigmas.append(
                sigma_exponent(f.f0_abs, 0.25))
        ratios = [b / a for a, b in zip(sigmas, sigmas[1:])]
        theorem_ratio = max(theorem_sigmas) / min(theorem_sigmas)
        increasing = all(b > a for a, b in zip(sigmas, sigmas[1:]))
        ok = increasing and all(r >= 1.5 for r in ratios) \
            and theorem_ratio < 2.0
        verdict("criterion-5 family growth", ok,
                f"sigma_eff={['%.4f' % s for s in sigmas]} "
                f"ratios={['%.3f' % r for r in ratios]} "
                f"theorem_ratio={theorem_ratio:.3f}")
        assert ok, (
            f"sigma_eff sequence {sigmas} with ratios {ratios} does not "
            f"grow by 1.5x per doubling: admissible amplitudes "
            f"(eta/disk-sup) sit below the delta=1e-3 smear scale and the "
            f"oscillating family's sublevel law is degree-free")


class TestCriterion6Determinism:
    def test_suite_bit_identical(self, tmp_path):
        from sublevel_lab.cli import suite

        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        suite(42, str(out1), threads=1)
        suite(42, str(out2), threads=4)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*")
                        if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*")
                        if p.is_file())
        ok = files1 == files2
        mismatched = []
        for rel in files1:
            if (out1 / rel).read_bytes() != (out2 / rel).read_bytes():
                mismatched.append(str(rel))
                ok = False
        verdict("criterion-6 determinism", ok,
                f"files={len(files1)} mismatched={mismatched}")
        assert ok
