"""The reference routes against brute force, with no package code involved.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from scipy import integrate, special

import refdp


def brute_force_masses(p_a: float, n_bc: int, i_max: int) -> list[Fraction]:
    """Exact first-achievement mass at each state 0..i_max, by walking every
    attribution sequence until it achieves or reaches i_max arrivals."""
    pa = Fraction(p_a)
    ph = 1 - pa
    masses = [Fraction(0)] * (i_max + 1)

    def walk(i: int, honest: int, attacker: int, weight: Fraction) -> None:
        if honest >= n_bc and attacker > honest:
            masses[i] += weight
        elif i < i_max:
            walk(i + 1, honest + 1, attacker, weight * ph)
            walk(i + 1, honest, attacker + 1, weight * pa)

    walk(0, 0, 0, Fraction(1))
    return masses


@pytest.mark.parametrize("p_a", [0.1, 0.35, 0.5, 0.65])
@pytest.mark.parametrize("n_bc", [1, 2, 3])
def test_dp_matches_brute_force(p_a, n_bc):
    i_max = 14
    exact = brute_force_masses(p_a, n_bc, i_max)
    dp = refdp.WalkDP(p_a, n_bc)
    dp.run_to(i_max)
    got = dict(zip(dp.stages().astype(int), dp.masses().mant * 2.0 ** dp.masses().exp2))
    for i in range(1, i_max + 1):
        want = float(exact[i])
        assert got.get(i, 0.0) == pytest.approx(want, rel=1e-14, abs=0.0), i


def test_finite_cut_matches_quadrature_of_brute_force():
    # p_as = integral of the density sum_i q_i ErlangPdf(i) over [0, t_cut]
    p_a, n_bc, x = 0.35, 2, 6.0
    exact = brute_force_masses(p_a, n_bc, 16)
    p_as, _ = refdp.finite_cut(p_a, n_bc, x)
    direct = sum(float(q) * special.gammainc(i, x) for i, q in enumerate(exact) if q)
    # masses beyond 16 arrivals carry at most P(17, 6) of the rest
    assert p_as == pytest.approx(direct, rel=1e-4)
    dens = lambda t: sum(float(q) * math.exp((i - 1) * math.log(t) - t - math.lgamma(i))
                         for i, q in enumerate(exact) if q)
    area, _ = integrate.quad(dens, 0.0, x)
    assert area == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("p_a,n_bc", [(0.1, 3), (0.35, 5), (0.45, 9), (0.2, 40)])
def test_unbounded_dp_matches_rosenfeld(p_a, n_bc):
    p_dsa, _ = refdp.unbounded(p_a, n_bc)
    assert p_dsa == pytest.approx(refdp.rosenfeld_p_dsa(p_a, n_bc), rel=1e-13)


def test_unbounded_mean_matches_long_finite_cut():
    p_a, n_bc = 0.3, 4
    p_inf, e_inf = refdp.unbounded(p_a, n_bc)
    p_fin, e_fin = refdp.finite_cut(p_a, n_bc, 2000.0)
    assert p_fin == pytest.approx(p_inf, rel=1e-12)
    assert e_fin == pytest.approx(e_inf, rel=1e-12)


def test_density_integrates_to_cdf():
    p_a, n_bc, lam = 0.35, 3, 2.0
    times = [0.5, 2.0, 5.0]
    dens, cdf = refdp.density_and_cdf(p_a, n_bc, lam, times)
    for t, c in zip(times, cdf):
        area, _ = integrate.quad(
            lambda s: refdp.density_and_cdf(p_a, n_bc, lam, [s])[0][0] if s > 0 else 0.0,
            0.0, t, epsabs=0.0, epsrel=1e-11)
        assert area == pytest.approx(c, rel=1e-9)
    assert all(d > 0.0 for d in dens)


def test_tiny_masses_keep_relative_precision():
    # q_i near 1e-225 must not lose digits to subnormal floats
    p_dsa, _ = refdp.unbounded(0.1, 500)
    assert p_dsa == pytest.approx(refdp.rosenfeld_p_dsa(0.1, 500), rel=1e-12)
