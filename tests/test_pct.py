import math

import numpy as np
import pytest

from xspectra import (
    ArgumentError,
    ConsistencyError,
    GMap,
    SingularityError,
    X1Family,
    extract_potential_report,
    pct_e_minus_v,
    potential,
    x1_ode_coefficients,
)

RNG = np.random.default_rng(20240531)


class TestGMap:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ArgumentError):
            GMap("tangent", 1.0)
        with pytest.raises(ArgumentError):
            GMap("sine", 0.0)
        with pytest.raises(ArgumentError):
            GMap("sine", 1.0, 1.0 + 1.0j)  # mixed shift
        GMap("sine", 1.0, 0.5)
        GMap("sine", 1.0, 0.5j)

    @pytest.mark.parametrize("d", [0.0, 0.7, 1.2j])
    def test_quadratic_identities(self, d):
        gm = GMap("quadratic", 1.75, d)
        xs = RNG.uniform(0.3, 5.0, size=100)
        g, dg, d2g, d3g = gm.derivatives(xs)
        assert np.max(np.abs(dg * dg / g - gm.k**2)) <= 1e-12 * gm.k**2
        assert np.max(np.abs(d2g - 0.5 * gm.k**2)) <= 1e-12 * gm.k**2
        assert np.max(np.abs(d3g)) == 0.0

    @pytest.mark.parametrize("kind", ["sine"])
    @pytest.mark.parametrize("d", [0.0, 0.4, 1.0j])
    def test_trigonometric_identities(self, kind, d):
        gm = GMap(kind, 1.25, d)
        xs = RNG.uniform(-1.1, 1.1, size=100)
        g, dg, d2g, d3g = gm.derivatives(xs)
        k2 = gm.k**2
        assert np.max(np.abs(dg * dg - k2 * (1.0 - g * g))) <= 1e-12 * k2
        assert np.max(np.abs(d2g + k2 * g)) <= 1e-12 * k2
        assert np.max(np.abs(d3g + k2 * dg)) <= 1e-11 * k2 * gm.k


class TestEMinusV:
    def test_difference_of_members_is_the_level_spacing(self):
        gm = GMap("quadratic", 1.75)
        fam = X1Family("laguerre", 2.0)
        xs = np.linspace(0.4, 5.0, 40)
        w1 = pct_e_minus_v(gm, x1_ode_coefficients(fam, 1), xs)
        w2 = pct_e_minus_v(gm, x1_ode_coefficients(fam, 2), xs)
        diff = w2 - w1
        # E_2 - E_1 = k^2 for the oscillator tower
        assert np.max(np.abs(diff - 1.75**2)) <= 1e-9 * 1.75**2

    def test_scarf_level_spacing(self):
        gm = GMap("sine", 1.25)
        fam = X1Family("jacobi", 1.75, 3.0)
        half = 0.5 * math.pi / 1.25
        xs = np.linspace(-0.9 * half, 0.9 * half, 40)
        w1 = pct_e_minus_v(gm, x1_ode_coefficients(fam, 1), xs)
        w2 = pct_e_minus_v(gm, x1_ode_coefficients(fam, 2), xs)
        diff = np.mean(w2 - w1)
        assert diff == pytest.approx(23.4619140625 - 12.9150390625, rel=1e-10)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind, x, message", [
        ("quadratic", np.array([1.0, 0.0]), "g' vanishes at x = 0"),
        ("sine", np.array([0.1, math.pi / 2, -math.pi / 2]),
         "g(x) hits the ODE singular point 1 at x = 1.5708"),
        ("sine", np.array([0.1, -math.pi / 2]),
         "g(x) hits the ODE singular point -1 at x = -1.5708"),
        # q(g)^2 overflows next to the pole at g = 0 that g' still misses
        ("quadratic", np.array([2.0, 1e-150]), "transformation not finite at x = 1e-150"),
        ("quadratic", 1e-150, "transformation not finite at x = 1e-150"),
    ], ids=["dg-zero", "upper-edge", "lower-edge", "not-finite", "not-finite-scalar"])
    def test_refusal_messages(self, kind, x, message):
        fam = X1Family("laguerre", 2.0) if kind == "quadratic" else X1Family("jacobi", 1.75, 3.0)
        with pytest.raises(SingularityError) as got:
            pct_e_minus_v(GMap(kind, 1.0), x1_ode_coefficients(fam, 1), x)
        assert str(got.value) == message


class TestExtraction:
    def test_radial_matches_closed_form(self, radial_hermitian):
        gm = GMap("quadratic", radial_hermitian.k)
        fam = X1Family("laguerre", radial_hermitian.a)
        xs = np.linspace(0.4, 6.0, 50)
        rep = extract_potential_report(gm, fam, (1, 2), xs)
        v, (e1, e2) = rep.v_values, rep.energies
        want = potential(radial_hermitian, xs)
        assert np.max(np.abs(v - want)) <= 1e-10 * np.max(np.abs(want))
        assert e1 == pytest.approx(4.59375, rel=1e-10)
        assert e2 == pytest.approx(7.65625, rel=1e-10)

    def test_scarf_matches_closed_form(self, scarf_hermitian):
        gm = GMap("sine", scarf_hermitian.k)
        fam = X1Family("jacobi", scarf_hermitian.a, scarf_hermitian.b)
        half = 0.5 * math.pi / scarf_hermitian.k
        xs = np.linspace(-0.9 * half, 0.9 * half, 50)
        rep = extract_potential_report(gm, fam, (1, 2), xs)
        v, (e1, e2) = rep.v_values, rep.energies
        want = potential(scarf_hermitian, xs)
        assert np.max(np.abs(v - want)) <= 1e-10 * np.max(np.abs(want))
        assert e1 == pytest.approx(12.9150390625, rel=1e-10)
        assert e2 == pytest.approx(23.4619140625, rel=1e-10)

    def test_member_pair_independence(self):
        gm = GMap("quadratic", 1.75)
        fam = X1Family("laguerre", 2.0)
        xs = np.linspace(0.5, 5.0, 20)
        results = {
            pair: extract_potential_report(gm, fam, pair, xs).v_values
            for pair in ((1, 2), (1, 3), (2, 3))
        }
        scale = np.max(np.abs(results[(1, 2)]))
        for pair in ((1, 3), (2, 3)):
            assert np.max(np.abs(results[pair] - results[(1, 2)])) <= 1e-8 * scale

    def test_real_shift_translates_the_potential(self):
        k, d = 1.75, 0.35
        fam = X1Family("laguerre", 2.0)
        xs = np.linspace(0.8, 5.0, 30)
        v0 = extract_potential_report(GMap("quadratic", k), fam, (1, 2), xs + d / k).v_values
        vd = extract_potential_report(GMap("quadratic", k, d), fam, (1, 2), xs).v_values
        assert np.max(np.abs(vd - v0)) <= 1e-10 * np.max(np.abs(v0))

    def test_imaginary_shift_keeps_energies(self):
        fam = X1Family("laguerre", 2.0)
        xs = np.linspace(-4.0, 4.0, 30)
        rep = extract_potential_report(GMap("quadratic", 1.75, 1.2j), fam, (1, 2), xs)
        assert complex(rep.energies[0]) == pytest.approx(4.59375, rel=1e-9)
        assert complex(rep.energies[1]) == pytest.approx(7.65625, rel=1e-9)
        # the extracted potential is genuinely complex off the real ray
        assert np.max(np.abs(np.imag(rep.v_values))) > 0.1

    def test_wrong_map_is_rejected(self):
        fam = X1Family("laguerre", 2.0)
        with pytest.raises(ConsistencyError):
            extract_potential_report(
                GMap("sine", 1.0), fam, (1, 2), np.linspace(0.1, 0.9, 20)
            )

    def test_rejects_degenerate_inputs(self):
        gm = GMap("quadratic", 1.0)
        fam = X1Family("laguerre", 1.0)
        with pytest.raises(ArgumentError):
            extract_potential_report(gm, fam, (2, 2), np.linspace(1.0, 2.0, 10))
        with pytest.raises(ArgumentError):
            extract_potential_report(gm, fam, (1, 2), [1.0, 2.0, 3.0])


class TestRationalTerm:
    """The 1/D^2 coefficient of the trigonometric potential.

    Two inequivalent printed forms circulate for this term; the engine's
    partial-fraction fit is the arbiter.  Frozen here so the adjudicated
    value cannot silently drift.
    """

    def test_fit_pins_the_product_form(self, scarf_hermitian):
        a, b, k = scarf_hermitian.a, scarf_hermitian.b, scarf_hermitian.k
        gm = GMap("sine", k)
        fam = X1Family("jacobi", a, b)
        half = 0.5 * math.pi / k
        rep = extract_potential_report(
            gm, fam, (1, 2), np.linspace(-0.9 * half, 0.9 * half, 50)
        )
        fitted = float(np.real(rep.terms["1/D^2"]))
        product_form = -8.0 * k * k * a * b  # -65.625 at these parameters
        difference_form = 2.0 * k * k * ((a - b) ** 2 - 4.0 * a * b)
        assert fitted == pytest.approx(product_form, rel=1e-8)
        assert abs(fitted - difference_form) / abs(difference_form) > 1e-2

    def test_first_order_term(self, scarf_hermitian):
        a, b, k = scarf_hermitian.a, scarf_hermitian.b, scarf_hermitian.k
        gm = GMap("sine", k)
        fam = X1Family("jacobi", a, b)
        half = 0.5 * math.pi / k
        rep = extract_potential_report(
            gm, fam, (1, 2), np.linspace(-0.9 * half, 0.9 * half, 50)
        )
        assert float(np.real(rep.terms["1/D"])) == pytest.approx(
            2.0 * k * k * (a + b), rel=1e-8
        )
