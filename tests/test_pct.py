import math
from fractions import Fraction

import numpy as np
import pytest

from xspectra import pct
from xspectra import (
    ArgumentError,
    ConsistencyError,
    GMap,
    PotentialModel,
    SingularityError,
    X1Family,
    cell,
    energy,
    extract_potential_report,
    pct_e_minus_v,
    potential,
    x1_family,
)

RNG = np.random.default_rng(20240531)
QUADRATIC, LAGUERRE = GMap("quadratic", 1.0), X1Family("laguerre", 2.0)
SINE, JACOBI = GMap("sine", 1.0), X1Family("jacobi", 1.75, 3.0)


class TestGMap:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ArgumentError):
            GMap("tangent", 1.0)
        with pytest.raises(ArgumentError):
            GMap("sine", 0.0)
        GMap("sine", 1.0, 0.5)
        GMap("sine", 1.0, 0.5j)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_mixed_shift_gives_the_cos_branch(self, eps):
        # the cos branch is the sin branch at kx + pi/2, so its shifted
        # model needs d = pi/2 + i eps, which GMap refused
        m = PotentialModel("scarf_extended", 1.75, 3.0, 1.25, eps, "cos")
        centre, half = cell(m)
        xs = np.linspace(centre - 0.9 * half, centre + 0.9 * half, 50)
        rep = extract_potential_report(
            GMap("sine", m.k, 0.5 * math.pi + 1j * eps), x1_family(m), (1, 2), xs
        )
        want = potential(m, xs)
        assert np.max(np.abs(rep.v_values - want)) <= 1e-13 * np.max(np.abs(want))

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
        w1 = pct_e_minus_v(gm, fam, 1, xs)
        w2 = pct_e_minus_v(gm, fam, 2, xs)
        diff = w2 - w1
        # E_2 - E_1 = k^2 for the oscillator tower
        assert np.max(np.abs(diff - 1.75**2)) <= 1e-9 * 1.75**2

    def test_scarf_level_spacing(self):
        gm = GMap("sine", 1.25)
        fam = X1Family("jacobi", 1.75, 3.0)
        half = 0.5 * math.pi / 1.25
        xs = np.linspace(-0.9 * half, 0.9 * half, 40)
        w1 = pct_e_minus_v(gm, fam, 1, xs)
        w2 = pct_e_minus_v(gm, fam, 2, xs)
        diff = np.mean(w2 - w1)
        assert diff == pytest.approx(23.4619140625 - 12.9150390625, rel=1e-10)


    @pytest.mark.parametrize("eps", [0.0, 1.0])
    @pytest.mark.parametrize("family", ["radial_extended", "scarf_extended"])
    def test_energy_minus_result_is_the_model_potential(self, family, eps):
        # absolute, not a member difference, in which the map terms
        # g'''/(2 g') - (3/4)(g''/g')^2 cancel
        if family == "radial_extended":
            m = PotentialModel(family, 2.0, None, 1.75, 1.2 * eps)
            gm = GMap("quadratic", m.k, 1j * m.eps)
            xs = np.linspace(-5.0, 5.0, 50) if eps else np.linspace(0.4, 6.0, 50)
        else:
            m = PotentialModel(family, 1.75, 3.0, 1.25, eps)
            gm = GMap("sine", m.k, 1j * m.eps)
            centre, half = cell(m)
            xs = np.linspace(centre - 0.9 * half, centre + 0.9 * half, 50)
        v = potential(m, xs)
        for n in (1, 2, 3, 6):
            got = energy(m, n) - pct_e_minus_v(gm, x1_family(m), n, xs)
            assert np.max(np.abs(got - v)) <= 1e-12 * np.max(np.abs(v)), n

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("gm, fam, x, message", [
        (QUADRATIC, LAGUERRE, np.array([1.0, 0.0]), "g' vanishes at x = 0"),
        (SINE, JACOBI, np.array([0.1, math.pi / 2, -math.pi / 2]),
         "g(x) hits the ODE singular point 1 at x = 1.5708"),
        (SINE, JACOBI, np.array([0.1, -math.pi / 2]),
         "g(x) hits the ODE singular point -1 at x = -1.5708"),
        # g = (x + 2i)^2 / 4 is -1 = -a at x = 0
        (GMap("quadratic", 1.0, 2j), X1Family("laguerre", 1.0), np.array([1.0, 0.0]),
         "g(x) hits the ODE singular point -1 at x = 0"),
        # g = x^2 / 4 is (a + b) / (b - a) = 1/4 at x = 1
        (QUADRATIC, X1Family("jacobi", -0.375, 0.625), np.array([0.5, 1.0]),
         "g(x) hits the ODE singular point 0.25 at x = 1"),
        # q(g)^2 overflows next to the pole at g = 0 that g' still misses
        (QUADRATIC, LAGUERRE, np.array([2.0, 1e-150]), "transformation not finite at x = 1e-150"),
        (QUADRATIC, LAGUERRE, 1e-150, "transformation not finite at x = 1e-150"),
    ], ids=["dg-zero", "upper-edge", "lower-edge", "laguerre-minus-a", "jacobi-d-root",
            "not-finite", "not-finite-scalar"])
    def test_refusal_messages(self, gm, fam, x, message):
        with pytest.raises(SingularityError) as got:
            pct_e_minus_v(gm, fam, 1, x)
        assert str(got.value) == message


class TestExtraction:
    @pytest.mark.parametrize("n", [0, -1, 1.5, True])
    def test_member_index_must_be_positive_integer(self, n):
        with pytest.raises(ArgumentError):
            extract_potential_report(QUADRATIC, LAGUERRE, (n, 2), [1.0])

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

    def test_split_needs_no_grid_points(self):
        gm = GMap("quadratic", 1.75)
        fam = X1Family("laguerre", 2.0)
        rep = extract_potential_report(gm, fam, (1, 2), [])
        assert rep.v_values.shape == (0,)
        assert rep.dw_spread == 0.0
        assert rep.energies == (4.59375, 7.65625)
        one = extract_potential_report(gm, fam, (1, 2), [1.5])
        assert one.v_values[0] == pytest.approx(potential(PotentialModel(
            "radial_extended", 2.0, None, 1.75), 1.5), rel=1e-15)

    def test_split_is_cached_across_shifts(self, monkeypatch):
        fam = X1Family("jacobi", 0.5, 1.5)
        xs = np.linspace(-1.0, 1.0, 20)
        rep = extract_potential_report(GMap("sine", 1.25), fam, (1, 2), xs)

        def no_split(*args):
            raise AssertionError("the split was computed again")

        monkeypatch.setattr(pct, "_partial_fractions", no_split)
        again = extract_potential_report(GMap("sine", 2.0, 0.8j), fam, (2, 1), xs)
        assert again.terms == rep.terms
        assert again.energies == (25.0, 9.0)  # (n + 1/2)^2 k^2


def _exact_index(x):
    return Fraction(float(x))


class TestExactSplit:
    """The split against closed forms, compared in ``Fraction``; each
    energy must be the exact E_n rounded once."""

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.7])
    def test_laguerre_closed_form(self, a):
        # (E - V)/k^2 = (n + (a - 1)/2) - g/4 - (4a^2 - 1)/(16 g)
        #               - 1/(g + a) + 2a/(g + a)^2
        A, k = _exact_index(a), 1.75
        want = {(0, -1): Fraction(1, 4), (0, 1): (4 * A * A - 1) / 16,
                (-A, 1): Fraction(1), (-A, 2): -2 * A}
        want = {key: c for key, c in want.items() if c}
        for pair in ((1, 2), (3, 4)):
            rep = extract_potential_report(
                GMap("quadratic", k), X1Family("laguerre", a), pair, [])
            assert rep.terms == want
            for n, e in zip(pair, rep.energies):
                assert e == float((n + (A - 1) / 2) * Fraction(k) ** 2)

    @pytest.mark.parametrize("a, b", [(1.75, 3.0), (0.5, 1.5), (2.3, 0.7), (-0.25, -0.4)])
    def test_jacobi_rational_terms_and_energies(self, a, b):
        A, B, k = _exact_index(a), _exact_index(b), 1.25
        pole = (A + B) / (B - A)  # the root of D = a + b - (b - a) g
        for pair in ((1, 2), (3, 4)):
            rep = extract_potential_report(
                GMap("sine", k), X1Family("jacobi", a, b), pair, [])
            assert rep.terms[(pole, 2)] * (A - B) ** 2 == -8 * A * B
            assert rep.terms[(pole, 1)] * (A - B) == 2 * (A + B)
            for n, e in zip(pair, rep.energies):
                assert e == float((n + (A + B - 1) / 2) ** 2 * Fraction(k) ** 2)

    @pytest.mark.parametrize("a, b", [(0.0, 1.5), (1.5, 0.0), (-0.25, -0.4)])
    def test_jacobi_energies_where_the_poles_meet(self, a, b):
        # at a zero index D's root meets +-1; the least-squares split
        # this replaced gave E_1 / k^2 = 1.5624999999987748 for 25/16 there
        A, B, k = _exact_index(a), _exact_index(b), 1.25
        half = 0.5 * math.pi / k
        rep = extract_potential_report(
            GMap("sine", k), X1Family("jacobi", a, b), (1, 2),
            np.linspace(-0.9 * half, 0.9 * half, 50))
        for n, e in zip((1, 2), rep.energies):
            want = (n + (A + B - 1) / 2) ** 2 * Fraction(k) ** 2
            assert abs(Fraction(e) - want) / want <= 1e-15


class TestRationalTerm:
    """The 1/D^2 coefficient of the trigonometric potential.

    Two inequivalent printed forms circulate for this term; the engine's
    exact partial fractions are the arbiter.  Frozen here so the
    adjudicated value cannot silently drift.
    """

    def test_split_pins_the_product_form(self, scarf_hermitian):
        a, b = _exact_index(scarf_hermitian.a), _exact_index(scarf_hermitian.b)
        k = Fraction(scarf_hermitian.k)
        fam = X1Family("jacobi", scarf_hermitian.a, scarf_hermitian.b)
        rep = extract_potential_report(GMap("sine", scarf_hermitian.k), fam, (1, 2), [])
        exact = rep.terms[((a + b) / (b - a), 2)] * (a - b) ** 2 * k * k
        product_form = -8 * k * k * a * b  # -65.625 at these parameters
        difference_form = 2 * k * k * ((a - b) ** 2 - 4 * a * b)
        assert exact == product_form
        assert abs(exact - difference_form) / abs(difference_form) > Fraction(1, 100)

    def test_first_order_term(self, scarf_hermitian):
        a, b = _exact_index(scarf_hermitian.a), _exact_index(scarf_hermitian.b)
        fam = X1Family("jacobi", scarf_hermitian.a, scarf_hermitian.b)
        rep = extract_potential_report(GMap("sine", scarf_hermitian.k), fam, (1, 2), [])
        assert rep.terms[((a + b) / (b - a), 1)] * (a - b) == 2 * (a + b)
