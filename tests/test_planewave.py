import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddirac import planewave
from ddirac.calculus import delta_mu
from ddirac.clifford import clifford_mul, mul_basis_right, unit_form
from ddirac.equations import hestenes_residual_operator
from ddirac.lattice import LatticeBox
from ddirac.multiindex import EVEN_SLOTS, NSLOTS, ODD_SLOTS
from ddirac.planewave import (
    E12_SLOT,
    X_SLOT,
    EvenAmplitude,
    Momentum,
    amplitude_from_minus,
    amplitude_from_plus,
    basis_rank,
    commutation_checks,
    psi,
    psi_slow,
    solution,
    solution_basis,
)

BOX5 = LatticeBox((5, 5, 5, 5))


def _random_momenta(rng, count, on_shell=True):
    out = []
    for _ in range(count):
        m = rng.uniform(0.5, 2.0)
        spatial = rng.uniform(-2.0, 2.0, 3)
        if on_shell:
            sign = 1 if rng.uniform() < 0.5 else -1
            out.append(Momentum.on_shell_from_spatial(m, spatial, sign))
        else:
            p0 = rng.uniform(-2.0, 2.0)
            mom = Momentum(m, (p0, *spatial))
            if abs(mom.mass_shell_defect()) < 0.1:
                continue
            out.append(mom)
    return out


def test_momentum_validation():
    with pytest.raises(ValueError):
        Momentum(0.0, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        Momentum(1.0, (1, 0, 0))
    mom = Momentum.on_shell_from_spatial(1.0, (0.3, -0.1, 0.2), -1)
    assert mom.p[0] < 0
    assert mom.on_shell()
    assert not Momentum(1.0, (2.0, 0, 0, 0)).on_shell()
    # any other sign scaled p0 off the shell
    for sign in (0, 2, -3, 0.5):
        with pytest.raises(ValueError, match="sign must be"):
            Momentum.on_shell_from_spatial(1.0, (0.3, -0.1, 0.2), sign)


@pytest.mark.parametrize("m", [np.inf, -np.inf, np.nan])
def test_momentum_rejects_non_finite_mass(m):
    """An infinite mass passed the shell test: inf <= 1e-9 * inf."""
    with pytest.raises(ValueError, match="finite and positive"):
        Momentum(m, (1, 0, 0, 0))


def test_large_momentum_is_on_shell():
    """Rounding in p0^2 grows with |p|; the shell test scales with it."""
    assert Momentum.on_shell_from_spatial(1.0, (1e4, 3e3, 0.1)).on_shell()


@given(size=st.floats(1e-6, 1e6),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda d: np.linalg.norm(d) > 1e-3),
       m=st.floats(1e-2, 1e2),
       sign=st.sampled_from([1, -1]))
def test_shell_test_is_relative(size, direction, m, sign):
    spatial = size * np.asarray(direction) / np.linalg.norm(direction)
    mom = Momentum.on_shell_from_spatial(m, spatial, sign)
    assert mom.on_shell()
    assert not Momentum(m, (mom.p[0] * (1 + 1e-6),) + mom.p[1:]).on_shell()


def test_wave_form_fast_matches_slow(rng):
    for mom in _random_momenta(rng, 3):
        for kind in ("plus", "minus"):
            fast = psi(kind, mom, BOX5)
            slow = psi_slow(kind, mom, BOX5)
            assert (fast - slow).max_abs() <= 1e-12 * max(fast.max_abs(), 1.0)


def test_wave_form_rejects_bad_kind():
    mom = Momentum(1.0, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        psi("up", mom, BOX5)


def test_wave_form_difference_identity(rng):
    """Delta_mu Psi = +/- p_mu Psi e12 on the depth-1 interior."""
    for mom in _random_momenta(rng, 5):
        for kind, sgn in (("plus", 1), ("minus", -1)):
            wave = psi(kind, mom, BOX5)
            scale = wave.max_abs()
            for mu in range(4):
                lhs = delta_mu(wave, mu)
                rhs = sgn * mom.p[mu] * mul_basis_right(wave, (1, 2))
                assert (lhs - rhs).max_abs(1) <= 1e-12 * scale


def test_wave_form_stays_in_commutative_subalgebra(rng):
    mom = _random_momenta(rng, 1)[0]
    wave = psi("minus", mom, BOX5)
    assert np.abs(wave.data[list(ODD_SLOTS)]).max() == 0.0
    populated = [mi for mi in [(1, 3), (2, 3), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)]
                 if np.abs(wave.component(mi)).max() > 0]
    assert populated == []


def test_amplitude_vector_round_trip(rng):
    coeffs = rng.uniform(-1, 1, 8)
    amp = EvenAmplitude(*coeffs)
    assert np.allclose(amp.as_vector(), coeffs)
    rebuilt = EvenAmplitude.from_parts(amp.plus_part(), amp.minus_part())
    assert rebuilt == amp


def test_amplitude_halves_commutation_structure():
    report = commutation_checks(7)
    assert report and all(report.values())


def test_commutation_checks_compare_exactly(monkeypatch):
    """The e0 products are signed slot shuffles, so an error of 1e-12 on
    each nonzero coefficient, well inside allclose's default rtol, must fail
    the e0 checks."""
    exact = planewave.mul_basis_right

    def perturbed(form, mi):
        out = exact(form, mi)
        out.data[out.data != 0] += 1e-12
        return out

    monkeypatch.setattr(planewave, "mul_basis_right", perturbed)
    report = commutation_checks(7)
    assert not report["e0_plus_commutation"]
    assert not report["e0_minus_commutation"]
    assert all(passed for test, passed in report.items() if "swaps" in test)


def test_completion_round_trip_on_shell(rng):
    """Completing from the plus half and re-deriving the plus half from the
    resulting minus half is the identity exactly when the momentum is on
    shell (the product of the two denominators is |p|^2... the shell)."""
    for mom in _random_momenta(rng, 5):
        for kind in ("plus", "minus"):
            free = rng.uniform(-1, 1, 4)
            try:
                amp = amplitude_from_plus(kind, mom, free)
                back = amplitude_from_minus(kind, mom, amp.minus_part())
            except ValueError:
                continue  # singular denominator (rest frame reached by chance)
            assert np.allclose(back.plus_part(), free, atol=1e-10)


def test_completion_not_consistent_off_shell(rng):
    mom = Momentum(1.0, (1.7, 0.3, -0.4, 0.2))
    assert not mom.on_shell()
    amp = amplitude_from_plus("minus", mom, [1.0, 0.2, -0.3, 0.4])
    back = amplitude_from_minus("minus", mom, amp.minus_part())
    assert not np.allclose(back.plus_part(), amp.plus_part(), atol=1e-3)


def test_singular_denominator_raises():
    rest = Momentum(1.0, (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        amplitude_from_plus("minus", rest, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        amplitude_from_minus("plus", rest, [1.0, 0.0, 0.0, 0.0])


def test_solutions_satisfy_field_equation(rng):
    for mom in _random_momenta(rng, 3):
        for kind in ("plus", "minus"):
            for amp in solution_basis(kind, mom):
                sol = solution(kind, mom, amp, BOX5)
                res = hestenes_residual_operator(sol, mom.m)
                assert res.rel <= 1e-10


def test_solution_basis_rank_both_energy_signs(rng):
    for sign in (+1, -1):
        mom = Momentum.on_shell_from_spatial(1.0, (0.4, -0.2, 0.7), sign)
        for kind in ("plus", "minus"):
            basis = solution_basis(kind, mom)
            assert len(basis) == 4
            assert basis_rank(basis) == 4


def test_solution_basis_rejects_off_shell():
    with pytest.raises(ValueError):
        solution_basis("minus", Momentum(1.0, (2.0, 0.0, 0.0, 0.0)))


@pytest.mark.parametrize("p", [(np.nan, 0.5, 0, 0), (1.5, 0.5, np.inf, 0),
                               (1.5, 0.5, 0, -np.inf)])
def test_momentum_rejects_non_finite_component(p):
    with pytest.raises(ValueError, match="momentum components must be finite"):
        Momentum(1.0, p)


@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_near_massless_rest_momentum_is_off_shell(kind):
    """p.p - m^2 = -1e-12 is the whole of m^2: the shell test is relative
    to the momentum's own size, so this momentum has no solution basis."""
    rest = Momentum(1e-6, (0.0, 0.0, 0.0, 0.0))
    assert not rest.on_shell()
    with pytest.raises(ValueError, match="off shell"):
        solution_basis(kind, rest)
    # at its own scale the on-shell rest momentum still passes
    assert Momentum(1e-6, (1e-6, 0.0, 0.0, 0.0)).on_shell()


def test_rest_frame_forces_vanishing_half():
    rest = Momentum(1.0, (1.0, 0.0, 0.0, 0.0))
    for amp in solution_basis("minus", rest):
        assert np.abs(amp.plus_part()).max() == 0.0
    for amp in solution_basis("plus", rest):
        assert np.abs(amp.minus_part()).max() == 0.0


def test_rest_frame_residual_scan(rng):
    """Direct check independent of the solver: in the rest frame any nonzero
    commuting half (kind minus) leaves a residual of order m."""
    rest = Momentum(1.0, (1.0, 0.0, 0.0, 0.0))
    box = LatticeBox((4, 4, 4, 4))
    for _ in range(5):
        amp = EvenAmplitude.from_parts(rng.uniform(-1, 1, 4), np.zeros(4))
        sol = solution("minus", rest, amp, box)
        assert hestenes_residual_operator(sol, rest.m).rel > 1e-2
        good = EvenAmplitude.from_parts(np.zeros(4), rng.uniform(-1, 1, 4))
        sol = solution("minus", rest, good, box)
        assert hestenes_residual_operator(sol, rest.m).rel <= 1e-12


def test_coupling_system_rows():
    """The linear system (m - p0) A_minus = B A_plus written out, with
    B = p1 e01 + p2 e02 + p3 e03 read off the Clifford table.  The last row
    couples alpha4 to the e12/e13/e23 coefficients with signs (+p3, -p2, +p1)
    in the (e12, e13, e23) columns."""
    p1, p2, p3 = 0.3, 0.5, 0.7
    minus_from_plus, _ = planewave._coupling_matrices((p1, p2, p3))
    assert minus_from_plus.shape == (4, 4)
    # row 0: (m-p0) a01 = p1 a0 + p2 a12 + p3 a13
    assert np.allclose(minus_from_plus[0], [p1, p2, p3, 0.0])
    # row 3: (m-p0) a4 = p3 a12 - p2 a13 + p1 a23
    assert np.allclose(minus_from_plus[3], [0.0, p3, -p2, p1])


def test_coupling_system_annihilates_solutions(rng):
    for mom in _random_momenta(rng, 4):
        minus_from_plus, _ = planewave._coupling_matrices(mom.p[1:])
        for amp in solution_basis("minus", mom):
            lhs = (mom.m - mom.p[0]) * amp.minus_part()
            assert np.abs(lhs - minus_from_plus @ amp.plus_part()).max() <= 1e-10


def test_solution_is_amplitude_times_wave(rng):
    """The two-broadcast solution gives the very numbers of the general
    256-term Clifford product, off shell and for arbitrary amplitudes too."""
    box = LatticeBox((4, 3, 2, 5))
    momenta = _random_momenta(rng, 4) + _random_momenta(rng, 4, on_shell=False)
    for mom in momenta:
        for kind in ("plus", "minus"):
            amps = [EvenAmplitude(*rng.uniform(-1, 1, 8))]
            if mom.on_shell():
                amps += solution_basis(kind, mom)
            for amp in amps:
                sol = solution(kind, mom, amp, box)
                direct = clifford_mul(amp.as_cochain(box), psi(kind, mom, box))
                assert sol.scalar_kind == "real" and sol.data.dtype == np.float64
                assert np.array_equal(sol.data, direct.data)


def _whole_box_wave(kind, mom, extents):
    """The wave with every axis factor multiplied into a full-box array of
    ones: the same product at each point, made the long way."""
    sgn = 1 if kind == "plus" else -1
    w = np.ones(extents, dtype=np.complex128)
    for mu, (n, p) in enumerate(zip(extents, mom.p)):
        shape = [1, 1, 1, 1]
        shape[mu] = n
        w = w * ((1.0 + sgn * 1j * p) ** np.arange(n)).reshape(shape)
    return w


@pytest.mark.parametrize("extents", [(4, 3, 2, 5), (1, 5, 1, 3), (6, 1, 7, 2),
                                     (1, 1, 1, 1), (1, 1, 9, 1)])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_psi_and_solution_bytes_match_the_whole_box_product(rng, extents, kind):
    """Byte for byte, so signed zeros count, where `np.array_equal` above
    cannot see them: `psi` and `solution` against the whole-box wave, its
    parts written into a zeroed form and each even slot of the solution
    taken as A_s * psi + (A e12)_s * phi.  Among the momenta are one at
    rest, whose wave has signed-zero imaginary parts, and one whose wave
    overflows; among the amplitudes, one with signed-zero coefficients."""
    box = LatticeBox(extents)
    momenta = (_random_momenta(rng, 2) + _random_momenta(rng, 2, on_shell=False)
               + [Momentum.on_shell_from_spatial(1.0, (0.0, 0.0, 0.0), -1),
                  Momentum(0.5, (3e100, -2e100, 0.0, 1e100))])
    point = LatticeBox((1, 1, 1, 1))
    for mom in momenta:
        with np.errstate(all="ignore"):
            w = _whole_box_wave(kind, mom, extents)
            want = np.zeros((NSLOTS,) + extents)
            want[X_SLOT], want[E12_SLOT] = w.real, w.imag
            assert psi(kind, mom, box).data.tobytes() == want.tobytes()
            amps = [EvenAmplitude(*rng.uniform(-1, 1, 8)),
                    EvenAmplitude(-0.0, 0.0, -0.0, 1.5, -0.0, -2.0, 0.0, -0.0)]
            if mom.on_shell():
                amps += solution_basis(kind, mom)
            for amp in amps:
                coeffs = amp.as_cochain(point)
                coeffs_e12 = mul_basis_right(coeffs, (1, 2)).data
                want = np.zeros((NSLOTS,) + extents)
                for s in EVEN_SLOTS:
                    want[s] = coeffs.data[s] * w.real + coeffs_e12[s] * w.imag
                got = solution(kind, mom, amp, box).data
                assert got.tobytes() == want.tobytes()


def test_unit_wave_at_origin():
    mom = Momentum(1.0, (1.0, 0.5, 0.5, 0.5))
    wave = psi("plus", mom, BOX5)
    origin = (0, 0, 0, 0)
    assert wave.component(())[origin] == 1.0
    assert wave.component((1, 2))[origin] == 0.0
    x = unit_form((), BOX5)
    assert x.component(())[origin] == 1.0
