import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yukawa_ed.errors import CapacityError, EvaluationError, ParameterError
from yukawa_ed.lattice import DiscreteCoefficients, MomentumLattice, build_lattice, discretize


def brute_force_integer_points(V, L):
    """Independent enumeration: keep n with |2 pi n / V| < L + pi/V strictly, per axis."""
    spacing = 2 * np.pi / V
    half = np.pi / V
    n_top = int(np.ceil((L + half) / spacing)) + 2
    axis = [n for n in range(-n_top, n_top + 1) if abs(n * spacing) < L + half]
    pts = [(a, b, c) for a in axis for b in axis for c in axis]
    return sorted(pts)


def test_minimal_box_has_single_point():
    lat = build_lattice(2 * np.pi, 0.5)
    assert lat.n_points == 1
    assert np.array_equal(lat.integer_points, [[0, 0, 0]])
    assert lat.cell_volume == pytest.approx(1.0, abs=0)


def test_unit_spacing_27_points():
    lat = build_lattice(2 * np.pi, 1.5)
    assert lat.n_points == 27
    assert set(np.unique(lat.integer_points)) == {-1, 0, 1}


def test_half_spacing_lattice_matches_brute_force():
    V, L = 4 * np.pi, 0.6
    lat = build_lattice(V, L)
    expected = brute_force_integer_points(V, L)
    assert lat.n_points == len(expected) == 27
    assert [tuple(row) for row in lat.integer_points] == expected
    assert lat.spacing == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(
    V=st.floats(min_value=0.5, max_value=30.0),
    L=st.floats(min_value=0.05, max_value=3.0),
)
def test_build_matches_brute_force_enumeration(V, L):
    expected = brute_force_integer_points(V, L)
    if len(expected) > 20_000:
        return
    lat = build_lattice(V, L)
    assert [tuple(row) for row in lat.integer_points] == expected


def test_boundary_tie_cell_is_excluded():
    # cell of n=1 touches the box corner exactly; zero-volume overlap drops it
    lat = build_lattice(2 * np.pi, 0.5)
    assert lat.n_points == 1


def test_zero_point_present_and_ordering_deterministic():
    a = build_lattice(np.pi, 2.1)
    b = build_lattice(np.pi, 2.1)
    assert np.array_equal(a.integer_points, b.integer_points)
    assert any(np.all(row == 0) for row in a.integer_points)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "V, L", [(-1.0, 1.0), (2 * np.pi, 0.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf),
             (np.float32("nan"), 1.0)],
)
def test_invalid_parameters_rejected(V, L):
    # NaN and inf gave NaN momenta from explicit points, a bare ValueError or OverflowError from the box
    with pytest.raises(ParameterError, match="finite and positive"):
        build_lattice(V, L)
    with pytest.raises(ParameterError, match="finite and positive"):
        MomentumLattice.from_integer_points(V, L, [[0, 0, 1]])


def test_point_cap_enforced():
    with pytest.raises(CapacityError) as err:
        build_lattice(200.0, 10.0, point_cap=1000)
    assert err.value.projected > 1000


def test_lattice_past_the_cap_is_refused_before_it_allocates():
    # the axis alone would hold 1.6e14 integers (1.1 PiB); the cap refuses it first
    with pytest.raises(CapacityError) as err:
        build_lattice(1e15, 1.0)
    assert err.value.projected > 10**42


def test_explicit_point_lattice_sorted_and_validated():
    lat = MomentumLattice.from_integer_points(2 * np.pi, 1.0, [[0, 0, 1], [0, 0, 0]])
    assert [tuple(r) for r in lat.integer_points] == [(0, 0, 0), (0, 0, 1)]
    lat = MomentumLattice.from_integer_points(2 * np.pi, 1.0, [[0, 0, 1.0]])
    assert lat.integer_points.tolist() == [[0, 0, 1]]
    with pytest.raises(ParameterError):
        MomentumLattice.from_integer_points(2 * np.pi, 1.0, [[0, 0, 0], [0, 0, 0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "points",
    [
        [[0, 0]], [[0, 0, 0, 0, 0, 1]], [[0, 0, 0], [0, 0]], [0, 0, 0], [["a", 0, 0]],
        [[0, 0, 0.5]], [[0, 0, True]], [[0, 0, np.nan]], [[np.inf, 0, 0]],
    ],
)
def test_explicit_points_must_be_integer_triples(points):
    with pytest.raises(ParameterError, match="integer triples"):
        MomentumLattice.from_integer_points(2 * np.pi, 1.0, points)


def test_discretize_constant_function_norm():
    lat = build_lattice(2 * np.pi, 1.5)
    coeff = discretize(lambda q: 1.0, lat)
    assert coeff.norm**2 == pytest.approx(27.0, rel=1e-14)


def test_discretize_gaussian_single_point():
    lat = build_lattice(2 * np.pi, 0.5)
    coeff = discretize(lambda q: np.exp(-np.dot(q, q)), lat)
    assert coeff.values[0] == pytest.approx(1.0)


def test_discretize_dispersion_norm_matches_direct_summation():
    lat = build_lattice(2 * np.pi, 1.5)
    m = 1.0
    coeff = discretize(lambda q: np.sqrt(np.dot(q, q) + m * m), lat)
    direct = sum(np.dot(q, q) + m * m for q in lat.points) * lat.cell_volume
    assert coeff.norm**2 == pytest.approx(direct, rel=1e-13)


def test_discretize_rejects_non_finite_sample():
    lat = build_lattice(2 * np.pi, 1.5)

    def bad(q):
        return np.inf if np.all(q == 0) else 1.0

    with pytest.raises(EvaluationError) as err:
        discretize(bad, lat)
    assert "0.0" in str(err.value)


def test_refinement_error_shrinks_for_smooth_function():
    # Riemann-sum norm converges to the continuum L2 norm as spacing shrinks
    sigma = 0.8
    exact = (np.pi * sigma * sigma) ** 0.75  # L2 norm of exp(-|q|^2/(2 sigma^2))
    errors = []
    for V in (2.0, 4.0, 8.0):
        lat = build_lattice(V, 6.0)
        coeff = discretize(lambda q: np.exp(-np.dot(q, q) / (2 * sigma * sigma)), lat)
        errors.append(abs(coeff.norm - exact))
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]


def test_coefficient_length_validated():
    lat = build_lattice(2 * np.pi, 1.5)
    with pytest.raises(ParameterError):
        DiscreteCoefficients(np.ones(5), lat)
