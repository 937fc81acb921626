import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpcmobo.core import DataError
from hpcmobo.pareto import (
    ParetoFront,
    hypervolume,
    hypervolume_improvement,
    infer_reference,
    nondominated,
    spread,
)
from oracles import mc_hypervolume


def brute_force_front(points):
    """O(n^2) pairwise dominance oracle, independent of the sweep."""
    pts = [tuple(map(float, p)) for p in points]
    kept = []
    for p in pts:
        dominated = False
        for q in pts:
            if q != p and q[0] <= p[0] and q[1] <= p[1]:
                dominated = True
                break
        if not dominated and p not in kept:
            kept.append(p)
    return sorted(kept)


def test_nondominated_drops_dominated_point():
    front = nondominated([(1, 2), (2, 1), (2, 2)])
    assert front.points == ((1.0, 2.0), (2.0, 1.0))


def test_nondominated_single_point_identity():
    assert nondominated([(3, 4)]).points == ((3.0, 4.0),)


def test_nondominated_collapses_duplicates_and_weak_domination():
    front = nondominated([(1, 2), (1, 2), (1, 3), (2, 2)])
    assert front.points == ((1.0, 2.0),)


def test_nondominated_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(30):
        pts = rng.normal(size=(200, 2))
        got = sorted(nondominated(pts).points)
        assert got == brute_force_front(pts)


def test_front_sorted_ascending_x_descending_y():
    rng = np.random.default_rng(3)
    front = nondominated(rng.random((100, 2))).points
    xs = [p[0] for p in front]
    ys = [p[1] for p in front]
    assert xs == sorted(xs)
    assert ys == sorted(ys, reverse=True)


def test_hypervolume_worked_case_exact():
    assert hypervolume(nondominated([(1, 2), (2, 1)]), (3, 3)) == pytest.approx(3.0, abs=1e-12)


def test_hypervolume_worked_case_matches_mc_oracle():
    front = nondominated([(1, 2), (2, 1)])
    mc = mc_hypervolume(front, (3, 3), samples=10**6, seed=5)
    assert mc == pytest.approx(3.0, rel=0.01)


def test_hypervolume_empty_front_and_point_on_reference():
    assert hypervolume(ParetoFront(()), (3, 3)) == 0.0
    assert hypervolume(nondominated([(1, 1)]), (1, 1)) == 0.0


def test_hypervolume_ignores_points_outside_ref_box():
    assert hypervolume(nondominated([(1, 5), (2, 1)]), (3, 3)) == pytest.approx(2.0)


def test_hypervolume_monotone_under_point_addition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = list(rng.random((12, 2)))
        ref = (2.0, 2.0)
        base = hypervolume(nondominated(pts), ref)
        extra = rng.random(2)
        grown = hypervolume(nondominated(pts + [extra]), ref)
        assert grown >= base - 1e-12


def test_hypervolume_strictly_grows_when_dominating_point_added():
    pts = [(1.0, 1.0)]
    ref = (2.0, 2.0)
    base = hypervolume(nondominated(pts), ref)
    grown = hypervolume(nondominated(pts + [(0.5, 0.5)]), ref)
    assert grown > base


def test_hypervolume_translation_and_scale_consistency():
    rng = np.random.default_rng(13)
    pts = rng.random((10, 2))
    ref = np.array([1.5, 1.5])
    base = hypervolume(nondominated(pts), ref)
    shift = np.array([3.0, -2.0])
    shifted = hypervolume(nondominated(pts + shift), ref + shift)
    assert shifted == pytest.approx(base, rel=1e-12)
    c = 2.5
    scaled = hypervolume(nondominated(pts * np.array([c, 1.0])), ref * np.array([c, 1.0]))
    assert scaled == pytest.approx(c * base, rel=1e-12)


def test_exact_vs_mc_oracle_within_3_sigma_on_random_fronts():
    rng = np.random.default_rng(17)
    samples = 200_000
    for trial in range(25):
        size = int(rng.integers(1, 30))
        front = nondominated(rng.random((size, 2)))
        ref = (1.2, 1.2)
        exact = hypervolume(front, ref)
        mc = mc_hypervolume(front, ref, samples=samples, seed=trial)
        pts = front.as_array()
        lo = np.minimum(pts.min(axis=0), ref)
        area = (ref[0] - lo[0]) * (ref[1] - lo[1])
        p = exact / area
        sigma = area * np.sqrt(max(p * (1 - p), 1e-12) / samples)
        assert abs(exact - mc) <= 3 * sigma + 1e-9


def test_mc_hypervolume_degenerate_cases():
    assert mc_hypervolume(ParetoFront(()), (3, 3), samples=100, seed=0) == 0.0
    # front point at the box corner dominates the whole box
    front = nondominated([(0.0, 0.0)])
    assert mc_hypervolume(front, (2.0, 3.0), samples=50_000, seed=1) == pytest.approx(6.0)


def test_spread_examples():
    assert spread(nondominated([(5, 5)])) == 0.0
    assert spread(ParetoFront(())) == 0.0
    assert spread(nondominated([(0, 1), (1, 0)])) == pytest.approx(np.sqrt(2))
    assert spread(nondominated([(0, 2), (1, 1), (2, 0)])) == pytest.approx(2 * np.sqrt(2))


def test_infer_reference_inflates_by_ten_percent_of_range():
    assert infer_reference([(1, 1), (3, 2)]) == pytest.approx((3.2, 2.1))


def test_infer_reference_floor_inflation_on_zero_range():
    assert infer_reference([(5, 5)]) == (6.0, 6.0)


def test_infer_reference_dominated_by_every_observed_point():
    rng = np.random.default_rng(23)
    pts = rng.random((50, 2)) * 10
    ref = infer_reference(pts)
    front = nondominated(pts)
    for p in front.points:
        assert p[0] < ref[0] and p[1] < ref[1]
        assert hypervolume(nondominated([p]), ref) > 0


def test_hypervolume_improvement_matches_direct_recompute():
    rng = np.random.default_rng(29)
    for _ in range(20):
        front = nondominated(rng.random((8, 2)))
        ref = np.array([1.3, 1.4])
        cands = rng.random((16, 2)) * 1.5
        batch = hypervolume_improvement(front, ref, cands)
        base = hypervolume(front, ref)
        for point, gain in zip(cands, batch):
            joined = hypervolume(nondominated(list(front.points) + [point]), ref)
            assert gain == pytest.approx(joined - base, abs=1e-10)


# inputs that are not an (n, 2) array of objective pairs, with their shapes;
# the first two used to be reshaped into the two-point front ((1, 2), (3, 0.5))
_NOT_PAIRS = [
    ([1.0, 2.0, 3.0, 0.5], (4,)),
    ([[1.0, 2.0, 3.0, 0.5]], (1, 4)),
    ([[1.0, 2.0, 3.0]], (1, 3)),
    ([[[1.0, 2.0]]], (1, 1, 2)),
    (1.0, ()),
]


def _names_shape(what, shape):
    return re.escape(f"{what} needs an (n, 2) array of objective pairs, got shape {shape}")


@pytest.mark.parametrize("points, shape", _NOT_PAIRS)
def test_nondominated_requires_n_by_2_points(points, shape):
    with pytest.raises(DataError, match=_names_shape("nondominated()", shape)):
        nondominated(points)
    assert nondominated([]).points == ()
    assert nondominated(np.empty((0, 2))).points == ()


@pytest.mark.parametrize("points, shape", _NOT_PAIRS)
def test_infer_reference_requires_n_by_2_points(points, shape):
    with pytest.raises(DataError, match=_names_shape("infer_reference()", shape)):
        infer_reference(points)
    with pytest.raises(DataError, match="zero observations"):
        infer_reference(np.empty((0, 2)))


@pytest.mark.parametrize("points, shape", _NOT_PAIRS)
def test_hypervolume_improvement_requires_n_by_2_candidates(points, shape):
    front, ref = nondominated([(1.0, 2.0)]), np.array([3.0, 3.0])
    with pytest.raises(DataError, match=_names_shape("hypervolume_improvement()", shape)):
        hypervolume_improvement(front, ref, points)
    assert hypervolume_improvement(front, ref, np.empty((0, 2))).shape == (0,)


# coordinates from a small grid (ties and duplicates) mixed with arbitrary floats
_coord = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                   st.floats(-1e3, 1e3, allow_nan=False))
_points = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=24)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pts=_points)
def test_nondominated_is_idempotent_order_free_and_matches_brute_force(data, pts):
    front = nondominated(pts)
    assert nondominated(front.points) == front
    assert nondominated(data.draw(st.permutations(pts))) == front
    assert sorted(front.points) == brute_force_front(pts)


@settings(max_examples=200, deadline=None)
@given(pts=_points, extra=st.tuples(_coord, _coord))
def test_hypervolume_improvement_is_the_hypervolume_gained(pts, extra):
    # the reference ignores `extra`, which may therefore fall outside the box
    front, ref = nondominated(pts), np.asarray(infer_reference(pts))
    joined = hypervolume(nondominated(pts + [extra]), ref)
    gain = hypervolume_improvement(front, ref, np.array([extra]))[0]
    # 1e-300 absorbs areas that underflow below the normal floats
    assert abs(gain - (joined - hypervolume(front, ref))) <= 1e-9 * joined + 1e-300


@settings(max_examples=200, deadline=None)
@given(pts=_points, extra=st.tuples(_coord, _coord))
def test_hypervolume_never_falls_when_a_point_is_added(pts, extra):
    ref = infer_reference(pts + [extra])
    base = hypervolume(nondominated(pts), ref)
    # the sweep may round the two sums differently, by far less than 1e-12
    # (or 1e-300 for areas that underflow below the normal floats)
    assert hypervolume(nondominated(pts + [extra]), ref) >= base * (1 - 1e-12) - 1e-300


@settings(max_examples=200, deadline=None)
@given(pts=_points)
# ranges whose 10% pad is below the spacing of floats at their maximum
@example(pts=[(0.0, 1.0), (5e-324, 1.0)])
@example(pts=[(1000.0, 1.0), (1000.0 - 2**-43, 1.0)])
def test_every_observed_point_strictly_dominates_the_inferred_reference(pts):
    ref = infer_reference(pts)
    for x, y in pts:
        assert x < ref[0] and y < ref[1]
