import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qfront.eikonal import (
    DEFAULT_BALL_CELLS,
    SourceSpec,
    TraveltimeField,
    cone_error as eikonal_cone_error,
    front_mask,
    _slowness_per_cell,
    solve_traveltime,
)
from qfront.fields import Grid, ScalarField
from test_bits import PINS


def cone_error(tt, center, exclude_cells=5.0):
    """Max relative error against t = r/v for a unit-speed point source."""
    grid = tt.grid
    coords = np.meshgrid(*[np.arange(n) for n in grid.shape], indexing="ij")
    cell_dist = np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(coords, center)))
    r = np.sqrt(
        sum(
            ((c - c0) * h) ** 2
            for c, c0, h in zip(coords, center, grid.spacing)
        )
    )
    far = cell_dist > exclude_cells
    return float(np.max(np.abs(tt.t_P[far] - r[far]) / r[far]))


# --- validation -------------------------------------------------------------

def test_largest_spacing_in_range_solves():
    # The squared extent 1e308 is finite, and so is every t_P.
    tt = solve_traveltime(Grid((2,), (1e154,)), SourceSpec([(0,)]), 1.0)
    assert tt.t_P.tolist() == [0.0, 1e154]


@pytest.mark.parametrize("shape, spacing, cell, speed", [
    ((16,), (1e-10,), (3,), 1.0),
    ((7, 5), (1e-10, 2e-10), (2, 4), 2.0),
    # Spacings at which libm pow(x, 2) and x * x round some squared offset
    # differently: seeds squared by one and the cone by the other disagree.
    ((5, 7), (1.134, 1.734), (4, 0), 1.0),
    ((8, 5), (0.571, 2.759), (4, 2), 1.0),
])
def test_huge_ball_radius_seeds_every_cell_at_its_distance(shape, spacing, cell, speed):
    # radius / spacing overflows to inf, and the ball covers the grid: every
    # cell is seeded with the distance cone_error measures against.
    g = Grid(shape, spacing)
    source = SourceSpec([cell])
    tt = solve_traveltime(g, source, speed, source_ball_radius=1e300)
    index = np.indices(shape)
    dist = np.sqrt(sum(((i - c) * h) ** 2 for i, c, h in zip(index, cell, spacing)))
    np.testing.assert_array_equal(tt.t_P, dist * (1.0 / speed))
    assert eikonal_cone_error(tt, source, 0.0) == 0.0


def test_traveltime_field_speed_may_be_infinite_or_unknown():
    g = Grid((4,), (1.0,))
    assert TraveltimeField(g, np.zeros(4), math.inf).min_speed() == math.inf
    unknown = TraveltimeField(g, np.zeros(4), None)
    with pytest.raises(ValueError, match="v_P is None"):
        unknown.min_speed()
    with pytest.raises(ValueError, match="v_P is None"):
        eikonal_cone_error(TraveltimeField(Grid((9,), (1.0,)), np.arange(9.0), None),
                           SourceSpec([(0,)]))


def test_source_spec_takes_numpy_integers():
    assert SourceSpec([np.array([3, 4])]).cells == ((3, 4),)


def test_cone_error_excluding_no_cell_skips_only_the_sources():
    g = Grid((9,), (1.0,))
    tt = solve_traveltime(g, SourceSpec([(4,)]), 1.0)
    assert eikonal_cone_error(tt, SourceSpec([(4,)]), exclude_cells=0.0) == 0.0


# --- exactness oracles ------------------------------------------------------

def test_1d_uniform_exact():
    g = Grid((101,), (0.5,))
    tt = solve_traveltime(g, SourceSpec([(30,)]), 2.0)
    expected = np.abs(np.arange(101) - 30) * 0.5 / 2.0
    np.testing.assert_allclose(tt.t_P, expected, rtol=1e-13, atol=0.0)


def test_source_cells_are_zero():
    g = Grid((32, 32), (1.0, 1.0))
    tt = solve_traveltime(g, SourceSpec([(5, 7), (20, 3)]), 1.0)
    assert tt.t_P[5, 7] == 0.0
    assert tt.t_P[20, 3] == 0.0
    assert np.all(np.isfinite(tt.t_P))


def test_2d_plane_source_exact():
    # A full column of sources makes the problem effectively 1-D.
    g = Grid((40, 16), (0.25, 0.25))
    src = SourceSpec([(0, j) for j in range(16)])
    tt = solve_traveltime(g, src, 0.5)
    expected = np.broadcast_to(
        (np.arange(40) * 0.25 / 0.5)[:, None], (40, 16)
    )
    np.testing.assert_allclose(tt.t_P, expected, rtol=1e-12, atol=1e-14)


def test_1d_variable_speed_matches_cumulative_sum():
    # In 1-D the scheme integrates slowness cell by cell, which is exact
    # for the discrete problem: t_j = sum of h / v_i from the source out.
    g = Grid((64,), (0.3,))
    rng = np.random.default_rng(11)
    v = rng.uniform(0.5, 3.0, 64)
    tt = solve_traveltime(g, SourceSpec([(20,)]), ScalarField(g, v))
    s = 0.3 / v
    expected = np.zeros(64)
    for j in range(21, 64):
        expected[j] = expected[j - 1] + s[j]
    for j in range(19, -1, -1):
        expected[j] = expected[j + 1] + s[j]
    np.testing.assert_allclose(tt.t_P, expected, rtol=1e-12, atol=0.0)


def test_point_source_cone_accuracy_2d():
    # Frozen oracle: with the default seed ball the worst relative error
    # against the analytic cone beyond 5 cells measures 1.686% at 101x101.
    g = Grid((101, 101), (1.0, 1.0))
    tt = solve_traveltime(g, SourceSpec([(50, 50)]), 1.0)
    err = cone_error(tt, (50, 50))
    assert err < 0.02


def test_refinement_reduces_cone_error():
    # Hold the seed ball radius fixed in physical units; halving the
    # spacing should then roughly halve the first-order error.
    extent, ball = 100.0, 16.0
    errors = []
    for n in (51, 101):
        h = extent / (n - 1)
        g = Grid((n, n), (h, h))
        c = (n - 1) // 2
        tt = solve_traveltime(
            g, SourceSpec([(c, c)]), 1.0, source_ball_radius=ball
        )
        errors.append(cone_error(tt, (c, c)))
    assert errors[1] < 0.7 * errors[0]


def test_3d_cone_accuracy():
    # The first-order error constant is larger in 3-D; 2.8% measured on
    # this coarse grid with the default seed ball.
    g = Grid((25, 25, 25), (1.0, 1.0, 1.0))
    tt = solve_traveltime(g, SourceSpec([(12, 12, 12)]), 1.0)
    err = cone_error(tt, (12, 12, 12), exclude_cells=5.0)
    assert err < 0.035


def test_speed_scaling():
    # Doubling the speed exactly halves every traveltime (same update
    # sequence, scaled arithmetic).
    g = Grid((41, 41), (1.0, 1.0))
    src = SourceSpec([(20, 20)])
    t1 = solve_traveltime(g, src, 1.0).t_P
    t2 = solve_traveltime(g, src, 2.0).t_P
    np.testing.assert_allclose(t2, t1 / 2.0, rtol=1e-13)


def test_two_sources_1d_equals_min_of_singles():
    g = Grid((50,), (1.0,))
    ta = solve_traveltime(g, SourceSpec([(10,)]), 1.0).t_P
    tb = solve_traveltime(g, SourceSpec([(35,)]), 1.0).t_P
    tab = solve_traveltime(g, SourceSpec([(10,), (35,)]), 1.0).t_P
    assert np.array_equal(tab, np.minimum(ta, tb))


def test_two_sources_2d_bounded_by_min():
    g = Grid((41, 41), (1.0, 1.0))
    ta = solve_traveltime(g, SourceSpec([(5, 5)]), 1.0).t_P
    tb = solve_traveltime(g, SourceSpec([(30, 35)]), 1.0).t_P
    tab = solve_traveltime(g, SourceSpec([(5, 5), (30, 35)]), 1.0).t_P
    assert np.all(tab <= np.minimum(ta, tb) + 1e-12)


def test_determinism():
    g = Grid((33, 33), (1.0, 1.0))
    rng = np.random.default_rng(3)
    v = ScalarField(g, rng.uniform(0.5, 2.0, (33, 33)))
    src = SourceSpec([(16, 16)])
    a = solve_traveltime(g, src, v).t_P
    b = solve_traveltime(g, src, v).t_P
    assert np.array_equal(a, b)


@pytest.mark.parametrize("name", [pin[4:] for pin in PINS if pin.startswith("t_P ")])
def test_traveltime_bits_are_pinned(name):
    # Fast marching is deterministic, so any change to the march that is
    # meant to keep its arithmetic must reproduce these bytes exactly.
    solve, *args, digest = PINS[f"t_P {name}"]
    assert solve(*args) == digest


def reference_traveltime(grid, source, speed, ball):
    """Fast marching with a per-update pair list sorted as (value, h, 1/h^2).

    A frozen copy of the march as first written, kept as a bit-for-bit
    oracle for faster rewrites of ``solve_traveltime``.
    """
    slowness = _slowness_per_cell(grid, speed)
    if ball is None:
        ball = (0.0 if isinstance(speed, ScalarField)
                else DEFAULT_BALL_CELLS * max(grid.spacing))
    padded = tuple(n + 2 for n in grid.shape)
    strides = [math.prod(padded[a + 1:]) for a in range(grid.dims)]
    slowness = np.pad(slowness.reshape(grid.shape), 1).reshape(-1)
    axes = [(s, h, 1.0 / (h * h)) for s, h in zip(strides, grid.spacing)]
    t = [math.inf] * len(slowness)
    known = [math.inf] * len(slowness)
    far = bytearray(np.pad(np.ones(grid.shape, dtype=np.uint8), 1))
    heap = []
    # Seeds: the distance to the nearest source cell, within the ball.
    index = np.indices(grid.shape)
    dist = np.min([np.sqrt(sum(((i - c) * h) ** 2 for i, c, h in zip(index, cell, grid.spacing)))
                   for cell in source.cells], axis=0)
    for idx_nd in zip(*np.nonzero(dist <= ball)):
        flat = sum((int(i) + 1) * s for i, s in zip(idx_nd, strides))
        t[flat] = known[flat] = float(dist[idx_nd]) * slowness[flat]
        far[flat] = 0
        heap.append((t[flat], flat))
    heapq.heapify(heap)

    def update(idx):
        pairs = []
        for s, h, inv_h2 in axes:
            best = min(known[idx - s], known[idx + s])
            if best < math.inf:
                pairs.append((best, h, inv_h2))
        pairs.sort()
        s2 = slowness[idx] ** 2
        for m in range(len(pairs), 0, -1):
            alpha = beta = gamma = 0.0
            for a_val, _, inv_h2 in pairs[:m]:
                alpha += inv_h2
                beta += a_val * inv_h2
                gamma += a_val * a_val * inv_h2
            disc = beta * beta - alpha * (gamma - s2)
            if disc >= 0.0:
                cand = (beta + math.sqrt(disc)) / alpha
                if m == 1 or cand >= pairs[m - 1][0]:
                    return cand
        return math.inf

    while heap:
        tv, idx = heapq.heappop(heap)
        if tv > t[idx]:
            continue
        known[idx] = tv
        far[idx] = 0
        for s, _, _ in axes:
            for nb in (idx - s, idx + s):
                if far[nb]:
                    cand = update(nb)
                    if cand < t[nb]:
                        t[nb] = cand
                        heapq.heappush(heap, (cand, nb))
    interior = (slice(1, -1),) * grid.dims
    return np.asarray(known).reshape(padded)[interior]


@st.composite
def march_configs(draw):
    dims = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, (40, 16, 8)[dims - 1])) for _ in range(dims))
    if draw(st.booleans()):
        spacing = tuple(draw(st.floats(0.2, 3.0)) for _ in range(dims))
    else:
        # Two axes share a spacing, the third differs by a simple ratio, so
        # neighbour values tie across unequal spacings and the order of the
        # (value, spacing) keys decides the arithmetic.
        h = draw(st.sampled_from([0.5, 1.0, 1.5]))
        other = h * draw(st.sampled_from([0.5, 2.0, 3.0]))
        spacing = [h] * dims
        spacing[draw(st.integers(0, dims - 1))] = other
        spacing = tuple(spacing)
    cells = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in shape)),
                          min_size=1, max_size=3))
    grid = Grid(shape, spacing)
    if draw(st.booleans()):
        speed = draw(st.floats(0.5, 3.0))
    else:
        seed = draw(st.integers(0, 2**31 - 1))
        speed = ScalarField(grid, np.random.default_rng(seed).uniform(0.5, 2.0, shape))
    # Besides none and the default, a small ball leaves seeded values ahead
    # of the front, where more three-axis roots fail the causality test.
    ball = draw(st.sampled_from([0.0, None]) | st.floats(0.5, 4.0))
    return grid, SourceSpec(cells), speed, ball


@given(march_configs())
# Two sources on 3-D grids with two equal spacings, where the order of
# tied (value, spacing) keys, and the fall-back from a non-causal
# three-axis root, change the output bits.
@example((Grid((2, 4, 2), (1.5, 0.75, 1.5)), SourceSpec([(0, 2, 1), (1, 3, 1)]), 1.0, 0.0))
@example((Grid((2, 2, 2), (1.5, 0.75, 1.5)), SourceSpec([(1, 0, 1), (1, 0, 0)]), 1.0, 0.0))
def test_traveltime_matches_reference_march_bits(config):
    grid, source, speed, ball = config
    got = solve_traveltime(grid, source, speed, source_ball_radius=ball).t_P
    expected = reference_traveltime(grid, source, speed, ball)
    assert got.tobytes() == expected.tobytes()


def test_scalar_field_speed_defaults_to_no_ball():
    # Straight-ray seeding is wrong in variable media, so the default
    # ball radius is zero there; a uniform field must match a scalar
    # solve with the ball disabled.
    g = Grid((31, 31), (1.0, 1.0))
    src = SourceSpec([(15, 15)])
    from_field = solve_traveltime(g, src, ScalarField(g, np.full((31, 31), 2.0)))
    from_scalar = solve_traveltime(g, src, 2.0, source_ball_radius=0.0)
    assert np.array_equal(from_field.t_P, from_scalar.t_P)


@pytest.mark.parametrize("shape, spacing, cells", [
    ((47, 35), (0.7, 1.3), [(3, 4), (40, 30), (20, 10)]),
    ((16, 14, 12), (1.0, 0.8, 1.2), [(2, 2, 2), (13, 10, 9)]),
])
def test_cone_error_matches_distance_transform(shape, spacing, cells):
    # Independent oracle: the exact multi-source first arrival is the
    # Euclidean distance transform of the source set divided by v.
    from scipy import ndimage

    g = Grid(shape, spacing)
    source = SourceSpec(cells)
    tt = solve_traveltime(g, source, 1.7)
    outside = np.ones(shape, dtype=bool)
    for cell in cells:
        outside[cell] = False
    exact = ndimage.distance_transform_edt(outside, sampling=spacing) / 1.7
    beyond = ndimage.distance_transform_edt(outside) > 5.0
    expected = np.max(np.abs(tt.t_P[beyond] - exact[beyond]) / exact[beyond])
    assert eikonal_cone_error(tt, source) == pytest.approx(expected, rel=1e-12, abs=0)


# --- causality and mask properties ------------------------------------------

@given(
    seed=st.integers(0, 2**31 - 1),
    src=st.tuples(st.integers(0, 11), st.integers(0, 9)),
)
def test_upwind_causality_property(seed, src):
    # Every non-source value must exceed the smallest axis-neighbour
    # value: fronts only ever expand outward.
    g = Grid((12, 10), (1.0, 1.3))
    rng = np.random.default_rng(seed)
    v = ScalarField(g, rng.uniform(0.2, 5.0, (12, 10)))
    tt = solve_traveltime(g, SourceSpec([src]), v).t_P
    padded = np.pad(tt, 1, constant_values=np.inf)
    neighbour_min = np.minimum.reduce(
        [
            padded[:-2, 1:-1],
            padded[2:, 1:-1],
            padded[1:-1, :-2],
            padded[1:-1, 2:],
        ]
    )
    interiors = np.ones((12, 10), dtype=bool)
    interiors[src] = False
    assert np.all(tt[interiors] >= neighbour_min[interiors])
    assert tt[src] == 0.0


@given(
    t1=st.floats(-1.0, 60.0),
    t2=st.floats(-1.0, 60.0),
)
def test_front_mask_monotone(t1, t2):
    g = Grid((21, 21), (1.0, 1.0))
    tt = solve_traveltime(g, SourceSpec([(10, 10)]), 1.0)
    lo, hi = min(t1, t2), max(t1, t2)
    assert not np.any(front_mask(tt, lo) & ~front_mask(tt, hi))


def test_front_mask_boundary_inclusive():
    g = Grid((5,), (1.0,))
    tt = solve_traveltime(g, SourceSpec([(0,)]), 1.0)
    mask = front_mask(tt, 2.0)
    np.testing.assert_array_equal(mask, [True, True, True, False, False])
