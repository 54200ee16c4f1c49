import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsecsim import mobility
from ncsecsim.config import RunConfig
from ncsecsim.errors import InvalidParameter
from ncsecsim.mobility import (
    CellGrid,
    Measurement,
    advance,
    place_ues,
    trigger_targets,
)
from ncsecsim.simulation import run_simulation
from oracles import distances_oracle, ho_trigger_oracle


@pytest.fixture
def grid():
    return CellGrid()  # 4x4, ISD 100 m, torus


def move_one(pos, heading, dt_ms, grid, speed=60 / 3.6):
    """One UE moved by ``advance`` as a batch of one."""
    dirs = np.array([[math.cos(heading), math.sin(heading)]])
    return advance(np.array([pos], dtype=float), dirs, np.array([speed]), dt_ms, grid)[0]


def test_step_kinematics_short_and_long(grid):
    moved = move_one((10.0, 10.0), 0.0, 1, grid)
    assert moved[0] == pytest.approx(10.0 + 60 / 3.6 / 1000, rel=1e-12)
    assert moved[1] == 10.0
    # 6 s at 60 km/h covers one 100 m inter-site distance
    far = move_one((10.0, 10.0), 0.0, 6000, grid)
    assert far[0] == pytest.approx(110.0, rel=1e-12)


def test_step_wraps_on_torus(grid):
    moved = move_one((395.0, 200.0), 0.0, 600, grid)  # 10 m
    assert moved[0] == pytest.approx(5.0, rel=1e-9)
    with pytest.raises(InvalidParameter):
        move_one((395.0, 200.0), 0.0, 0, grid)


def test_grid_geometry(grid):
    assert grid.num_cells == 16
    assert grid.extent == (400.0, 400.0)
    assert grid.bs_positions.shape == (16, 2)
    assert tuple(grid.bs_positions[0]) == (50.0, 50.0)


def test_bs_positions_cached_read_only(grid):
    assert grid.bs_positions is grid.bs_positions
    with pytest.raises(ValueError):
        grid.bs_positions[0, 0] = 0.0
    assert grid == CellGrid()


def test_array_motion_matches_step_bit_for_bit(grid):
    # all UEs in one call give the bits of one scalar update per UE
    ues = place_ues(grid, 30, 60 / 3.6, np.random.default_rng(9))
    pos = ues.pos
    single = [tuple(p) for p in ues.pos.tolist()]
    for _ in range(25):
        pos = advance(pos, ues.dirs, ues.speed, 160, grid)
        for u, (dx, dy) in enumerate(ues.dirs.tolist()):
            dist = float(ues.speed[u]) * 160 / 1000.0
            x, y = single[u]
            single[u] = ((x + dist * dx) % 400.0, (y + dist * dy) % 400.0)
        assert pos.tolist() == [list(p) for p in single]
    with pytest.raises(InvalidParameter):
        advance(pos, ues.dirs, ues.speed, 0, grid)


@pytest.mark.parametrize(
    "dt_ms", [0, -160, np.float64(-1.0), np.array([160, 0]), np.array([[320], [-1]])]
)
def test_advance_rejects_non_positive_dt(grid, dt_ms):
    # the loop passes a scalar step, the forecast an array of lead times
    ues = place_ues(grid, 3, 60 / 3.6, np.random.default_rng(11))
    with pytest.raises(InvalidParameter):
        advance(ues.pos[:, None], ues.dirs[:, None], ues.speed[:, None], dt_ms, grid)


def test_batched_forecast_matches_per_tick_positions_and_powers(grid):
    # one call over (UE, lead tick) pairs gives the bits of one call per pair
    ues = place_ues(grid, 12, 60 / 3.6, np.random.default_rng(10))
    lead_ms = np.arange(1, 8) * 160
    future = advance(ues.pos[:, None], ues.dirs[:, None], ues.speed[:, None], lead_ms, grid)
    powers = grid.rsrp(future)
    for u in range(ues.count):
        for j, dt in enumerate(lead_ms.tolist()):
            dist = ues.speed[u] * dt / 1000.0
            single = grid.wrap_position(ues.pos[u] + dist * ues.dirs[u])
            assert future[u, j].tolist() == single.tolist()
            assert powers[u, j].tolist() == grid.rsrp(single).tolist()


def test_placement_draw_order(grid):
    # three uniform draws per UE: x, y, heading; nothing else
    for count in (0, 1, 7, 40):
        rng = np.random.default_rng(11)
        ues = place_ues(grid, count, 5.0, rng)
        ref = np.random.default_rng(11)
        ref.random(3 * count)
        assert rng.random() == ref.random()
        assert ues.pos.shape == (count, 2) and ues.dirs.shape == (count, 2)
        assert ues.speed.tolist() == [5.0] * count


def test_placement_matches_scalar_draws():
    # the vectorised draw gives the bits of drawing x, y, heading UE by UE
    for grid in (CellGrid(), CellGrid(rows=3, cols=5, isd_m=70.0, wrap=False)):
        ues = place_ues(grid, 25, 1.0, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        ext_x, ext_y = grid.extent
        for u in range(25):
            x, y = rng.uniform(0, ext_x), rng.uniform(0, ext_y)
            heading = rng.uniform(0.0, 2.0 * math.pi)
            assert 0.0 <= heading < 2.0 * math.pi
            assert ues.pos[u].tolist() == [x, y]
            assert ues.dirs[u].tolist() == [np.cos(heading), np.sin(heading)]


def test_measurement_dump_lies_on_rs_grid():
    config = RunConfig(horizon_ms=1000)
    config = dataclasses.replace(
        config, scenario=dataclasses.replace(config.scenario, num_ues=2, dump_measurements=True)
    )
    result = run_simulation(config)
    assert [(m.t, m.ue_id) for m in result.measurements] == [
        (t, u) for t in range(0, 1001, 160) for u in range(2)
    ]
    assert all(m.rsrp_dbm.shape == (16,) for m in result.measurements)


def test_colocated_ue_sees_strongest_cell(grid):
    rsrp = grid.rsrp(np.array([50.0, 50.0]))  # on top of BS 0, distance clamped to 1 m
    assert int(np.argmax(rsrp)) == 0


def test_equidistant_cells_have_equal_power(grid):
    rsrp = grid.rsrp(np.array([100.0, 50.0]))  # midway between BS 0 and BS 1
    assert rsrp[0] == rsrp[1]


def test_pathloss_slope_doubling_distance(grid):
    # RSRP(50 m) - RSRP(100 m) = 10 * exponent * log10(2)
    p50 = grid.rsrp(np.array([100.0, 50.0]))[0]   # 50 m from BS 0
    p100 = grid.rsrp(np.array([150.0, 50.0]))[0]  # 100 m from BS 0
    assert p50 - p100 == pytest.approx(10 * 3.5 * math.log10(2), abs=1e-9)


def test_torus_distance_symmetry_and_bound(grid):
    # The torus distance from a to b is the distance from a - b + bs0 to BS 0.
    rng = np.random.default_rng(40)
    ext = np.array(grid.extent)
    bs0 = grid.bs_positions[0]
    for _ in range(200):
        a, b = rng.uniform(0, 400, size=(2, 2))
        dab = grid.distances(grid.wrap_position(a - b + bs0))[0]
        dba = grid.distances(grid.wrap_position(b - a + bs0))[0]
        assert np.isclose(dab, dba)
        assert dab <= math.sqrt(2) * ext[0] / 2 + 1e-9


@st.composite
def grids_and_positions(draw):
    """A grid and a batch of positions of shape (0, 2), (U, 2) or (U, L, 2);
    coordinates include 0, the extent edge and the midpoint."""
    grid = CellGrid(
        rows=draw(st.integers(1, 9)),
        cols=draw(st.integers(1, 9)),
        isd_m=draw(st.sampled_from([1.0, 37.5, 100.0, 333.3])),
        wrap=draw(st.booleans()),
    )
    batch = draw(st.sampled_from([(0,), (draw(st.integers(1, 6)),),
                                  (draw(st.integers(1, 4)), draw(st.integers(1, 4)))]))
    coords = []
    for ext in grid.extent:
        coord = st.one_of(st.sampled_from([0.0, ext, ext / 2]), st.floats(0.0, ext))
        n = math.prod(batch)
        coords.append(draw(st.lists(coord, min_size=n, max_size=n)))
    pos = np.array(coords, dtype=float).T.reshape(*batch, 2)
    return grid, pos


@settings(max_examples=300, deadline=None)
@given(grids_and_positions())
def test_distances_bit_identical_to_interleaved_oracle(case):
    grid, pos = case
    got, want = grid.distances(pos), distances_oracle(grid, pos)
    assert got.shape == want.shape == pos.shape[:-1] + (grid.num_cells,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_wraparound_translation_invariance(grid):
    # translating the UE by one lattice vector permutes per-cell powers
    rng = np.random.default_rng(41)
    for _ in range(50):
        pos = rng.uniform(0, 400, size=2)
        base = np.sort(grid.rsrp(pos))
        for shift in ((100.0, 0.0), (0.0, 100.0), (200.0, 300.0)):
            moved = grid.wrap_position(pos + np.array(shift))
            assert np.allclose(np.sort(grid.rsrp(moved)), base, atol=1e-9)


def _meas(t, rsrp):
    return Measurement(t, 0, np.asarray(rsrp, dtype=float))


def ho_trigger(history, serving, ul_offset_db, ul_ttt_ms, rs_period_ms=160):
    """Target of one UE's RS-grid history, read as the event loop reads it:
    the newest ``ul_ttt_ms // rs_period_ms + 1`` samples form the window.
    Also checks the answer against the per-sample oracle."""
    reach = min(len(history), ul_ttt_ms // rs_period_ms + 1)
    window = np.stack([m.rsrp_dbm for m in history[-reach:]])
    target = int(trigger_targets(window, serving, ul_offset_db))
    got = None if target < 0 else target
    assert got == ho_trigger_oracle(history, serving, ul_offset_db, ul_ttt_ms)
    return got


def test_trigger_none_when_no_cell_clears_offset():
    hist = [_meas(160, [-60.0, -59.5, -70.0])]
    assert ho_trigger(hist, serving=0, ul_offset_db=1.0, ul_ttt_ms=32) is None


def test_trigger_fires_on_single_sample_when_ttt_below_period():
    hist = [
        _meas(0, [-60.0, -61.0, -70.0]),
        _meas(160, [-60.0, -58.5, -70.0]),  # cell 1 exceeds by 1.5 dB
    ]
    assert ho_trigger(hist, 0, 1.0, 32) == 1


def test_trigger_requires_whole_window_when_ttt_exceeds_period():
    # condition holds at newest but failed inside the 350 ms window: reset
    hist = [
        _meas(0, [-60.0, -58.0, -70.0]),
        _meas(160, [-60.0, -60.5, -70.0]),  # dropped below
        _meas(320, [-60.0, -58.0, -70.0]),
    ]
    assert ho_trigger(hist, 0, 1.0, 350) is None
    sustained = [
        _meas(0, [-60.0, -60.5, -70.0]),
        _meas(160, [-60.0, -58.0, -70.0]),
        _meas(320, [-60.0, -58.0, -70.0]),
    ]
    # a 350 ms window still reaches the failing t=0 sample; 300 ms does not
    assert ho_trigger(sustained, 0, 1.0, 350) is None
    assert ho_trigger(sustained, 0, 1.0, 300) == 1
    assert ho_trigger(sustained, 0, 1.0, 170) == 1


def test_trigger_prefers_strongest_then_lowest_id():
    hist = [_meas(160, [-60.0, -55.0, -52.0, -52.0])]
    assert ho_trigger(hist, 0, 1.0, 32) == 2  # strongest, tie broken to lower id


def test_trigger_hysteresis_property():
    rng = np.random.default_rng(42)
    for _ in range(500):
        rsrp = rng.uniform(-90, -50, size=8)
        serving = int(rng.integers(0, 8))
        offset = float(rng.uniform(0.5, 3.0))
        best = rsrp.max()
        if best - rsrp[serving] <= offset:
            assert ho_trigger([_meas(160, rsrp)], serving, offset, 32) is None


def test_place_ues_deterministic_and_nearest_serving(grid):
    a = place_ues(grid, 20, 60 / 3.6, np.random.default_rng(7))
    b = place_ues(grid, 20, 60 / 3.6, np.random.default_rng(7))
    for field in ("pos", "dirs", "speed", "serving"):
        assert getattr(a, field).tolist() == getattr(b, field).tolist()
    d = grid.distances(a.pos)
    assert a.serving.tolist() == d.argmin(axis=1).tolist()
    assert (d[np.arange(20), a.serving] == d.min(axis=1)).all()
    assert np.allclose(np.hypot(a.dirs[:, 0], a.dirs[:, 1]), 1.0)


def test_initial_measurement_never_triggers(grid):
    # serving the nearest cell means no candidate clears a positive offset
    ues = place_ues(grid, 50, 60 / 3.6, np.random.default_rng(8))
    targets = trigger_targets(grid.rsrp(ues.pos)[None], ues.serving, 1.0)
    assert (targets == -1).all()


# Powers on a 0.5 dB grid, so exact ties between cells are common.
POWER_LEVELS = [-70.0 + 0.5 * k for k in range(41)]
RS_PERIOD_MS = 160


@st.composite
def trigger_histories(draw):
    """(powers (samples, ues, cells), serving, offset, ttt) with planted
    ties and serving cells that are the strongest."""
    cells = draw(st.integers(2, 7))
    ues = draw(st.integers(1, 4))
    samples = draw(st.integers(1, 6))
    # TTT windows that reach 1 to 5 samples of a 160 ms grid
    ttt = draw(st.sampled_from([0, 32, 160, 200, 320, 480, 640]))
    offset = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    flat = draw(st.lists(st.sampled_from(POWER_LEVELS),
                         min_size=samples * ues * cells, max_size=samples * ues * cells))
    powers = np.array(flat).reshape(samples, ues, cells)
    serving = np.array([draw(st.integers(0, cells - 1)) for _ in range(ues)])
    for u in range(ues):
        mode = draw(st.sampled_from(["free", "tie", "serving_strongest"]))
        strongest = powers[:, u].max(axis=-1)
        if mode == "serving_strongest":
            powers[:, u, serving[u]] = strongest
        elif mode == "tie" and cells >= 3:
            others = [c for c in range(cells) if c != serving[u]]
            a, b = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
            lift = draw(st.sampled_from([0.0, 0.5, 3.0]))
            powers[:, u, a] = powers[:, u, b] = strongest + lift
    return powers, serving, offset, ttt


@settings(max_examples=300, deadline=None)
@given(trigger_histories())
def test_array_trigger_rule_matches_oracle(case):
    powers, serving, offset, ttt = case
    samples, ues, _ = powers.shape
    window = min(samples, ttt // RS_PERIOD_MS + 1)
    targets = trigger_targets(powers[-window:], serving, offset)
    assert targets.shape == (ues,)
    for u in range(ues):
        history = [
            Measurement(k * RS_PERIOD_MS, u, powers[k, u]) for k in range(samples)
        ]
        expected = ho_trigger_oracle(history, int(serving[u]), offset, ttt)
        assert (None if targets[u] < 0 else int(targets[u])) == expected


@st.composite
def box_cases(draw):
    """A grid, a TTT window of positions (W, *batch, 2), serving cells, an
    offset, and whether to force the box path below ``BOX_MIN_CELLS``.

    Coordinates fall inside the grid, exactly on square edges and corners
    (planted ties) and, without wrap, outside the extent; serving cells are
    the newest position's nearest cell, a cell of its box, or any cell, so
    far serving cells take the reach fallback.
    """
    grid = CellGrid(
        rows=draw(st.integers(1, 12)),
        cols=draw(st.integers(1, 12)),
        isd_m=draw(st.sampled_from([0.5, 1.0, 37.5, 100.0])),
        wrap=draw(st.booleans()),
    )
    samples = draw(st.integers(1, 4))
    ues = draw(st.integers(1, 6))
    batch = draw(st.sampled_from([(ues,), (ues, draw(st.integers(1, 3)))]))
    n = samples * math.prod(batch)
    coords = []
    for ext, squares in zip(grid.extent, (grid.cols, grid.rows)):
        lo, hi = (0.0, ext) if grid.wrap else (-ext, 2 * ext)
        edge = st.integers(0, 2 * squares).map(lambda k: k * grid.isd_m / 2)
        coords.append(draw(st.lists(st.one_of(edge, st.floats(lo, hi)), min_size=n, max_size=n)))
    window = np.array(coords).T.reshape(samples, *batch, 2)
    newest = grid.distances(window[-1]).argmin(axis=-1)
    box = grid.box_rsrp(window.reshape(samples, -1, 2), newest.ravel())[0]
    serving = []
    for k, near in enumerate(newest.ravel().tolist()):
        mode = draw(st.sampled_from(["nearest", "box", "any"]))
        if mode == "nearest":
            serving.append(near)
        elif mode == "box":
            serving.append(draw(st.sampled_from(box[k].tolist())))
        else:
            serving.append(draw(st.integers(0, grid.num_cells - 1)))
    serving = np.array(serving).reshape(batch)
    if len(batch) == 2 and draw(st.booleans()):
        serving = serving[:, :1]  # one serving cell per UE, as the forecast passes it
    offset = draw(st.one_of(st.sampled_from([-3.0, -2.0, 0.0, 1.0, 6.0]), st.floats(-3.0, 6.0)))
    return grid, window, serving, offset, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(box_cases())
def test_box_trigger_matches_full_row(case):
    grid, window, serving, offset, force_box = case
    full = grid.rsrp(window)
    with mock.patch.object(mobility, "BOX_MIN_CELLS", 1 if force_box else mobility.BOX_MIN_CELLS):
        got = grid.trigger_targets(window, serving, offset)
    want = trigger_targets(full, serving, offset)
    assert got.dtype.kind == "i" and got.shape == want.shape
    assert got.tolist() == want.tolist()
    # every gathered power, the serving cell's included, has the full row's bits
    entries = math.prod(window.shape[1:-1])
    flat_serving = np.broadcast_to(serving, window.shape[1:-1]).ravel()
    cells, power = grid.box_rsrp(window.reshape(len(window), -1, 2), flat_serving)
    assert (cells[:, 9] == flat_serving).all()
    gathered = full.reshape(len(window), entries, -1)[:, np.arange(entries)[:, None], cells]
    assert np.array_equal(power.view(np.int64), gathered.view(np.int64))


def test_small_grid_keeps_full_row(grid):
    # the reference 4x4 grid never builds a box; 6x6 does
    ues = place_ues(grid, 20, 60 / 3.6, np.random.default_rng(13))
    with mock.patch.object(CellGrid, "box_rsrp", side_effect=AssertionError):
        grid.trigger_targets(ues.pos[None], ues.serving, 1.0)
    big = CellGrid(rows=6, cols=6)
    with mock.patch.object(CellGrid, "box_rsrp", side_effect=AssertionError):
        with pytest.raises(AssertionError):
            big.trigger_targets(ues.pos[None], ues.serving, 1.0)
