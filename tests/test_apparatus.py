import numpy as np
import pytest

from beamwalk import (
    displacer_passages,
    enumerate_paths,
    mode_locus,
    ordered_schedule,
    reachable_sites,
)
from beamwalk.apparatus import AWAY_FROM_VIEWER, SI1, SI2, TOWARD_VIEWER, layout_table
from beamwalk.oracle import PathRecord, REFLECT, TRANSMIT


def test_reachable_sites_at_the_origin():
    assert reachable_sites(0).tolist() == [0]


def test_reachable_sites_alternate_parity():
    assert reachable_sites(3).tolist() == [-3, -1, 1, 3]


def test_reachable_site_count_grows_with_the_step():
    assert len(reachable_sites(7)) == 8


def test_reachable_sites_rejects_negative_steps():
    with pytest.raises(ValueError):
        reachable_sites(-1)


def test_first_step_ground_plane_is_site_minus_one():
    locus = mode_locus(1, -1, 0)
    assert locus.interferometer == SI1
    assert locus.plane == 0
    assert locus.direction == TOWARD_VIEWER


def test_third_step_ground_plane_is_site_minus_three():
    locus = mode_locus(3, -3, 1)
    assert locus.interferometer == SI1
    assert locus.plane == 0
    assert locus.direction == AWAY_FROM_VIEWER


def test_second_step_top_plane():
    locus = mode_locus(2, 2, 0)
    assert locus.interferometer == SI2
    assert locus.plane == 2
    assert locus.direction == TOWARD_VIEWER


def test_unreachable_modes_are_rejected():
    with pytest.raises(ValueError, match="not reachable"):
        mode_locus(2, 1, 0)  # wrong parity
    with pytest.raises(ValueError, match="not reachable"):
        mode_locus(2, 4, 0)  # outside the cone
    for coin in (2, True, np.True_, 1.0):
        with pytest.raises(ValueError, match=f"coin must be 0 or 1, got {coin}"):
            mode_locus(2, 2, coin)
    assert mode_locus(2, 2, np.int64(1)) == mode_locus(2, 2, 1)
    with pytest.raises(ValueError, match="step"):
        mode_locus(0, 0, 0)


def test_loops_alternate_with_step_parity():
    for step in range(1, 9):
        for site in reachable_sites(step):
            locus = mode_locus(step, int(site), 0)
            assert locus.interferometer == (SI1 if step % 2 else SI2)


def test_columns_nest_outward_within_each_loop():
    for step in range(1, 7):
        inner = mode_locus(step, -step, 0)
        outer = mode_locus(step + 2, -step - 2, 0)
        assert inner.interferometer == outer.interferometer
        assert outer.column > inner.column


def test_plane_range_follows_the_step():
    for step in range(1, 8):
        planes = [mode_locus(step, int(site), 1).plane for site in reachable_sites(step)]
        assert planes == list(range(step + 1))


def test_displacer_passes_for_straight_paths():
    all_down = PathRecord((REFLECT,) * 3, final_coin=1, final_site=-3, amplitude=1.0)
    assert displacer_passages(all_down) == 0
    all_up = PathRecord((TRANSMIT,) * 3, final_coin=0, final_site=+3, amplitude=1.0)
    assert displacer_passages(all_up) == 3


def test_displacer_passes_for_a_mixed_path():
    mixed = PathRecord((REFLECT, TRANSMIT, REFLECT), 0, -1, 0.5j)
    assert displacer_passages(mixed) == 1


def test_displacer_passes_equal_the_terminal_plane():
    for record in enumerate_paths(1, ordered_schedule(5, 0.0), 0.44):
        locus = mode_locus(5, record.final_site, record.final_coin)
        assert displacer_passages(record) == locus.plane


def test_layout_table_enumerates_every_mode():
    rows = layout_table(3)
    assert len(rows) == sum(2 * (step + 1) for step in range(1, 4))
    assert rows[0] == (1, -1, 0, SI1, 0, TOWARD_VIEWER)
    steps = {row[0] for row in rows}
    assert steps == {1, 2, 3}


@pytest.mark.parametrize("num_steps", range(13))
def test_layout_table_equals_the_per_mode_loci(num_steps):
    expected = []
    for step in range(1, num_steps + 1):
        for site in reachable_sites(step):
            for coin in (0, 1):
                locus = mode_locus(step, int(site), coin)
                expected.append((step, int(site), coin, locus.interferometer, locus.plane,
                                 locus.direction))
    rows = layout_table(num_steps)
    assert rows == expected
    assert len(rows) == num_steps * (num_steps + 3)
    # the table writer formats plain Python integers, not numpy scalars
    assert all(type(row[i]) is int for row in rows for i in (0, 1, 2, 4))
