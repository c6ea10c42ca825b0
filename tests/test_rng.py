import pytest

from sqwsim.rng import child_seed


def test_child_seed_is_stable():
    assert child_seed(0, 0) == child_seed(0, 0)
    assert child_seed(5, 1, 2) == child_seed(5, 1, 2)


def test_child_seed_varies_with_path():
    seeds = {child_seed(3, r) for r in range(200)}
    assert len(seeds) == 200
    assert child_seed(3, 0) != child_seed(4, 0)
    assert child_seed(3, 0, 1) != child_seed(3, 1, 0)


def test_rejects_negative_master():
    with pytest.raises(ValueError):
        child_seed(-1, 0)

