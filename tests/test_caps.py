"""The enumeration cap and the predicate that every size check goes through."""

import pytest

from ci_engine import caps, fstheory
from ci_engine.caps import enumeration_cap, over_cap
from ci_engine.errors import CapExceeded


@pytest.mark.parametrize(
    "raw",
    [None, "abc", "1", "1000", "5000", "100000000"],
    ids=["unset", "unparsable", "below-floor", "floor", "5000", "above-ceiling"],
)
def test_over_cap_is_size_above_the_cap(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("CI_ENGINE_CAP", raising=False)
    else:
        monkeypatch.setenv("CI_ENGINE_CAP", raw)
    cap = enumeration_cap()
    for n in (0, 1, 999, 1000, 1001, cap, cap + 1):
        assert over_cap(n) == (n > cap), n


def test_sizes_at_or_below_the_floor_skip_the_environment(monkeypatch):
    def no_read():
        raise AssertionError("the cap was read")

    monkeypatch.setattr(caps, "enumeration_cap", no_read)
    for n in (0, 1, 999, 1000):
        assert over_cap(n) is False
    with pytest.raises(AssertionError, match="the cap was read"):
        over_cap(1001)


def test_the_contraction_cap_still_stops_the_axiom_battery(monkeypatch):
    monkeypatch.setenv("CI_ENGINE_CAP", "1000")
    with pytest.raises(CapExceeded) as info:
        fstheory.verify_fs_axioms(3)
    assert str(info.value) == "intermediate tensor of size 1458 exceeds the cap"
    monkeypatch.delenv("CI_ENGINE_CAP")
    assert fstheory.verify_fs_axioms(3).ok
