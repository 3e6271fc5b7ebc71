"""Ground sets, set functions, and additive measures."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyflats import (
    GroundSet,
    Measure,
    SetFunction,
    bits,
    induced_measure,
    to_fraction,
)
from polyflats.model import _LCM_BITS_SLACK, _common_denominator, _halves, _lcm_or_none

import _oracles
import corpus


def test_to_fraction_accepts_exact_inputs():
    assert to_fraction(3) == Fraction(3)
    assert to_fraction("5/2") == Fraction(5, 2)
    assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)
    # the spellings Fraction itself takes stay accepted
    assert to_fraction("0.25") == Fraction(1, 4)
    assert to_fraction("1e3") == 1000
    assert to_fraction(" 7/14 ") == Fraction(1, 2)


def test_to_fraction_rejects_floats():
    with pytest.raises(TypeError):
        to_fraction(0.5)


@given(st.fractions(), st.fractions())
def test_fraction_arithmetic_is_exact(a, b):
    assert to_fraction(a) + to_fraction(b) == a + b
    assert (a + b) - b == a


def test_common_denominator_scales_to_ints():
    values = (Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5))
    assert _common_denominator(values) == (12, [2, -9, 0, 60])
    assert _common_denominator((Fraction(2), Fraction(-1))) == (1, [2, -1])


def test_common_denominator_keeps_fractions_past_the_bound():
    # d = 2^a * 3^40 gains a bit per step of a, the bound (512 bits plus
    # twice the mean denominator length) half a bit
    kinds = []
    for a in range(900, 1100):
        values = (Fraction(1, 2**a), Fraction(1, 3**40), Fraction(0), Fraction(5))
        d, scaled = _common_denominator(values)
        lcm = 2**a * 3**40
        mean_bits = (a + 1 + (3**40).bit_length() + 2) / 4
        if lcm.bit_length() <= _LCM_BITS_SLACK + 2 * mean_bits:
            assert (d, scaled) == (lcm, [3**40, 2**a, 0, 5 * lcm])
        else:
            assert d is None and scaled == list(values)
        kinds.append(d is None)
    assert kinds == sorted(kinds) and 0 < kinds.count(True) < len(kinds)


def test_scaled_ints_past_512_bits_take_the_held_form_on_both_sides_of_the_bound():
    # the values of the test above, handed over as ints over 7 * lcm: the
    # reduced pair and the fallback agree with the constructor's
    kinds = []
    for a in range(900, 1100, 5):
        values = (Fraction(1, 2**a), Fraction(1, 3**40), Fraction(0), Fraction(5))
        d = 7 * 2**a * 3**40
        scaled = [int(v * d) for v in values]
        held = SetFunction._from_scaled(GroundSet(("x", "y")), d, scaled)._held
        assert held == _common_denominator(values)
        kinds.append(held[0] is None)
    assert kinds == sorted(kinds) and 0 < kinds.count(True) < len(kinds)


def test_the_lcm_bound_reads_the_lengths_only_past_the_slack():
    def unread():
        raise AssertionError("lengths read below the slack")
        yield

    assert _lcm_or_none({1, 2, 3}, unread(), 3) == 6
    assert _lcm_or_none({2**600}, iter([601]), 1) == 2**600
    # 602 bits against 512 plus twice the mean length, 2 * 639 // 20 = 62
    assert _lcm_or_none({2**600, 3}, iter([601] + [2] * 19), 20) is None


def test_bits_and_submasks():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert list(bits(0)) == []
    subs = list(_oracles.submasks(0b101))
    assert set(subs) == {0b000, 0b001, 0b100, 0b101}
    assert len(subs) == 4


def test_halves_pair_each_mask_with_its_step_once():
    layouts = set()
    for n in range(13):
        size = 1 << n
        bound = 2 * (math.isqrt(size - 1) + 1)  # 2 * ceil(sqrt(size))
        masks = range(size)
        for i in range(n):
            step = 1 << i
            pairs = list(_halves(size, step))
            assert 0 < len(pairs) <= bound, (n, i)
            lows, highs = [], []
            for lo, hi in pairs:
                lows += masks[lo]
                highs += masks[hi]
                layouts.add("stride" if masks[lo].step > 1 else "block")
            assert sorted(lows) == [a for a in masks if not a & step], (n, i)
            assert highs == [a | step for a in lows], (n, i)
    assert layouts == {"block", "stride"}


def test_ground_set_basics():
    g = GroundSet(("x", "y", "z"))
    assert g.n == 3
    assert g.full == 0b111
    assert [g.index(name) for name in ("x", "y", "z")] == [0, 1, 2]
    assert g.singleton("z") == 0b100
    assert g.subset(["z", "x"]) == 0b101
    assert g.labels(0b101) == ("x", "z")
    assert g.describe(0b011) == "{x,y}"
    assert g.describe(0) == "{}"
    assert list(g.subsets()) == list(range(8))


def test_ground_set_rejects_bad_labels():
    with pytest.raises(ValueError):
        GroundSet(("x", "x"))
    with pytest.raises(ValueError):
        GroundSet(("",))
    with pytest.raises(ValueError):
        GroundSet(tuple(f"e{i}" for i in range(21)))


def test_ground_set_unknown_label_and_mask():
    g = GroundSet(("x", "y"))
    with pytest.raises(ValueError, match="w"):
        g.index("w")
    # an unhashable label is unknown too, not a TypeError
    with pytest.raises(ValueError, match=r"\['x'\]"):
        g.index(["x"])
    with pytest.raises(ValueError):
        g.check_mask(4)
    with pytest.raises(ValueError, match="^element 'x' repeats$"):
        g.subset(["x", "y", "x"])


def test_empty_ground_set():
    g = GroundSet(())
    assert g.n == 0
    assert g.full == 0
    f = SetFunction(g, [0])
    assert f(0) == 0


@given(st.integers(min_value=0, max_value=1023))
def test_labels_round_trip(mask):
    g = GroundSet(tuple("abcdefghij"))
    assert g.subset(g.labels(mask)) == mask


def test_set_function_validates_table_length():
    g = GroundSet(("x", "y"))
    with pytest.raises(ValueError):
        SetFunction(g, [0, 1, 1])


def test_set_function_rejects_float_entries():
    g = GroundSet(("x",))
    with pytest.raises(TypeError):
        SetFunction(g, [0, 0.5])


def test_set_function_call_and_conditional():
    g = GroundSet(("x", "y"))
    f = SetFunction(g, [0, 2, 2, 3])
    assert f(0b01) == 2
    assert f(0b01 | 0b10) - f(0b10) == 1
    assert f(0b01 | 0) - f(0) == 2
    # conditioning the free rank-1 pair: the second element adds nothing
    u = SetFunction(g, [0, 1, 1, 1])
    assert u(0b01 | 0b10) - u(0b10) == 0


def test_set_function_from_callable_and_singletons():
    g = GroundSet(("x", "y", "z"))
    f = SetFunction.from_callable(g, lambda m: Fraction(m.bit_count(), 2))
    assert f.singletons() == (Fraction(1, 2),) * 3
    assert not f.is_integer_valued()


def test_set_function_equality_and_hash():
    g = GroundSet(("x", "y"))
    a = SetFunction(g, [0, 1, 1, 2])
    b = SetFunction(GroundSet(("x", "y")), [0, 1, 1, 2])
    c = SetFunction(g, [0, 1, 1, 1])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_scaled_tables_are_brought_to_lowest_terms():
    g = GroundSet(("x", "y"))
    f = SetFunction._from_scaled(g, 6, [0, 3, 3, 6])
    expected = SetFunction(g, [0, Fraction(1, 2), Fraction(1, 2), 1])
    assert f == expected and hash(f) == hash(expected)
    assert f._held == expected._held == (2, [0, 1, 1, 2])
    assert not f.is_integer_valued()
    whole = SetFunction._from_scaled(g, 2, [0, 2, 2, 4])
    assert whole.is_integer_valued() and whole._held == (1, [0, 1, 1, 2])
    assert whole == SetFunction(g, [0, 1, 1, 2]) and whole(3) == 2 and type(whole(3)) is Fraction


def test_exact_values_handed_over_take_the_held_form_on_both_sides_of_the_bound():
    # coprime prime denominators: ints up to n = 6, Fractions from n = 7 on
    for n in (5, 6, 7, 8):
        built = corpus.coprime_denominator_table(n)
        handed = SetFunction._from_scaled(built.ground, None, list(built.values))
        assert (handed._held[0] is None) == (n >= 7)
        assert handed == built and hash(handed) == hash(built)
        assert handed._held == built._held == _common_denominator(built.values)
        # exact values whose lcm is small come back as ints
        halved = [Fraction(int(v), 2) for v in built.values]
        small = SetFunction._from_scaled(built.ground, None, halved)
        assert small._held[0] == 2 and small == SetFunction(built.ground, halved)


def test_tables_built_from_values_hold_only_their_pair_until_the_view_is_read():
    # coprime prime denominators: ints up to n = 6, Fractions from n = 7 on
    for n in (5, 6, 7, 8):
        built = corpus.coprime_denominator_table(n)
        values = list(built.values)
        f = SetFunction(built.ground, values)
        assert f._values is None and (f._held[0] is None) == (n >= 7)
        assert f.values == tuple(values) and f._values is not None


def test_measure_table_matches_singleton_sums():
    g = GroundSet(("x", "y", "z"))
    mu = Measure(g, [Fraction(2), Fraction(3), Fraction(1, 2)])
    assert mu(0) == 0
    assert mu(0b011) == 5
    assert mu(0b111) == Fraction(11, 2)
    assert mu.singleton[2] == Fraction(1, 2)
    assert mu.is_integer_valued() is False


def test_measure_table_is_the_sum_of_point_masses():
    g = GroundSet(("x", "y", "z"))
    mu = Measure(g, [Fraction(2), Fraction(3), Fraction(1, 2)])
    assert mu.table() == tuple(
        Fraction(v) for v in ("0", "2", "3", "5", "1/2", "5/2", "7/2", "11/2")
    )


def test_measure_needs_one_value_per_element():
    g = GroundSet(("x", "y"))
    with pytest.raises(ValueError, match="need 2 singleton values, got 3"):
        Measure(g, [1, 1, 1])


def test_measure_rejects_negative_singleton():
    g = GroundSet(("x", "y"))
    with pytest.raises(ValueError, match="y"):
        Measure(g, [1, -1])


def test_induced_measure_of_uniform():
    from polyflats import uniform_matroid

    f = uniform_matroid(2, 3)
    mu = induced_measure(f)
    assert mu.singleton == (1, 1, 1)
    assert mu(f.ground.full) == 3


def test_induced_measure_rejects_negative_singleton():
    g = GroundSet(("x",))
    f = SetFunction(g, [0, -1])
    with pytest.raises(ValueError, match="x"):
        induced_measure(f)


def test_induced_measure_dominates_on_corpus(all_functions):
    # additivity caps submodular growth, checked on a slice for speed
    for f in all_functions[:80]:
        mu = induced_measure(f)
        for m in f.ground.subsets():
            assert mu(m) >= f.values[m]
