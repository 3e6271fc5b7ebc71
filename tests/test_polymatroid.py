"""Axiom checks, closure, flats, and cyclic-flat extraction."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from polyflats import (
    AxiomWitness,
    GroundSet,
    NotAFlat,
    SetFunction,
    check_polymatroid,
    closure,
    coloops,
    convolve,
    cyclic_flats,
    flats,
    is_cyclic_flat,
    is_flat,
    loops,
    max_cyclic_flat,
    reconstruction_failure,
    uniform_matroid,
)

from polyflats.model import _common_denominator, _halves

import _oracles
import corpus


def table(labels, values):
    return SetFunction(GroundSet(tuple(labels)), [Fraction(v) for v in values])


def test_check_uniform_is_matroid():
    rep = check_polymatroid(uniform_matroid(2, 3))
    assert rep.nonnegative and rep.monotone and rep.submodular
    assert rep.integer_valued
    assert rep.is_matroid
    assert rep.is_polymatroid
    assert rep.witness is None


def test_check_submodular_violation():
    f = table("xy", [0, 1, 1, 3])
    rep = check_polymatroid(f)
    assert rep.nonnegative and rep.monotone
    assert not rep.submodular
    assert not rep.is_polymatroid
    assert not rep.is_matroid
    assert rep.witness.axiom == "submodular"
    assert _oracles.axiom_witness_violates(f, rep.witness)


def test_check_monotone_violation():
    f = table("xy", [0, 1, 1, 0])
    rep = check_polymatroid(f)
    assert not rep.monotone
    assert rep.witness.axiom == "monotone"
    assert _oracles.axiom_witness_violates(f, rep.witness)


def test_check_negative_value_reported_first():
    # one table violating everything: the witness follows axiom order
    f = table("xy", [0, -1, 2, 0])
    rep = check_polymatroid(f)
    assert not rep.nonnegative
    assert rep.witness.axiom == "nonnegative"
    assert _oracles.axiom_witness_violates(f, rep.witness)


@pytest.mark.parametrize(
    "values, line",
    [
        ([0, -1, 2, 0], "nonnegative fails at {x}"),
        ([0, 1, 1, 0], "monotone fails at {x}, {x,y}"),
        ([0, 1, 1, 3], "submodular fails at {} with elements x, y"),
    ],
    ids=["nonnegative", "monotone", "submodular"],
)
def test_axiom_witness_lines(values, line):
    f = table("xy", values)
    assert check_polymatroid(f).witness.describe(f.ground) == line


def test_check_fractional_polymatroid_is_not_matroid():
    f = corpus.scale_function(uniform_matroid(1, 2), Fraction(1, 2))
    rep = check_polymatroid(f)
    assert rep.is_polymatroid
    assert not rep.integer_valued
    assert not rep.is_matroid


def test_check_integer_rank_two_singleton_is_not_matroid():
    f = table("xy", [0, 2, 2, 2])
    rep = check_polymatroid(f)
    assert rep.is_polymatroid and rep.integer_valued
    assert not rep.is_matroid


def test_zero_function_is_matroid():
    f = table("xyz", [0] * 8)
    assert check_polymatroid(f).is_matroid


def test_local_exchange_matches_all_pairs_on_corpus(all_functions):
    for f in all_functions[:60]:
        assert _oracles.submodular_all_pairs(f) is None
        assert check_polymatroid(f).submodular


def test_local_exchange_matches_all_pairs_on_corrupted_tables():
    import random

    rng = random.Random(7)
    seen_bad = 0
    for f in corpus.full_corpus()[:120]:
        if f.ground.n < 2:
            continue
        values = list(f.values)
        slot = rng.randrange(1, len(values))
        values[slot] += rng.choice((Fraction(1), Fraction(3), Fraction(-1, 2)))
        g = SetFunction(f.ground, values)
        local = check_polymatroid(g).submodular
        pairwise = _oracles.submodular_all_pairs(g) is None
        assert local == pairwise
        if not local:
            seen_bad += 1
    assert seen_bad > 20


def test_axiom_scan_matches_fraction_reference_on_corpus(all_functions):
    for f in all_functions:
        assert check_polymatroid(f) == _oracles.check_polymatroid_reference(f)


def _corrupt(rng, f, third):
    """A copy of f with one value moved, at a subset in the given third of
    the scan order; the moves mix in negative values and new denominators."""
    values = list(f.values)
    size = len(values)
    slot = rng.randrange(third * size // 3, (third + 1) * size // 3)
    move = rng.randrange(5)
    if move == 0:
        values[slot] += 1
    elif move == 1:
        values[slot] -= Fraction(1, 2)
    elif move == 2:
        values[slot] = -values[slot] - Fraction(1, 7)
    elif move == 3:
        values[slot] += Fraction(1, 10**45 + 7)
    else:
        values[slot] -= Fraction(3, 10**41 + 3)
    return SetFunction(f.ground, values)


def test_axiom_scan_matches_fraction_reference_on_corrupted_tables():
    rng = random.Random(20261018)
    sources = [f for f in corpus.full_corpus() if f.ground.n >= 2]
    # whole tables over a 46-digit denominator, so the moves above mix it
    # with small and other large ones
    sources += [corpus.scale_function(f, Fraction(2, 10**45 + 7)) for f in sources[::5]]
    sources += [corpus.rational_sum_table(seed, 6 + seed % 3) for seed in range(12)]
    seen = Counter()
    for f in sources:
        for third in range(3):
            g = _corrupt(rng, f, third)
            got = check_polymatroid(g)
            assert got == _oracles.check_polymatroid_reference(g)
            seen[got.witness.axiom if got.witness else "none", third] += 1
    for axiom in ("nonnegative", "monotone", "submodular", "none"):
        for third in range(3):
            assert seen[axiom, third] > 0, (axiom, third)


def test_axiom_scan_matches_fraction_reference_past_the_int_bound():
    # Distinct prime denominators: up to n = 6 their lcm is short enough for
    # the int form, from n = 7 on the scans run on the Fractions.
    rng = random.Random(7919)
    seen = Counter()
    for n in range(2, 9):
        f = corpus.coprime_denominator_table(n)
        assert (_common_denominator(f.values)[0] is None) == (n >= 7)
        report = check_polymatroid(f)
        assert report.is_polymatroid and not report.integer_valued
        assert report == _oracles.check_polymatroid_reference(f)
        for third in [0, 1, 2] * 8:
            g = _corrupt(rng, f, third)
            got = check_polymatroid(g)
            assert got == _oracles.check_polymatroid_reference(g)
            seen[got.witness.axiom if got.witness else "none", n >= 7] += 1
    for axiom in ("nonnegative", "monotone", "submodular"):
        for past_bound in (False, True):
            assert seen[axiom, past_bound] > 0, (axiom, past_bound)


def _layout(size, step):
    lo, _ = next(_halves(size, step))
    return "block" if range(size)[lo].step == 1 else "stride"


def _moved(f, changes):
    values = list(f.values)
    for mask, shift in changes.items():
        values[mask] += shift
    return SetFunction(f.ground, values)


# The witness tables on each kernel path: distinct prime denominators give
# ints too wide to pack at n = 6 and the Fraction fallback at n = 8; the same
# concave table with thirds of 1/7 packs.
WITNESS_TABLES = [
    pytest.param(6, "slices", id="6"),
    pytest.param(8, "fractions", id="8"),
    pytest.param(6, "packed", id="packed-6"),
    pytest.param(8, "packed", id="packed-8"),
]


def _witness_table(n, path):
    if path == "packed":
        return corpus.small_denominator_table(n)
    return corpus.coprime_denominator_table(n)


@pytest.mark.parametrize("n, path", WITNESS_TABLES)
def test_monotone_witness_is_the_least_over_all_passes(n, path):
    # Lowering v({a, b}) below both singletons breaks exactly the steps
    # ({b}, a) and ({a}, b) for a < b: pass a finds {b}, and the later pass
    # b finds the smaller mask {a}, which is the first in scan order.  The
    # third case also lowers v({2, 3}), so pass 2 breaks at {3} and at the
    # smaller {0}: in the stride pass of element 2 {3} comes in the first
    # slice pair and {0} in the next one, and in a packed pass both are set.
    f = _witness_table(n, path)
    layouts = set()
    for a, b, extra in [(0, 2, []), (1, n - 1, []), (0, 2, [0b1100])]:
        g = _moved(f, dict.fromkeys([1 << a | 1 << b, *extra], -n))
        assert corpus.kernel_path(g).startswith(path)
        report = check_polymatroid(g)
        assert report.nonnegative and not report.monotone
        assert report.witness == AxiomWitness("monotone", (1 << a, 1 << a | 1 << b))
        assert report == _oracles.check_polymatroid_reference(g)
        layouts.add(_layout(1 << n, 1 << b))
    assert layouts == {"stride", "block"}


@pytest.mark.parametrize("n, path", WITNESS_TABLES)
def test_submodular_witness_is_the_least_over_all_passes(n, path):
    # Raising v(S), S = {a, b, c}, by 2 closes the exchange margin of 1 at
    # ({c}, a, b), ({b}, a, c), ({a}, b, c) and at S with any two elements
    # outside it, but no monotone margin: the passes (a, b) and (a, c) come
    # first, and the later pass (b, c) finds the least mask {a}.
    f = _witness_table(n, path)
    layouts = set()
    for a, b, c in [(0, 1, 2), (0, 2, n - 1)]:
        g = _moved(f, {1 << a | 1 << b | 1 << c: 2})
        assert corpus.kernel_path(g).startswith(path)
        report = check_polymatroid(g)
        assert report.nonnegative and report.monotone and not report.submodular
        assert report.witness == AxiomWitness("submodular", (1 << a,), (b, c))
        assert report == _oracles.check_polymatroid_reference(g)
        # pass (b, c) runs on the 2^(n-1) gains of b, where c is bit c - 1
        layouts.add(_layout(1 << (n - 1), 1 << (c - 1)))
    assert layouts == {"stride", "block"}


def test_axiom_scan_at_twenty_and_twelve_elements():
    # at the ground-set cap, the sum of a uniform rank on each half, one of
    # them in thirds: cyclic flats {}, either half and the whole set
    f = corpus.halves_table(20)
    report = check_polymatroid(f)
    assert report.is_polymatroid and not report.integer_valued and not report.is_matroid
    g = _moved(f, {f.ground.full ^ 0b1010: 5})
    report = check_polymatroid(g)
    assert not report.is_polymatroid
    assert _oracles.axiom_witness_violates(g, report.witness)
    lattice, mu = cyclic_flats(f)
    assert lattice.members == (0, 0x3FF, 0xFFC00, 0xFFFFF)
    assert convolve(lattice, mu) == f

    # the Fraction reference takes about 0.5 s at n = 12
    f = corpus.rational_sum_table(12, 12)
    g = _moved(f, {f.ground.full ^ 0b1010: 5})
    report = check_polymatroid(g)
    assert report.witness is not None
    assert report == _oracles.check_polymatroid_reference(g)


def test_loops_and_coloops():
    assert loops(uniform_matroid(1, 3)) == 0
    assert loops(table("ab", [0, 0, 1, 1])) == 0b01
    assert loops(table("xyz", [0] * 8)) == 0b111
    assert coloops(uniform_matroid(3, 3)) == 0b111
    assert coloops(uniform_matroid(1, 2)) == 0
    # both elements keep their full value on top of the other
    assert coloops(table("xy", [0, 2, 1, 3])) == 0b11


def test_closure_examples():
    u = uniform_matroid(1, 3)
    assert closure(u, 0b001) == 0b111
    assert closure(uniform_matroid(3, 3), 0) == 0
    f = table("xy", [0, 2, 2, 3])
    assert closure(f, 0b01) == 0b01


def test_closure_matches_flat_scan_and_is_idempotent(all_functions):
    for f in all_functions[:50]:
        for m in f.ground.subsets():
            c = closure(f, m)
            assert c == _oracles.closure_by_flats(f, m)
            assert c & ~closure(f, c) == 0 and closure(f, c) == c
            assert m & ~c == 0
            assert f.values[c] == f.values[m]


def _by_size(masks):
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def _unstructured_tables(rng, count):
    """Tables on up to five elements drawn from a few values, so that equal
    neighbours, zero singletons and negative values all occur."""
    pool = [Fraction(v) for v in (-1, 0, 0, 1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)]
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        out.append(SetFunction(GroundSet(tuple("abcde"[:n])), [rng.choice(pool) for _ in range(1 << n)]))
    return out


def test_flat_predicates_match_element_scans(all_functions):
    # the two maps behind closure, is_flat and is_cyclic_flat against the
    # per-element loops, on polymatroids and on tables that are not
    extra = _unstructured_tables(random.Random(31), 550)
    assert sum(not check_polymatroid(f).is_polymatroid for f in extra) > 500
    seen = Counter()
    for f in list(all_functions) + extra:
        for m in f.ground.subsets():
            same = [i for i in range(f.ground.n) if f.values[m | 1 << i] == f.values[m]]
            assert closure(f, m) == m | sum(1 << i for i in same)
            flat = _oracles.flat_by_scan(f, m)
            cyclic = _oracles.cyclic_flat_by_scan(f, m)
            assert is_flat(f, m) == flat
            assert is_cyclic_flat(f, m) == cyclic
            seen[flat, cyclic] += 1
        assert flats(f) == _by_size(m for m in f.ground.subsets() if _oracles.flat_by_scan(f, m))
    assert seen[True, True] and seen[True, False] and seen[False, False]


def test_flats_examples():
    u = uniform_matroid(2, 3)
    assert flats(u) == [0, 0b001, 0b010, 0b100, 0b111]
    f = table("xy", [0, 2, 2, 3])
    assert flats(f) == [0, 0b01, 0b10, 0b11]


def test_is_flat_examples():
    u = uniform_matroid(2, 3)
    assert is_flat(u, 0b001)
    assert not is_flat(u, 0b011)
    assert is_flat(u, 0b111)


def test_cyclic_flat_predicates():
    u = uniform_matroid(2, 3)
    assert is_cyclic_flat(u, 0)
    assert is_cyclic_flat(u, 0b111)
    assert not is_cyclic_flat(u, 0b001)
    assert max_cyclic_flat(u, 0b001) == 0
    assert max_cyclic_flat(u, 0b111) == 0b111
    with pytest.raises(NotAFlat):
        max_cyclic_flat(u, 0b011)


def test_max_cyclic_flat_ignores_peeling_order(all_functions):
    for f in all_functions[:60]:
        for m in flats(f):
            assert max_cyclic_flat(f, m) == _oracles.max_cyclic_flat_reversed(f, m)


def test_cyclic_flats_of_uniform():
    lattice, mu = cyclic_flats(uniform_matroid(2, 3))
    assert frozenset(lattice.items()) == {(0, Fraction(0)), (0b111, Fraction(2))}
    assert mu.singleton == (1, 1, 1)


def test_cyclic_flats_match_circuit_union_oracle():
    for f in corpus.matroid_corpus():
        lattice, _ = cyclic_flats(f)
        assert list(lattice.members) == _oracles.cyclic_flats_by_circuits(f)


def test_cyclic_flats_match_element_scan_on_both_kernel_paths(all_functions):
    # distinct prime denominators: up to n = 6 the scan runs on ints, from
    # n = 7 on the Fractions
    coprime = [corpus.coprime_denominator_table(n) for n in range(2, 9)]
    assert [_common_denominator(f.values)[0] is None for f in coprime] == [False] * 5 + [True] * 2
    for f in list(all_functions) + coprime:
        lattice, _ = cyclic_flats(f)
        expected = [m for m in f.ground.subsets() if _oracles.cyclic_flat_by_scan(f, m)]
        assert list(lattice.members) == _by_size(expected)
        for m, rank in lattice.items():
            assert type(rank) is Fraction and rank == f.values[m]
    # flats on both paths, with values copied up to a neighbour so that not
    # every set is a flat
    rng = random.Random(3)
    for f in coprime:
        values = list(f.values)
        for _ in range(len(values) // 4):
            i = rng.randrange(f.ground.n)
            a = rng.randrange(len(values)) & ~(1 << i)
            values[a | 1 << i] = values[a]
        g = SetFunction(f.ground, values)
        assert (_common_denominator(g.values)[0] is None) == (g.ground.n >= 7)
        expected = _by_size(m for m in g.ground.subsets() if _oracles.flat_by_scan(g, m))
        assert flats(g) == expected and len(expected) < len(values)


def test_cyclic_flats_at_fourteen_elements():
    f = corpus.rational_sum_table(14, 14)
    assert check_polymatroid(f).is_polymatroid
    lattice, _ = cyclic_flats(f)
    assert len(lattice) == 431
    expected = [m for m in f.ground.subsets() if _oracles.cyclic_flat_by_scan(f, m)]
    assert list(lattice.members) == _by_size(expected)
    assert reconstruction_failure(f) is None


def test_cyclic_flat_lattice_operations(all_functions):
    # meet is the largest cyclic flat inside the intersection of flats
    for f in all_functions[:60]:
        lattice, _ = cyclic_flats(f)
        for a in lattice.members:
            for b in lattice.members:
                assert lattice.meet(a, b) == max_cyclic_flat(f, a & b)
                assert closure(f, a | b) & ~lattice.join(a, b) == 0


def test_reconstruction_identity_on_slice(all_functions):
    for f in all_functions[:80]:
        assert reconstruction_failure(f) is None
