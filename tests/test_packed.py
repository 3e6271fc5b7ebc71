"""The packed-field kernels against the per-mask references, on both sides
of each field-width step, and the common-denominator ints a table keeps."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from polyflats import (
    GroundSet,
    Measure,
    SetFunction,
    check_polymatroid,
    convolve,
    convolve_lattices,
    cyclic_flats,
    flats,
    random_polymatroid,
    reconstruction_failure,
    validate_lattice,
)
from polyflats.files import read_polymatroid, write_polymatroid
from polyflats.lattice import RankedLattice
from polyflats.model import _common_denominator, _marked_flats, _pack, _packing

import _oracles
import corpus

# each width step, the span on either side of it, and the widths they get
WIDTH_STEPS = [
    (2**6 - 1, 8), (2**6, 16),
    (2**14 - 1, 16), (2**14, 32),
    (2**30 - 1, 32), (2**30, 64),
    (2**62 - 1, 64), (2**62, None),
]


def by_size(masks):
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def assert_kernels_match_references(f):
    """Report, flats and cyclic-flat marks against the per-mask scans, and
    for a polymatroid the reconstruction against ``convolve_reference``."""
    report = check_polymatroid(f)
    assert report == _oracles.check_polymatroid_reference(f)
    assert flats(f) == by_size(m for m in f.ground.subsets() if _oracles.flat_by_scan(f, m))
    marked = [m for m in f.ground.subsets() if _oracles.cyclic_flat_by_scan(f, m)]
    assert _marked_flats(*f._held, cyclic=True) == marked
    if report.is_polymatroid:
        lattice, mu = cyclic_flats(f)
        assert list(lattice.members) == by_size(marked)
        rebuilt = convolve(lattice, mu)
        assert rebuilt == f == _oracles.convolve_reference(lattice, mu)
    return report


def spanning(f, span):
    """An integer polymatroid q·f + rem on the non-empty sets, whose values
    run from 0 to exactly ``span`` (adding a constant to every non-empty
    set keeps a polymatroid one)."""
    top = int(max(f.values))
    q, rem = divmod(span, top) if top else (0, span)
    return SetFunction(f.ground, [q * v + (rem if a else 0) for a, v in enumerate(f.values)])


@pytest.mark.parametrize("span, width", WIDTH_STEPS)
def test_width_rule(span, width):
    fields = _packing(3, span)
    assert (fields and fields.width) == width
    # the rule reads the span, not where the values sit
    f = SetFunction(GroundSet(("a",)), [-(span // 2), span - span // 2])
    assert corpus.kernel_path(f) == (f"packed{width}" if width else "slices")


def _by_fields(fields, value_of) -> int:
    """The packed table whose field at mask m holds ``value_of(m)``."""
    w = fields.width // 8
    return int.from_bytes(
        b"".join(value_of(m).to_bytes(w, "little") for m in range(1 << fields.n)), "little"
    )


def test_layouts_are_built_once_within_the_kept_bound():
    for n, span in ((0, 1), (3, 1), (15, 1), (12, 2**40)):
        assert _packing(n, span) is _packing(n, span)
    # 2^16 fields of 8 bits pass the kept bound of 2^18 bits
    assert _packing(16, 1) is not _packing(16, 1)
    for n, span, values in (
        (3, 1, (0, 1, 61, 255)),
        (3, 2**10, (0, 1, 2**15 - 3, 2**16 - 1)),
        (3, 2**20, (0, 1, 2**31 - 3, 2**32 - 1)),
        (4, 2**40, (0, 1, 2**63 - 3, 2**64 - 1)),
        (16, 1, (5,)),
    ):
        fields = _packing(n, span)
        guard = 1 << (fields.width - 1)
        for value in values:
            assert fields.fill(value) == _by_fields(fields, lambda m: value)
        for i in range(n):
            assert fields.guards(i) == _by_fields(fields, lambda m: 0 if m >> i & 1 else guard)


@pytest.mark.parametrize("span, width", WIDTH_STEPS)
def test_kernels_on_both_sides_of_each_width_step(span, width):
    rng = random.Random(span)
    path = f"packed{width}" if width else "slices"
    bases = [f for f in corpus.integer_corpus() if f.ground.n][:12]
    seen = Counter()
    bases += [random_polymatroid(rng.randrange(1000), n, integer=True) for n in (1, 1, 2)]
    for base in bases:
        f = spanning(base, span)
        assert max(f.values) - min(f.values) == span
        assert corpus.kernel_path(f) == path
        assert assert_kernels_match_references(f).is_polymatroid
        # the same span below zero, and copies broken by moves within it:
        # two values swapped, or one raised as far as monotonicity allows
        shifted = SetFunction(f.ground, [v - span // 2 for v in f.values])
        assert corpus.kernel_path(shifted) == path
        assert_kernels_match_references(shifted)
        full = f.ground.full
        for move in range(4):
            values = list(f.values)
            a, b = rng.randrange(len(values)), rng.randrange(len(values))
            if move % 2:
                values[a], values[b] = values[b], values[a]
            elif a not in (0, full):
                values[a] = min(values[a | 1 << i] for i in range(f.ground.n) if not a >> i & 1)
            g = SetFunction(f.ground, values)
            assert corpus.kernel_path(g) == path
            report = assert_kernels_match_references(g)
            seen[report.witness.axiom if report.witness else "none"] += 1
    assert seen["monotone"] and seen["submodular"]


@pytest.mark.parametrize("span, width", WIDTH_STEPS)
def test_convolutions_on_both_sides_of_each_width_step(span, width):
    # Ranks 0 and span - w on the bottom and the top, w on every element: the
    # seeded table runs from 0 to span - w (the top) or n·w (no member), and
    # the recurrence adds up to w more.
    rng = random.Random(span)
    for n in (1, 2, 3, 4):
        g = GroundSet(tuple("abcd"[:n]))
        w = rng.randint(1, 3)
        middle = rng.randrange(1, g.full) if n > 1 else 0
        family = [(0, 0), (g.full, span - w)] + ([(middle, (span - w) // 2)] if middle else [])
        lat = RankedLattice(g, family)
        mu = Measure(g, [w] * n)
        packed = _pack(1, [span - w, 0, n * w], w)
        assert (packed and packed[0].width) == width
        assert convolve(lat, mu) == _oracles.convolve_reference(lat, mu)
        # the two tops add up to span
        second = RankedLattice(g, [(0, 0), (g.full, w)] + ([(middle, 1)] if middle else []))
        assert convolve_lattices(lat, second) == _oracles.convolve_lattices_reference(lat, second)


def test_kernels_on_grounds_of_no_and_one_element():
    values = [0, 5, -3, Fraction(5, 2), 2**62, -(2**70)]
    tables = [SetFunction(GroundSet(()), [v]) for v in values]
    tables += [SetFunction(GroundSet(("a",)), [u, v]) for u in values for v in values]
    paths = Counter(corpus.kernel_path(f) for f in tables)
    assert paths["packed8"] and paths["packed64"] and paths["slices"]
    for f in tables:
        assert_kernels_match_references(f)


def _fuzzed_table(rng, i):
    n = rng.randint(0, 5)
    size = 1 << n
    kind = i % 4
    if kind == 0:
        span = rng.choice([1, 5, 63, 64, 1000, 2**20, 2**40, 2**63])
        low = rng.choice([0, -span // 2, 3])
        values = [low + rng.randint(0, span) for _ in range(size)]
    elif kind == 1:
        pool = [Fraction(v) for v in (-1, 0, 0, 1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)]
        values = [rng.choice(pool) for _ in range(size)]
    else:
        f = random_polymatroid(rng.randrange(1000), n, integer=kind == 2)
        scale = rng.choice([1, 3, 10**8, 10**20])
        values = [v * scale for v in f.values]
        for _ in range(rng.randint(0, 2)):
            m = rng.randrange(size)
            values[m] += rng.choice([-1, 1, Fraction(1, 7), scale])
    return SetFunction(GroundSet(tuple("abcde"[:n])), values)


def test_kernels_match_references_on_the_corpus_and_fuzzed_tables(all_functions):
    rng = random.Random(2024)
    fuzzed = [_fuzzed_table(rng, i) for i in range(1200)]
    coprime = [corpus.coprime_denominator_table(n) for n in (2, 7)]
    paths, verdicts = Counter(), Counter()
    for f in list(all_functions) + fuzzed + coprime:
        report = assert_kernels_match_references(f)
        paths[corpus.kernel_path(f)] += 1
        verdicts[report.witness.axiom if report.witness else "none"] += 1
    assert set(paths) == {"packed8", "packed16", "packed32", "packed64", "slices", "fractions"}
    assert all(verdicts[axiom] > 50 for axiom in ("nonnegative", "monotone", "submodular", "none"))


def test_convolutions_match_references_on_perturbed_lattices(harvested_pairs):
    # ranks moved down, up and below zero, so that members lose their order
    # and the bottom need not be the least
    rng = random.Random(77)
    negative = non_monotone = 0
    for _, lattice, mu in [pair for pair in harvested_pairs if len(pair[1]) > 1][:150]:
        ranks = [r + rng.choice([0, -1, 1, Fraction(1, 3), -5, 5]) for r in lattice.ranks]
        moved = RankedLattice._from_family(lattice.ground, zip(lattice.members, ranks))
        negative += min(ranks) < 0
        non_monotone += any(
            ranks[j] < ranks[i]
            for i, low in enumerate(lattice.members)
            for j, high in enumerate(lattice.members)
            if i < j and low & ~high == 0
        )
        assert convolve(moved, mu) == _oracles.convolve_reference(moved, mu)
        both = convolve_lattices(lattice, moved)
        assert both == _oracles.convolve_lattices_reference(lattice, moved)
    assert negative > 20 and non_monotone > 20


def test_tables_hold_their_common_denominator(tmp_path, harvested_pairs):
    def holds(f):
        assert f._held == _common_denominator(f.values)
        assert f.is_integer_valued() == all(v.denominator == 1 for v in f.values)

    path = tmp_path / "f.json"
    coprime = [corpus.coprime_denominator_table(n) for n in (3, 8)]
    for f in list(corpus.full_corpus()[::7]) + coprime:
        write_polymatroid(f, path)
        back = read_polymatroid(path)
        holds(back)
        assert back == f
    assert read_polymatroid(path)._held[0] is None  # the coprime n = 8 table
    for _, lattice, mu in harvested_pairs[:40]:
        holds(convolve(lattice, mu))
        holds(convolve_lattices(lattice, lattice))
    # a third that no minimum takes: the inputs' lcm is 3, the results' 1
    g = GroundSet(("a", "b"))
    lat = validate_lattice(g, [(0, 0), (0b01, Fraction(1, 3)), (0b11, 2)])
    mu = Measure(g, [0, 1])
    assert _common_denominator(lat.ranks + mu.singleton)[0] == 3
    r = convolve(lat, mu)
    holds(r)
    assert r.values == (0, 0, 1, 1) and check_polymatroid(r).integer_valued
    other = validate_lattice(g, [(0, 0), (0b10, Fraction(1, 3)), (0b11, 1)])
    both = convolve_lattices(lat, other)
    holds(both)
    assert both._held[0] == 3 and both == _oracles.convolve_lattices_reference(lat, other)
    # results past 512 bits: four 40-digit prime denominators that most
    # values keep stay ints; three 60-digit ones that only 4 of 256 values
    # keep fall back to Fractions, though the inputs' ints fit their bound
    g4 = GroundSet(tuple("abcd"))
    primes = corpus.large_primes(4)
    lat = RankedLattice(g4, [(0, 0), (g4.full, 4)] + [(1 << i, Fraction(1, primes[i])) for i in range(4)])
    r = convolve(lat, Measure(g4, [1] * 4))
    holds(r)
    assert r._held[0].bit_length() > 512
    g8 = GroundSet(tuple("abcdefgh"))
    primes = corpus.large_primes(3, 60)
    family = [(g8.full ^ 1 << i, 7 - Fraction(1, primes[i])) for i in range(3)]
    lat = RankedLattice(g8, [(0, 0), (g8.full, 8)] + family)
    mu = Measure(g8, [1] * 8)
    assert _common_denominator(lat.ranks + mu.singleton)[0] is not None
    r = convolve(lat, mu)
    holds(r)
    assert r._held[0] is None
    # thirds that every cover adds up to 1
    thirds = RankedLattice(g, [(0, Fraction(1, 3)), (0b11, Fraction(1, 3))])
    two_thirds = RankedLattice(g, [(0, Fraction(2, 3)), (0b11, Fraction(2, 3))])
    ones = convolve_lattices(thirds, two_thirds)
    holds(ones)
    assert ones._held == (1, [1, 1, 1, 1])


def test_reconstruction_failure_names_the_first_differing_subset():
    # v({a}) + v({b}) < v({a, b}): the only cyclic flat is the empty set, so
    # the rebuilt table is the measure, which first differs at {a, b}
    g = GroundSet(("a", "b", "c"))
    for top in (3, Fraction(5, 2)):
        values = [Fraction(a.bit_count()) for a in g.subsets()]
        values[0b011] = top
        f = SetFunction(g, values)
        rebuilt = convolve(*cyclic_flats(f))
        first = next(a for a in g.subsets() if rebuilt.values[a] != f.values[a])
        assert first == 0b011
        assert reconstruction_failure(f) == first


def test_reconstruction_failure_compares_tables_on_different_denominators_without_their_values(
    monkeypatch,
):
    # the 5/2 table above is held over d = 2, its rebuilt table over d = 1
    g = GroundSet(("a", "b", "c"))
    values = [Fraction(a.bit_count()) for a in g.subsets()]
    values[0b011] = Fraction(5, 2)
    f = SetFunction(g, values)
    assert (f._held[0], convolve(*cyclic_flats(f))._held[0]) == (2, 1)

    def refuse(self):
        raise AssertionError("the Fraction view was built")

    monkeypatch.setattr(SetFunction, "values", property(refuse))
    assert reconstruction_failure(f) == 0b011
