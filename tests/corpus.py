"""Shared test corpus: deterministic polymatroid families and mutations.

Everything here is seeded, so expected values frozen in the tests stay
stable run to run.  Builders are cached because several modules and the
acceptance suite walk the same families.
"""

import functools
import random
from fractions import Fraction

from polyflats import (
    GroundSet,
    InfiltrationSpec,
    Measure,
    RankedLattice,
    SetFunction,
    check_polymatroid,
    cyclic_flats,
    graphic_matroid,
    random_polymatroid,
    uniform_matroid,
    validate_lattice,
)
from polyflats.model import _pack


# (name, vertex count, edges) of the graphic matroids in the corpus
GRAPHS = (
    ("triangle", 3, ((0, 1), (1, 2), (0, 2))),
    ("triangle-pendant", 4, ((0, 1), (1, 2), (0, 2), (2, 3))),
    ("two-triangles", 4, ((0, 1), (1, 2), (0, 2), (1, 3), (2, 3))),
    ("cycle-4", 4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    ("cycle-5", 5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))),
    ("parallel-pair", 2, ((0, 1), (0, 1))),
    ("parallel-triple", 2, ((0, 1), (0, 1), (0, 1))),
    ("path-3", 4, ((0, 1), (1, 2), (2, 3))),
    ("loop-triangle", 3, ((0, 0), (0, 1), (1, 2), (0, 2))),
    ("two-loops", 3, ((0, 0), (1, 1), (0, 1))),
)


def named_matroids() -> list[tuple[str, SetFunction]]:
    out = []
    for n in range(0, 6):
        for k in range(0, n + 1):
            out.append((f"uniform-{k}-{n}", uniform_matroid(k, n)))
    out += [(name, graphic_matroid(vertices, edges)) for name, vertices, edges in GRAPHS]
    return out


@functools.lru_cache(maxsize=None)
def full_corpus() -> tuple[SetFunction, ...]:
    fs = [f for _, f in named_matroids()]
    for n in (2, 3, 4, 5):
        for seed in range(105):
            fs.append(random_polymatroid(seed, n))
    for n in (2, 3, 4):
        for seed in range(20):
            fs.append(random_polymatroid(seed, n, mode="table"))
    return tuple(fs)


@functools.lru_cache(maxsize=None)
def harvested() -> tuple[tuple[SetFunction, RankedLattice, Measure], ...]:
    """Every corpus member with its cyclic-flat lattice and measure."""
    return tuple((f, *cyclic_flats(f)) for f in full_corpus())


@functools.lru_cache(maxsize=None)
def matroid_corpus() -> tuple[SetFunction, ...]:
    return tuple(f for f in full_corpus() if check_polymatroid(f).is_matroid)


@functools.lru_cache(maxsize=None)
def integer_corpus() -> tuple[SetFunction, ...]:
    """Small integer polymatroids with total rank at most 3."""
    out = [
        f
        for f in full_corpus()
        if f.ground.n <= 4 and f.is_integer_valued() and f.values[f.ground.full] <= 3
    ]
    seen = {(f.ground.names, f.values) for f in out}
    for n in (2, 3, 4):
        for seed in range(60):
            f = random_polymatroid(seed, n, integer=True, terms=3, max_rank=2)
            key = (f.ground.names, f.values)
            if f.values[f.ground.full] <= 3 and key not in seen:
                seen.add(key)
                out.append(f)
    return tuple(out)


# --- lattice and measure mutations (rank table surgery) ---


def with_ranks(lattice: RankedLattice, ranks) -> RankedLattice:
    pairs = list(zip(lattice.members, ranks))
    return validate_lattice(lattice.ground, pairs)


def shift_up(lattice: RankedLattice, amount=Fraction(1)) -> RankedLattice:
    """Add a constant to every rank: only the zero-bottom condition breaks."""
    return with_ranks(lattice, [r + amount for r in lattice.ranks])


def scale_ranks(lattice: RankedLattice, t) -> RankedLattice:
    return with_ranks(lattice, [r * t for r in lattice.ranks])


def scale_measure(mu: Measure, t) -> Measure:
    return Measure(mu.ground, [v * t for v in mu.singleton])


def set_singleton(mu: Measure, index: int, value) -> Measure:
    values = list(mu.singleton)
    values[index] = Fraction(value)
    return Measure(mu.ground, values)


def scale_function(f: SetFunction, t) -> SetFunction:
    return SetFunction(f.ground, [v * Fraction(t) for v in f.values])


def relabel(f: SetFunction, labels) -> SetFunction:
    return SetFunction(GroundSet(tuple(labels)), f.values)


def closed_random_lattice(seed: int, f: SetFunction) -> tuple[RankedLattice, Measure]:
    """Random family closed under union and intersection, ranked by f.

    Meet and join then coincide with intersection and union, so the
    submodular-exchange condition is inherited from f while the other
    conditions are left to chance.
    """
    rng = random.Random(seed)
    family = {0, f.ground.full}
    for _ in range(rng.randrange(1, 5)):
        family.add(rng.randrange(f.ground.full + 1))
    while True:
        extra = {
            op
            for a in family
            for b in family
            for op in (a | b, a & b)
            if op not in family
        }
        if not extra:
            break
        family |= extra
    pairs = [(m, f.values[m]) for m in sorted(family)]
    lattice = validate_lattice(f.ground, pairs)
    mu = Measure(
        f.ground,
        [Fraction(rng.randrange(0, 5), rng.choice((1, 2))) for _ in f.ground.names],
    )
    return lattice, mu


# Denominators for the integer-kernel parity tests: small ones that mix,
# and two coprime ones past 40 digits.
KERNEL_DENOMINATORS = (1, 2, 3, 7, 10**45 + 7, 10**41 + 3)


@functools.lru_cache(maxsize=None)
def rational_sum_table(seed: int, n: int, terms: int = 6) -> SetFunction:
    """Weighted sum of uniform ranks on random supports, any n <= 20.

    The same shape as ``random_polymatroid(mode="sum")``, which stops at
    n = 10; a polymatroid by construction, with rational weights.  Cached,
    since the larger tables take seconds to build.
    """
    rng = random.Random(seed)
    summands = [
        (rng.randrange(1, 1 << n), rng.randint(1, 4), Fraction(rng.randint(1, 4), rng.choice((1, 2, 3))))
        for _ in range(terms)
    ]
    return SetFunction.from_callable(
        GroundSet(tuple(f"e{i}" for i in range(n))),
        lambda a: sum((w * min((a & s).bit_count(), c) for s, c, w in summands), Fraction(0)),
    )


def distinct_primes(count: int) -> list[int]:
    """The first ``count`` primes past 5."""
    out, candidate = [], 7
    while len(out) < count:
        if all(candidate % p for p in out if p * p <= candidate) and candidate % 3 and candidate % 5:
            out.append(candidate)
        candidate += 2
    return out


@functools.lru_cache(maxsize=None)
def large_primes(count: int, digits: int = 40) -> tuple[int, ...]:
    """The first ``count`` probable primes past 10**(digits - 1): each passes
    Miller-Rabin to the twelve prime bases up to 37."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

    def probable_prime(q):
        odd, twos = q - 1, 0
        while odd % 2 == 0:
            odd, twos = odd // 2, twos + 1
        for b in bases:
            x = pow(b, odd, q)
            if x in (1, q - 1):
                continue
            for _ in range(twos - 1):
                x = x * x % q
                if x == q - 1:
                    break
            else:
                return False
        return True

    out, candidate = [], 10 ** (digits - 1) + 1
    while len(out) < count:
        if probable_prime(candidate):
            out.append(candidate)
        candidate += 2
    return tuple(out)


def coprime_denominator_table(n: int) -> SetFunction:
    """A polymatroid whose 2^n values carry 2^n distinct prime denominators.

    r(A) adds n, n-1, ... over the |A| elements, plus 1/p for a prime p of
    its own.  The concave part leaves a margin of 1 in every monotone step
    and local exchange, which shifts of at most 1/7 cannot close.  The lcm
    of the denominators is their product, which outgrows the kernels' int
    form from n = 7 on.
    """
    primes = distinct_primes(1 << n)
    return SetFunction(
        GroundSet(tuple(f"e{i}" for i in range(n))),
        [sum(range(n, n - m.bit_count(), -1)) + Fraction(1, primes[m]) for m in range(1 << n)],
    )


def halves_table(n: int) -> SetFunction:
    """min(|A ∩ L|, n/4) + min(|A ∩ R|, n/5)/3 for the lower half L of the
    elements and the upper half R, built from the two counts per mask so
    that n = 20 takes well under a second."""
    half = n // 2
    rank = [[Fraction(min(a, n // 4)) + Fraction(min(b, n // 5), 3) for b in range(n - half + 1)]
            for a in range(half + 1)]
    low = (1 << half) - 1
    return SetFunction(
        GroundSet(tuple(f"e{i}" for i in range(n))),
        [rank[(m & low).bit_count()][(m >> half).bit_count()] for m in range(1 << n)],
    )


def small_denominator_table(n: int) -> SetFunction:
    """``coprime_denominator_table`` with shifts of 0, 1/21 and 2/21 in turn
    instead of 1/p: the same margin of 1, on ints over 21 that the kernels
    pack."""
    return SetFunction(
        GroundSet(tuple(f"e{i}" for i in range(n))),
        [sum(range(n, n - m.bit_count(), -1)) + Fraction(m % 3, 21) for m in range(1 << n)],
    )


def kernel_path(f: SetFunction) -> str:
    """Which form the 2^n kernels run ``f`` on: ``packed8`` to ``packed64``
    by field width, ``slices`` for ints too wide to pack, or ``fractions``."""
    d, v = f._held
    if d is None:
        return "fractions"
    packed = _pack(d, v)
    return f"packed{packed[0].width}" if packed else "slices"


def random_family_lattice(rng: random.Random, ground: GroundSet, top: int) -> RankedLattice:
    """Random family inside ``top``, closed under union and intersection,
    with random non-negative ranks over mixed denominators.

    The ranks need not be monotone, zero ranks occur, and ground elements
    outside ``top`` lie in no member.
    """
    family = {0, top}
    for _ in range(rng.randrange(0, 5)):
        family.add(rng.randrange(top + 1) & top)
    while True:
        extra = {op for a in family for b in family for op in (a | b, a & b)} - family
        if not extra:
            break
        family |= extra
    return validate_lattice(
        ground,
        [(m, Fraction(rng.randrange(0, 12), rng.choice(KERNEL_DENOMINATORS))) for m in sorted(family)],
    )


# --- infiltration pairs ---


@functools.lru_cache(maxsize=None)
def infiltration_specs(count: int = 60) -> tuple[InfiltrationSpec, ...]:
    rng = random.Random(20260822)
    hosts = [f for f in full_corpus() if 2 <= f.ground.n <= 3]
    guests = [f for f in full_corpus() if 1 <= f.ground.n <= 3]
    specs = []
    while len(specs) < count:
        host = rng.choice(hosts)
        pivot = rng.choice(host.ground.names)
        pivot_rank = host(host.ground.singleton(pivot))
        if pivot_rank == 0:
            guest = SetFunction(GroundSet(("p", "q")), [Fraction(0)] * 4)
        else:
            base = rng.choice(guests)
            total = base.values[base.ground.full]
            if total == 0:
                continue
            scaled = scale_function(base, pivot_rank / total)
            guest = relabel(scaled, ("p", "q", "r")[: base.ground.n])
        specs.append(InfiltrationSpec(host, pivot, guest))
    return tuple(specs)
