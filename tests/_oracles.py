"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's own shortcuts: monotonicity and
submodularity are checked over all pairs, flats and cyclic flats are tested
element by element, closure is computed by scanning flats, cyclic flats of
matroids come from circuits.  Slow is fine here.
"""

from fractions import Fraction

from polyflats import (
    AxiomWitness,
    ConditionReport,
    ExpansionMap,
    GroundSet,
    NotALattice,
    PolymatroidReport,
    SetFunction,
    Verdict,
    Witness,
    bits,
    check_conditions,
    check_polymatroid,
    convolve,
    is_cyclic_flat,
)
from polyflats.files import (
    FileFormatError,
    _ground_from_doc,
    _ordered,
    format_rational,
    parse_rational,
    parse_subset_key,
)


def monotone_all_pairs(f: SetFunction):
    """First (A, B) with A subset of B and f(A) > f(B), else None."""
    for a in f.ground.subsets():
        for b in f.ground.subsets():
            if a & ~b == 0 and f.values[a] > f.values[b]:
                return (a, b)
    return None


def submodular_all_pairs(f: SetFunction):
    """First (A, B) violating f(A) + f(B) >= f(A|B) + f(A&B), else None."""
    for a in f.ground.subsets():
        for b in f.ground.subsets():
            if f.values[a] + f.values[b] < f.values[a | b] + f.values[a & b]:
                return (a, b)
    return None


def graphic_rank_reference(vertices: int, edges) -> list[int]:
    """Rank of each edge subset, in mask order, by a union-find built
    afresh for the subset: the number of its edges that join two components
    as they are added.  ``vertices`` only bounds the endpoints."""
    assert all(0 <= v < vertices for e in edges for v in e)
    ranks = []
    for mask in range(1 << len(edges)):
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                x = parent[x]
            return x

        merges = 0
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1 and find(u) != find(v):
                parent[find(u)] = find(v)
                merges += 1
        ranks.append(merges)
    return ranks


def flat_by_scan(f: SetFunction, subset: int) -> bool:
    """True when every element outside strictly raises the rank."""
    for i in range(f.ground.n):
        bit = 1 << i
        if subset & bit:
            continue
        if f.values[subset | bit] == f.values[subset]:
            return False
    return True


def cyclic_flat_by_scan(f: SetFunction, subset: int) -> bool:
    """A flat in which each member is a loop or sits strictly below its
    singleton rank given the rest, tested element by element."""
    if not flat_by_scan(f, subset):
        return False
    for i in range(f.ground.n):
        bit = 1 << i
        if not subset & bit:
            continue
        single = f.values[bit]
        if single == 0:
            continue
        if f.values[subset] - f.values[subset ^ bit] >= single:
            return False
    return True


def closure_by_flats(f: SetFunction, subset: int) -> int:
    """Intersection of every flat containing the subset."""
    out = f.ground.full
    for m in f.ground.subsets():
        if subset & ~m == 0 and flat_by_scan(f, m):
            out &= m
    return out


def circuits(f: SetFunction) -> list[int]:
    """Minimal dependent sets of a matroid (dependent: rank < cardinality)."""
    dependent = [m for m in f.ground.subsets() if f.values[m] < m.bit_count()]
    dep = set(dependent)
    out = []
    for m in dependent:
        if not any(s != m and s in dep for s in _proper_submasks(m)):
            out.append(m)
    return out


def _proper_submasks(mask: int):
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def cyclic_flats_by_circuits(f: SetFunction) -> list[int]:
    """Flats of a matroid that are unions of the circuits inside them."""
    circs = circuits(f)
    out = []
    for m in f.ground.subsets():
        if not flat_by_scan(f, m):
            continue
        union = 0
        for c in circs:
            if c & ~m == 0:
                union |= c
        if union == m:
            out.append(m)
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def max_cyclic_flat_reversed(f: SetFunction, flat: int) -> int:
    """Same peeling as the library, but dropping the highest index first."""
    current = flat
    while True:
        for i in reversed(range(f.ground.n)):
            bit = 1 << i
            if not current & bit:
                continue
            single = f.values[bit]
            if single > 0 and f.values[current] - f.values[current ^ bit] == single:
                current ^= bit
                break
        else:
            return current


def convolution_argmin(lattice, mu, subset: int) -> int:
    """Lowest-index member achieving the convolution minimum for ``subset``."""
    table = mu.table()
    best_mask = lattice.members[0]
    best = lattice.ranks[0] + table[subset & ~best_mask]
    for m, rank in lattice.items():
        value = rank + table[subset & ~m]
        if value < best:
            best, best_mask = value, m
    return best_mask


def convolution_singleton_profile(lattice, mu) -> dict[str, Fraction]:
    """Map each ground element to the convolution value of its singleton."""
    r = convolve(lattice, mu)
    return {name: r.values[1 << i] for i, name in enumerate(lattice.ground.names)}


def check_polymatroid_reference(f: SetFunction) -> PolymatroidReport:
    """``check_polymatroid`` as three ``Fraction`` scans in the same order:
    non-negativity, then monotone steps, then local exchanges, each by
    subset, then element index."""
    v, n = f.values, f.ground.n

    def nonnegative():
        for mask in f.ground.subsets():
            if v[mask] < 0:
                return AxiomWitness("nonnegative", (mask,))
        return None

    def monotone():
        for mask in f.ground.subsets():
            for i in range(n):
                bit = 1 << i
                if not mask & bit and v[mask] > v[mask | bit]:
                    return AxiomWitness("monotone", (mask, mask | bit))
        return None

    def submodular():
        for mask in f.ground.subsets():
            free = [i for i in range(n) if not mask >> i & 1]
            for a in range(len(free)):
                i = free[a]
                for j in free[a + 1:]:
                    left = v[mask | 1 << i] + v[mask | 1 << j]
                    right = v[mask | 1 << i | 1 << j] + v[mask]
                    if left < right:
                        return AxiomWitness("submodular", (mask,), (i, j))
        return None

    w_nonneg, w_mono, w_sub = nonnegative(), monotone(), submodular()
    integer = all(x.denominator == 1 for x in v)
    is_poly = w_nonneg is None and w_mono is None and w_sub is None
    return PolymatroidReport(
        nonnegative=w_nonneg is None,
        monotone=w_mono is None,
        submodular=w_sub is None,
        integer_valued=integer,
        is_matroid=is_poly and integer and all(x in (0, 1) for x in f.singletons()),
        witness=w_nonneg or w_mono or w_sub,
    )


def convolve_reference(lattice, mu) -> SetFunction:
    """``convolve`` by scanning every member for every subset."""
    table = mu.table()
    return SetFunction(
        lattice.ground,
        [
            min(rank + table[a & ~m] for m, rank in lattice.items())
            for a in lattice.ground.subsets()
        ],
    )


def convolve_lattices_reference(first, second) -> SetFunction:
    """``convolve_lattices`` by scanning every member pair for every subset
    of the union of the two tops."""
    keep = [i for i in range(first.ground.n) if (first.top | second.top) >> i & 1]
    ground = GroundSet(tuple(first.ground.names[i] for i in keep))
    pairs = [(m1 | m2, r1 + r2) for m1, r1 in first.items() for m2, r2 in second.items()]
    values = []
    for small in ground.subsets():
        a = sum(1 << i for pos, i in enumerate(keep) if small >> pos & 1)
        values.append(min(s for u, s in pairs if a & ~u == 0))
    return SetFunction(ground, values)


def pair_scan_reference(ground, elements):
    """Meet and join index tables by scanning every member for each pair
    i <= j of member indices, lower bound before upper bound.

    Members are sorted by (cardinality, bit pattern).  The first pair
    without a unique bound raises NotALattice with that pair and reason.
    """
    raw = dict(elements)
    members = sorted(raw, key=lambda m: (m.bit_count(), m))
    index = {m: i for i, m in enumerate(members)}
    k = len(members)
    meet = [[0] * k for _ in range(k)]
    join = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            both = members[i] & members[j]
            lower = [m for m in members if m & ~both == 0]
            union_of_lower = 0
            for m in lower:
                union_of_lower |= m
            glb = index.get(union_of_lower)
            if not lower or glb is None:
                raise NotALattice(ground, members[i], members[j], "no unique lower bound")
            meet[i][j] = meet[j][i] = glb

            either = members[i] | members[j]
            upper = [m for m in members if either & ~m == 0]
            common = ground.full
            for m in upper:
                common &= m
            lub = index.get(common)
            if not upper or lub is None:
                raise NotALattice(ground, members[i], members[j], "no unique upper bound")
            join[i][j] = join[j][i] = lub
    return meet, join


def cube_hulls_reference(n, members) -> tuple[list[int], list[int]]:
    """(inner, outer) for every mask X of an n-element ground, each from a
    scan over every member: the union of the members inside X (0 if none)
    and the intersection of the members containing X (the ground set if
    none)."""
    inner, outer = [], []
    for x in range(1 << n):
        union, common = 0, (1 << n) - 1
        for m in members:
            if not m & ~x:
                union |= m
            if not x & ~m:
                common &= m
        inner.append(union)
        outer.append(common)
    return inner, outer


def order_bitsets_reference(members) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(below, above): bit t of ``below[i]`` set when member t lies inside
    member i, of ``above[i]`` when member t contains member i, each from a
    scan over every member."""
    below = tuple(
        sum(1 << t for t, low in enumerate(members) if not low & ~high) for high in members
    )
    above = tuple(
        sum(1 << t for t, high in enumerate(members) if not low & ~high) for low in members
    )
    return below, above


def dot_reference(lattice) -> str:
    """Hasse diagram in DOT, the covering pairs found by looking for a
    member strictly between every nested pair."""
    ground = lattice.ground
    ordered = sorted(lattice.members, key=lambda m: (m.bit_count(), ground.sorted_labels(m)))
    node_id = {m: i for i, m in enumerate(ordered)}
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for m in ordered:
        name = ground.describe(m).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{node_id[m]} [label="{name}\\n{lattice.rank_of(m)}"];')
    for low in ordered:
        for high in ordered:
            if low == high or low & ~high:
                continue
            covered = any(
                mid != low and mid != high and low & ~mid == 0 and mid & ~high == 0
                for mid in lattice.members
            )
            if not covered:
                lines.append(f"  n{node_id[low]} -> n{node_id[high]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def polymatroid_to_doc_reference(f: SetFunction) -> dict:
    """Rank document with each key from the sorted labels of its mask and
    all 2^n (labels, mask) pairs sorted into file order."""
    for label in f.ground.names:
        if "," in label:
            raise FileFormatError(f"label {label!r} contains a comma; not serializable")
    rank = {
        ",".join(labels): format_rational(f.values[m])
        for labels, m in _ordered(f.ground, f.ground.subsets())
    }
    return {"ground": list(f.ground.names), "rank": rank}


def polymatroid_from_doc_reference(doc) -> SetFunction:
    """Rank table with every key split and parsed, every value parsed, and
    the first missing subset found by sorting all holes into file order."""
    ground = _ground_from_doc(doc)
    rank = doc.get("rank")
    if not isinstance(rank, dict):
        raise FileFormatError("polymatroid document needs a 'rank' map")
    values: list = [None] * (1 << ground.n)
    for key, text in rank.items():
        mask = parse_subset_key(ground, key)
        if values[mask] is not None:
            raise FileFormatError(f"subset key {key!r} repeats an earlier subset")
        values[mask] = parse_rational(text)
    missing = [m for m, v in enumerate(values) if v is None]
    if missing:
        labels, _ = _ordered(ground, missing)[0]
        raise FileFormatError(f"missing subset {','.join(labels)!r}")
    return SetFunction(ground, values)


def _split(mask: int, pivot: int, m: int) -> tuple[int, int]:
    """Split a result-ground mask into (host mask, guest mask): the low m
    bits, with a 0 inserted at the pivot's index, and the bits above them."""
    kept = mask & ((1 << m) - 1)
    low = kept & ((1 << pivot) - 1)
    return low | (kept ^ low) << 1, mask >> m


def infiltrate_reference(spec) -> SetFunction:
    """The infiltrated table, one subset at a time on the ``Fraction``
    values: each result mask split into its host and guest parts."""
    ground = spec.result_ground()
    pivot, m = spec.host.ground.index(spec.pivot), spec.host.ground.n - 1
    values = []
    for a in ground.subsets():
        host_mask, guest_mask = _split(a, pivot, m)
        direct = spec.host.values[host_mask] + spec.guest.values[guest_mask]
        swallow = spec.host.values[host_mask | 1 << pivot]
        values.append(min(direct, swallow))
    return SetFunction(ground, values)


def nested_conditions_reference(lattice, mu) -> tuple:
    """(C2, C*) verdicts, each from its own scan over every ordered pair
    i != j of member indices with Zi inside Zj, in index order."""
    members, ranks, k = lattice.members, lattice.ranks, len(lattice)
    nested = [
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j and members[i] & ~members[j] == 0
    ]

    def first(name, fails):
        for i, j in nested:
            diff = ranks[j] - ranks[i]
            gap = mu(members[j] & ~members[i])
            failed = fails(diff, gap)
            if failed:
                lhs, relation, rhs = failed
                return Verdict(False, Witness(name, (members[i], members[j]), lhs, relation, rhs))
        return Verdict(True)

    def c2(diff, gap):
        if diff < 0:
            return diff, ">=", Fraction(0)
        if diff > gap:
            return diff, "<=", gap
        return None

    def cstar(diff, gap):
        if diff <= 0:
            return diff, ">", Fraction(0)
        if diff >= gap:
            return diff, "<", gap
        return None

    return first("C2", c2), first("C*", cstar)


def check_conditions_reference(lattice, mu) -> ConditionReport:
    """The full report from the dense measure table: C2 and C* as in
    ``nested_conditions_reference``, C3 over every pair i < j of member
    indices, comparable ones included, and the per-member and per-element
    conditions in member and element order."""
    table = mu.table()
    members, ranks, k = lattice.members, lattice.ranks, len(lattice)
    zero = Fraction(0)

    def verdict(witness):
        return Verdict(witness is None, witness)

    c1 = None if ranks[0] == 0 else Witness("C1", (members[0],), ranks[0], "==", zero)
    c2, cstar = nested_conditions_reference(lattice, mu)

    def first_c3():
        for i in range(k):
            for j in range(i + 1, k):
                z1, z2 = members[i], members[j]
                meet = lattice.meet(z1, z2)
                left = ranks[i] + ranks[j]
                right = (
                    lattice.rank_of(lattice.join(z1, z2))
                    + lattice.rank_of(meet)
                    + table[z1 & z2 & ~meet]
                )
                if left < right:
                    return Witness("C3", (z1, z2), left, ">=", right)
        return None

    c4 = next(
        (
            Witness("C4", (z,), mu.singleton[a], "<=", r, element=a)
            for z, r in zip(members, ranks)
            for a in range(lattice.ground.n)
            if z >> a & 1 and mu.singleton[a] > r
        ),
        None,
    )
    c5a = next(
        (Witness("C5a", (z,), r, ">", zero) for z, r in zip(members[1:], ranks[1:]) if r <= 0),
        None,
    )
    c5b = next(
        (
            Witness("C5b", (), mu.singleton[a], ">", zero, element=a)
            for a in range(lattice.ground.n)
            if not members[0] >> a & 1 and mu.singleton[a] <= 0
        ),
        None,
    )
    return ConditionReport(
        verdict(c1), c2, cstar, verdict(first_c3()), verdict(c4), verdict(c5a), verdict(c5b)
    )


def _relation_holds(lhs, relation, rhs) -> bool:
    return {
        "==": lhs == rhs,
        ">=": lhs >= rhs,
        ">": lhs > rhs,
        "<=": lhs <= rhs,
        "<": lhs < rhs,
    }[relation]


def condition_witness_violates(lattice, mu, witness) -> bool:
    """Recompute a condition witness from scratch and confirm it fails."""
    name = witness.condition
    if name == "C1":
        lhs = lattice.rank_of(witness.subsets[0])
        rhs = Fraction(0)
    elif name in ("C2", "C*"):
        z1, z2 = witness.subsets
        if z1 & ~z2:
            return False
        lhs = lattice.rank_of(z2) - lattice.rank_of(z1)
        rhs = Fraction(0) if witness.relation in (">=", ">") else mu(z2 & ~z1)
    elif name == "C3":
        z1, z2 = witness.subsets
        meet = lattice.meet(z1, z2)
        join = lattice.join(z1, z2)
        lhs = lattice.rank_of(z1) + lattice.rank_of(z2)
        rhs = lattice.rank_of(join) + lattice.rank_of(meet) + mu((z1 & z2) & ~meet)
    elif name == "C4":
        (z,) = witness.subsets
        if not z >> witness.element & 1:
            return False
        lhs = mu.singleton[witness.element]
        rhs = lattice.rank_of(z)
    elif name == "C5a":
        lhs = lattice.rank_of(witness.subsets[0])
        rhs = Fraction(0)
    elif name == "C5b":
        if lattice.bottom >> witness.element & 1:
            return False
        lhs = mu.singleton[witness.element]
        rhs = Fraction(0)
    else:
        return False
    return (
        lhs == witness.lhs
        and rhs == witness.rhs
        and not _relation_holds(lhs, witness.relation, rhs)
    )


def structure_properties(lattice, mu) -> tuple[set[str], set[str]]:
    """Check the supporting facts about one lattice-measure pair.

    Returns (applied, failed): the names of every fact whose hypothesis
    the pair satisfies, and the subset of those that did not hold.  Each
    fact is re-derived here straight from the convolution table.
    """
    rep = check_conditions(lattice, mu)
    r = convolve(lattice, mu)
    table = mu.table()
    g = lattice.ground
    members = lattice.members
    applied: set[str] = set()
    failed: set[str] = set()

    def record(name: str, ok: bool):
        applied.add(name)
        if not ok:
            failed.add(name)

    # if the minimum at A+Z+a is met by Z itself, adding a costs exactly mu(a)
    ok = True
    for z, rank in lattice.items():
        rest = g.full & ~z
        for a_set in submasks(rest):
            for i in range(g.n):
                bit = 1 << i
                if not rest & bit or a_set & bit:
                    continue
                whole = z | a_set | bit
                if r.values[whole] == rank + table[a_set | bit]:
                    ok = ok and r.values[whole] == r.values[z | a_set] + table[bit]
    record("argmin-step", ok)

    if rep.c1.passed:
        ok = True
        for i in range(g.n):
            bit = 1 << i
            if lattice.bottom & bit:
                ok = ok and r.values[bit] == 0
            else:
                ok = ok and r.values[bit] <= table[bit]
        record("bottom-zero", ok)

    if rep.c4.passed:
        record(
            "measure-floor",
            all(r.values[1 << i] >= table[1 << i] for i in range(g.n)),
        )

    if rep.c5a.passed and rep.c5b.passed:
        record(
            "positive-off-bottom",
            all(
                r.values[1 << i] > 0
                for i in range(g.n)
                if not lattice.bottom >> i & 1
            ),
        )

    if rep.c2.passed and rep.c3.passed:
        ok = True
        for a in members:
            for z in members:
                bound = lattice.rank_of(z) + table[a & ~z]
                ok = ok and lattice.rank_of(lattice.join(a, z)) <= bound
        record("join-bound", ok)
        record(
            "rank-agreement",
            all(r.values[m] == rank for m, rank in lattice.items()),
        )

    if rep.cstar.passed and rep.c3.passed:
        ok = True
        for a in members:
            for z in members:
                if not a & ~z:
                    continue
                bound = lattice.rank_of(z) + table[a & ~z]
                ok = ok and lattice.rank_of(lattice.join(a, z)) < bound
        record("join-bound-strict", ok)

    poly = check_polymatroid(r).is_polymatroid
    if rep.c3.passed:
        record("polymatroid-out", poly)

    if poly and rep.c1.passed and rep.c3.passed and rep.c5a.passed and rep.c5b.passed:
        member_set = set(members)
        record(
            "no-new-cyclic-flats",
            all(
                m in member_set
                for m in g.subsets()
                if is_cyclic_flat(r, m)
            ),
        )

    if poly and rep.cstar.passed and rep.c3.passed and rep.c4.passed and rep.c5b.passed:
        record(
            "members-are-cyclic-flats",
            all(is_cyclic_flat(r, m) for m in members),
        )

    return applied, failed


def submasks(mask: int):
    """All subsets of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def axiom_witness_violates(f: SetFunction, witness) -> bool:
    """Recompute a polymatroid axiom witness and confirm it fails."""
    if witness.axiom == "nonnegative":
        (a,) = witness.subsets
        return f.values[a] < 0
    if witness.axiom == "monotone":
        a, b = witness.subsets
        return a & ~b == 0 and f.values[a] > f.values[b]
    if witness.axiom == "submodular":
        (a,) = witness.subsets
        i, j = witness.elements
        left = f.values[a | 1 << i] + f.values[a | 1 << j]
        right = f.values[a | 1 << i | 1 << j] + f.values[a]
        return not a >> i & 1 and not a >> j & 1 and left < right
    return False


def block_union(emap: ExpansionMap, original_mask: int) -> int:
    """The expanded mask of the blocks of the original elements in
    ``original_mask``."""
    emap.original.check_mask(original_mask)
    out = 0
    for i in bits(original_mask):
        out |= emap.blocks[i]
    return out


def subset_key(ground: GroundSet, mask: int) -> str:
    """A subset's key in a rank file: its labels, sorted, joined by commas."""
    return ",".join(ground.sorted_labels(mask))
