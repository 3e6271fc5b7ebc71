"""The three seeded workloads: inputs, CLI pipelines and output checks.

Each workload is a fixed list of size classes with fixed instance counts, so
a seed changes the instances but never the mix.  An instance is a list of
steps (CLI argv lists, or one library call) run back to back, plus a check
that derives every expected output with ``exact`` and returns the problems
it finds.  Mixes are 25/40/15/20 per cent from the smallest class to the
largest, so the per-instance p50 falls mid-way into the second class and
the p90 mid-way into the largest, not on a step between two classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import exact
from exact import bits

LABELS = "abcdefghijklmnopqr"
GUEST_LABELS = "stuvwxyz"


@dataclass
class Instance:
    label: str
    size_class: str
    steps: list                 # argv lists; a callable is a library call
    outputs: list               # files the steps write, read back by the check
    check: object               # (results, files) -> list of problems


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _subset(rng, n):
    return sum(1 << i for i in rng.sample(range(n), rng.randint(2, n)))


def _terms(rng, n, count, weight):
    terms = []
    for _ in range(count):
        support = _subset(rng, n)
        terms.append((support, rng.randint(1, support.bit_count()), weight(rng)))
    return terms


def _int_weight(rng):
    return Fraction(rng.randint(1, 3))


def _rational_weight(rng):
    return Fraction(rng.randint(1, 5), rng.choice((2, 3, 4)))


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {str(got)[:200]!r}, want {str(want)[:200]!r}")


def _counts(classes, instances):
    """Per-class counts; ``instances`` rescales the default total."""
    total = sum(c[-1] for c in classes)
    if instances is None:
        return [c[-1] for c in classes]
    return [max(1, round(c[-1] * instances / total)) for c in classes]


# --- wide-tables ---------------------------------------------------------

WIDE_CLASSES = [("n6", 6, 25), ("n7", 7, 40), ("n8", 8, 15), ("n9", 9, 20)]
FAMILIES = ("uniform", "graphic", "int-sum", "rational-sum")
POSITIONS = (("early", 0.1), ("middle", 0.5), ("late", 0.9))
# Few cyclic flats keep the lattice layer negligible next to the 2^n scans.
WIDE_MAX_MEMBERS = 24


def _wide_table(rng, n, family):
    """A polymatroid of the family with at most WIDE_MAX_MEMBERS cyclic flats."""
    while True:
        ints, scale = _wide_candidate(rng, n, family)
        if len(exact.cyclic_flats(n, ints)) <= WIDE_MAX_MEMBERS:
            return exact.fractions(ints, scale)


def _wide_candidate(rng, n, family):
    if family == "uniform":
        k = rng.randint(2, n - 2)
        return exact.table(n, lambda a: min(a.bit_count(), k)), 1
    if family == "graphic":
        vertices = rng.randint(n // 2 + 1, n - 2)
        edges = [tuple(rng.sample(range(vertices), 2)) for _ in range(n)]
        return exact.graphic(n, vertices, edges), 1
    weight = _int_weight if family == "int-sum" else _rational_weight
    return exact.scaled_sum(n, _terms(rng, n, rng.randint(2, 3), weight))


def corrupt(n, values, where):
    """Lower one value to the largest value below it, so that only
    submodularity fails, at a subset near ``where`` (a share of 2^n) in scan
    order.  Returns the table and its first witness (A, i, j), or None when
    no such value exists (as for a scaled rank-1 uniform matroid)."""
    target = int(where * (1 << n))
    for s in sorted(range(1, 1 << n), key=lambda m: (abs(m - target), m)):
        floor = max(values[s ^ 1 << i] for i in bits(s))
        if floor == values[s]:
            continue
        table = list(values)
        table[s] = floor
        found = [
            (s ^ 1 << i, min(i, t), max(i, t))
            for i in bits(s)
            for t in range(n)
            if not s >> t & 1 and exact.submodular_violated(table, s ^ 1 << i, i, t)
        ]
        if found:
            return table, min(found)
    return None


def build_wide(seed, work: Path, instances, polyflats):
    out = []
    corrupted = 0
    for (name, n, _), count in zip(WIDE_CLASSES, _counts(WIDE_CLASSES, instances)):
        names = tuple(LABELS[:n])
        for j in range(count):
            label = f"{name}-{j}"
            rng = random.Random(f"wide-tables/{seed}/{label}")
            family = FAMILIES[j % 4]
            values = _wide_table(rng, n, family)
            d = work / label
            d.mkdir()
            if j % 4 == (j // 4) % 4:
                where, share = POSITIONS[corrupted % 3]
                corrupted += 1
                while (broken := corrupt(n, values, share)) is None:
                    values = _wide_table(rng, n, family)
                values, witness = broken
                f = _write(d / "F.json", exact.polymatroid_text(names, values))
                out.append(Instance(
                    f"{label}-{family}-corrupt-{where}", name,
                    [["check", f], ["reconstruct", f],
                     ["cyclic-flats", f, "--lattice", str(d / "L.json"), "--measure", str(d / "M.json")]],
                    [], _check_wide_corrupt(names, values, witness)))
                continue
            text = exact.polymatroid_text(names, values)
            f = _write(d / "F.json", text)
            lat, mea, back = (str(d / x) for x in ("L.json", "M.json", "B.json"))
            out.append(Instance(
                f"{label}-{family}", name,
                [["check", f], ["reconstruct", f],
                 ["cyclic-flats", f, "--lattice", lat, "--measure", mea],
                 ["convolve", lat, mea, "-o", back]],
                [lat, mea, back], _check_wide(names, values, text)))
    return out


def _check_wide(names, values, text):
    def check(results, files):
        n = len(names)
        members = exact.cyclic_flats(n, values)
        ranks = [values[z] for z in members]
        singles = [values[1 << i] for i in range(n)]
        problems = []
        want = [
            (0, exact.check_report(names, values)),
            (0, "reconstruction: exact\n"),
            (0, exact.cyclic_flats_report(names, members, ranks)),
            (0, ""),
        ]
        for step, (got, w) in enumerate(zip(results, want)):
            _expect(problems, f"step {step}", got[:2], w)
        _expect(problems, "lattice file", files[0], exact.lattice_text(names, members, ranks))
        _expect(problems, "measure file", files[1], exact.measure_text(names, singles))
        _expect(problems, "convolution file", files[2], text)
        return problems

    return check


def _check_wide_corrupt(names, values, witness):
    def check(results, files):
        problems = []
        refused = f"not a polymatroid: {exact.submodular_witness_text(names, witness)}\n"
        want = [(1, exact.check_report(names, values, witness)), (1, refused), (1, refused)]
        for step, (got, w) in enumerate(zip(results, want)):
            _expect(problems, f"step {step}", got[:2], w)
        if not exact.submodular_violated(values, *witness):
            problems.append(f"witness {witness} does not violate submodularity")
        return problems

    return check


# --- deep-lattices -------------------------------------------------------

# (class, n, fewest members, most members, summands, count)
DEEP_CLASSES = [
    ("n6-k8", 6, 8, 16, (5, 6), 25),
    ("n7-k12", 7, 12, 24, (5, 6), 40),
    ("n7-k24", 7, 24, 40, (5, 6), 15),
    ("n8-k24", 8, 24, 40, (5, 6), 20),
]


# Each class's member range is cut into this many equal strata, and the
# instances cycle through them, so the spread of lattice sizes within a
# class (and with it p50 and p90) does not depend on the seed.
DEEP_STRATA = 4
# A class draws at least this many candidates per instance, which fills its
# strata under almost every seed, so set-up does about the same work whatever
# the seed; the draw keeps going in the rare case it has not.
DEEP_DRAWS_PER_INSTANCE = 18


def _stratum(kmin, kmax, j):
    """The member range of a class's j-th instance.  Strata cross the
    perturbed instances (j % 4 == 1), so each stratum holds some."""
    s = (j + j // DEEP_STRATA) % DEEP_STRATA
    width = (kmax - kmin + 1) / DEEP_STRATA
    return kmin + round(s * width), kmin + round((s + 1) * width) - 1


def _deep_tables(rng, n, kmin, kmax, summands, count):
    """(values, members) for a class's instances in order, the j-th with a
    member count in its stratum, drawn from one candidate stream."""
    wanted = [_stratum(kmin, kmax, j) for j in range(count)]
    tables = [None] * count
    draws = 0
    while None in tables or draws < DEEP_DRAWS_PER_INSTANCE * count:
        draws += 1
        ints, scale = exact.scaled_sum(n, _terms(rng, n, rng.choice(summands), _rational_weight))
        members = exact.cyclic_flats(n, ints)
        for j, (lo, hi) in enumerate(wanted):
            if tables[j] is None and lo <= len(members) <= hi:
                tables[j] = exact.fractions(ints, scale), members
                break
    return tables


def build_deep(seed, work: Path, instances, polyflats):
    out = []
    for (name, n, kmin, kmax, summands, _), count in zip(DEEP_CLASSES, _counts(DEEP_CLASSES, instances)):
        names = tuple(LABELS[:n])
        tables = _deep_tables(random.Random(f"deep-lattices/{seed}/{name}"), n, kmin, kmax, summands, count)
        for j, (values, members) in enumerate(tables):
            label = f"{name}-{j}"
            rng = random.Random(f"deep-lattices/{seed}/{label}")
            ranks = [values[z] for z in members]
            singles = [values[1 << i] for i in range(n)]
            d = work / label
            d.mkdir()
            text = exact.polymatroid_text(names, values)
            f = _write(d / "F.json", text)
            lat, mea, dot, back = (str(d / x) for x in ("L.json", "M.json", "D.dot", "B.json"))
            pair = lat
            perturbed = None
            if j % 4 == 1:
                mu = exact.measure_table(n, singles)
                pos = rng.randrange(1, len(members))
                perturbed = list(ranks)
                perturbed[pos] = ranks[0] + mu[members[pos] & ~members[0]]
                if perturbed[pos] <= ranks[pos]:
                    raise ValueError(f"{label}: C* already fails before the perturbation")
                pair = _write(d / "P.json", exact.lattice_text(names, members, perturbed))
            out.append(Instance(
                f"{label}" + ("-perturbed" if perturbed else ""), name,
                [["cyclic-flats", f, "--lattice", lat, "--measure", mea, "--dot", dot],
                 ["axioms", pair, mea], ["verify", pair, mea], ["convolve", pair, mea, "-o", back]],
                [lat, mea, dot, back],
                _check_deep(names, values, text, members, ranks, singles, perturbed)))
    return out


def _check_deep(names, values, text, members, ranks, singles, perturbed):
    def check(results, files):
        n = len(names)
        problems = []
        _expect(problems, "cyclic-flats", results[0][:2], (0, exact.cyclic_flats_report(names, members, ranks)))
        _expect(problems, "lattice file", files[0], exact.lattice_text(names, members, ranks))
        _expect(problems, "measure file", files[1], exact.measure_text(names, singles))
        _expect(problems, "dot file", files[2], exact.dot_text(names, members, ranks))
        used = perturbed or ranks
        conditions = exact.condition_lines(names, members, used, singles)
        theorem = all(line.endswith(" pass") for line in conditions if not line.startswith("C2 "))
        if perturbed and theorem:
            problems.append("the raised rank broke no characterizing condition")
        _expect(problems, "axioms", results[1][:2], (0 if theorem else 1, "\n".join(conditions) + "\n"))

        back = exact.convolve(n, members, used, singles)
        poly = exact.is_polymatroid(n, back)
        lattice_ok = measure_ok = False
        if poly:
            found = exact.cyclic_flats(n, back)
            lattice_ok = found == members and [back[z] for z in found] == list(used)
            measure_ok = all(
                back[1 << i] == (0 if members[0] >> i & 1 else singles[i]) for i in range(n)
            )
        recovered = poly and lattice_ok and measure_ok
        flags = [f"polymatroid: {exact.YES[poly]}", f"lattice recovered: {exact.YES[lattice_ok]}",
                 f"measure recovered: {exact.YES[measure_ok]}"]
        outside = [names[i] for i in range(n) if not members[-1] >> i & 1]
        tail = [f"outside top member: {', '.join(outside)}"] if outside else []
        code, stdout = results[2][:2]
        got = stdout.splitlines()
        mismatches = [line for line in got[10:] if line.startswith("mismatch: ")]
        if bool(mismatches) == recovered:
            problems.append(f"verify lists {len(mismatches)} mismatches, recovered={recovered}")
        _expect(problems, "verify", (code, got), (0 if theorem and recovered else 1,
                                                   conditions + flags + mismatches + tail))
        _expect(problems, "convolve", results[3][:2], (0, ""))
        _expect(problems, "convolution file", files[3], exact.polymatroid_text(names, back))
        if not perturbed:
            _expect(problems, "round trip", files[3], text)
        return problems

    return check


# --- constructions -------------------------------------------------------

# (class, original n, copies, host n, guest n, count)
CONSTRUCTION_CLASSES = [
    ("h4c6-i4g3", 4, 6, 4, 3, 25),
    ("h4c7-i5g3", 4, 7, 5, 3, 40),
    ("h4c8-i5g3", 4, 8, 5, 3, 15),
    ("h5c9-i5g3", 5, 9, 5, 3, 20),
]


def _helgason_input(rng, n, copies):
    while True:
        ints, _ = exact.scaled_sum(n, _terms(rng, n, rng.randint(2, 3), _int_weight))
        if sum(max(1, ints[1 << i]) for i in range(n)) == copies:
            return exact.fractions(ints, 1)


def _expansion(names, values):
    expanded, blocks = [], []
    for i, name in enumerate(names):
        width = max(1, int(values[1 << i]))
        blocks.append(sum(1 << (len(expanded) + c) for c in range(width)))
        expanded += [f"{name}#{c}" for c in range(1, width + 1)]
    return expanded, blocks


def _infiltration_input(rng, m, g):
    host = exact.fractions(*exact.scaled_sum(m, _terms(rng, m, rng.randint(2, 3), _int_weight)))
    pivot = rng.choice([i for i in range(m) if host[1 << i] > 0])
    ints, _ = exact.scaled_sum(g, _terms(rng, g, rng.randint(2, 3), _rational_weight))
    # Rescale so that the guest's total rank is the pivot's host rank.
    return host, pivot, [host[1 << pivot] * v / ints[-1] for v in ints]


def _infiltration(m, pivot, host, guest):
    """r(A) = min(host(A&M) + guest(A&P), host((A&M) + pivot)) on the kept
    host elements followed by the guest's."""
    kept = [i for i in range(m) if i != pivot]
    g = len(guest).bit_length() - 1
    values = []
    for a in range(1 << (m - 1 + g)):
        h = sum(1 << kept[pos] for pos in bits(a & ((1 << (m - 1)) - 1)))
        values.append(min(host[h] + guest[a >> (m - 1)], host[h | 1 << pivot]))
    return values


def build_constructions(seed, work: Path, instances, polyflats):
    files, constructions = polyflats.files, polyflats.constructions
    out = []
    for (name, n, copies, m, g, _), count in zip(
        CONSTRUCTION_CLASSES, _counts(CONSTRUCTION_CLASSES, instances)
    ):
        for j in range(count):
            label = f"{name}-{j}"
            rng = random.Random(f"constructions/{seed}/{label}")
            names = tuple(LABELS[:n])
            values = _helgason_input(rng, n, copies)
            host, pivot, guest = _infiltration_input(rng, m, g)
            host_names, guest_names = tuple(LABELS[:m]), tuple(GUEST_LABELS[:g])
            d = work / label
            d.mkdir()
            f = _write(d / "F.json", exact.polymatroid_text(names, values))
            h = _write(d / "H.json", exact.polymatroid_text(host_names, host))
            gst = _write(d / "G.json", exact.polymatroid_text(guest_names, guest))
            x, p, r = (str(d / z) for z in ("X.json", "P.json", "R.json"))

            def via_lattices(h=h, gst=gst, pivot=host_names[pivot]):
                spec = constructions.InfiltrationSpec(
                    files.read_polymatroid(h), pivot, files.read_polymatroid(gst))
                return constructions.infiltrate_via_lattices(spec)

            out.append(Instance(
                label, name,
                [["helgason", f, "-o", x, "--map", p], ["check", x],
                 ["infiltrate", h, host_names[pivot], gst, "-o", r], ["check", r], via_lattices],
                [x, p, r],
                _check_constructions(names, values, host_names, pivot, host, guest_names, guest)))
    return out


def _check_constructions(names, values, host_names, pivot, host, guest_names, guest):
    def check(results, files):
        problems = []
        expanded, blocks = _expansion(names, values)
        _expect(problems, "helgason", results[0][:2], (0, f"expanded ground: {len(expanded)} elements\n"))
        block_doc = {
            "original": list(names), "expanded": expanded,
            "blocks": {name: sorted(expanded[b] for b in bits(blocks[i])) for i, name in enumerate(names)},
        }
        _expect(problems, "map file", files[1], exact.dumps(block_doc))
        xnames, xvalues = exact.parse_polymatroid(files[0])
        _expect(problems, "factor ground", list(xnames), expanded)
        report = exact.check_report(xnames, xvalues)
        _expect(problems, "check factor", results[1][:2], (0, report))
        if "matroid: yes" not in report:
            problems.append("factor is not a matroid")
        for a in range(1 << len(names)):
            union = sum(blocks[i] for i in bits(a))
            _expect(problems, f"factor rank on block union {a}", xvalues[union], values[a])
        kept = [host_names[i] for i in range(len(host_names)) if i != pivot]
        rnames = tuple(kept) + guest_names
        rvalues = _infiltration(len(host_names), pivot, host, guest)
        _expect(problems, "infiltrate", results[2][:2], (0, ""))
        _expect(problems, "infiltrated file", files[2], exact.polymatroid_text(rnames, rvalues))
        _expect(problems, "check infiltrated", results[3][:2], (0, exact.check_report(rnames, rvalues)))
        _expect(problems, "lattice route", results[4], (rnames, tuple(rvalues)))
        return problems

    return check


WORKLOADS = {
    "wide-tables": build_wide,
    "deep-lattices": build_deep,
    "constructions": build_constructions,
}
