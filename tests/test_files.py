"""JSON document shapes, canonical ordering, and DOT output."""

import json
import random
import re
import sys
from fractions import Fraction

import pytest

from polyflats import (
    GroundSet,
    InfiltrationSpec,
    Measure,
    NotALattice,
    SetFunction,
    check_polymatroid,
    convolve,
    cyclic_flats,
    infiltrate,
    reconstruction_failure,
    uniform_matroid,
    validate_lattice,
)
from polyflats import model
from polyflats.files import (
    FileFormatError,
    _KEPT_ORDER_BITS,
    _KEPT_ORDERS,
    _file_order,
    _from_rank_items,
    _ground_from_doc,
    _kept_order,
    _load,
    _ordered,
    dumps_canonical,
    expansion_to_doc,
    format_rational,
    lattice_dot,
    lattice_from_doc,
    lattice_to_doc,
    measure_from_doc,
    measure_to_doc,
    parse_rational,
    parse_subset_key,
    polymatroid_from_doc,
    polymatroid_text,
    polymatroid_to_doc,
    read_lattice,
    read_polymatroid,
    write_lattice,
    write_measure,
    write_polymatroid,
)

import _oracles
import corpus


def test_rational_formats():
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert format_rational(Fraction(-3)) == "-3"
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("0") == 0


@pytest.mark.parametrize(
    "bad",
    ["0.5", "1/0", "", " 1", "1 ", "a", "1/-2", None, 3, "1\n", "\u0661/\u0662", "\uff11"],
)
def test_rational_rejects_inexact_spellings(bad):
    with pytest.raises(FileFormatError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "text",
    ["7" * 5000, "-" + "7" * 5000, "1/" + "3" * 5000],
    ids=["integer", "negative", "denominator"],
)
def test_rational_refuses_too_many_digits(text):
    # beyond the interpreter's integer-string limit: a format error, not a
    # bare ValueError
    with pytest.raises(FileFormatError, match="too many digits"):
        parse_rational(text)


def test_format_rational_refuses_what_parse_rational_would():
    # the writer stops where the reader's integer-string limit stops, so no
    # file it writes is unreadable
    limit = sys.get_int_max_str_digits()
    for value in (Fraction(10 ** (limit - 1)), Fraction(-1, 10 ** (limit - 1))):
        assert parse_rational(format_rational(value)) == value
    for value in (
        Fraction(10**limit),
        Fraction(1, 10**limit),
        Fraction(1, 10**2200 + 1) + Fraction(1, 10**2199 + 3),
    ):
        with pytest.raises(FileFormatError, match="too many digits"):
            format_rational(value)


def test_subset_keys():
    g = GroundSet(("y", "x"))
    assert _oracles.subset_key(g, 0) == ""
    assert _oracles.subset_key(g, 0b11) == "x,y"
    assert parse_subset_key(g, "") == 0
    assert parse_subset_key(g, "x,y") == 0b11
    assert parse_subset_key(g, "y,x") == 0b11
    with pytest.raises(FileFormatError, match="unknown"):
        parse_subset_key(g, "x,z")
    with pytest.raises(FileFormatError, match="repeats"):
        parse_subset_key(g, "x,x")
    with pytest.raises(FileFormatError):
        parse_subset_key(g, 7)


def test_polymatroid_doc_round_trip():
    f = uniform_matroid(2, 3)
    doc = polymatroid_to_doc(f)
    assert doc["ground"] == ["a", "b", "c"]
    assert list(doc["rank"]) == ["", "a", "b", "c", "a,b", "a,c", "b,c", "a,b,c"]
    assert polymatroid_from_doc(doc) == f


def test_polymatroid_doc_errors():
    base = polymatroid_to_doc(uniform_matroid(1, 2))
    with pytest.raises(FileFormatError, match="ground"):
        polymatroid_from_doc({"rank": {}})
    with pytest.raises(FileFormatError, match="rank"):
        polymatroid_from_doc({"ground": ["a"]})
    doc = {"ground": ["a", "b"], "rank": dict(base["rank"])}
    del doc["rank"]["a,b"]
    with pytest.raises(FileFormatError, match="missing subset 'a,b'"):
        polymatroid_from_doc(doc)
    # the first missing subset in file order (by labels), not in mask order
    with pytest.raises(FileFormatError, match="missing subset 'x'"):
        polymatroid_from_doc({"ground": ["y", "x"], "rank": {"": "0", "x,y": "1"}})
    doc = {"ground": ["a", "b"], "rank": dict(base["rank"])}
    doc["rank"]["b,a"] = "1"
    with pytest.raises(FileFormatError, match="repeats an earlier subset"):
        polymatroid_from_doc(doc)
    with pytest.raises(FileFormatError, match="comma"):
        polymatroid_from_doc({"ground": ["a,b"], "rank": {}})
    with pytest.raises(FileFormatError, match="too many digits"):
        polymatroid_from_doc({"ground": ["x"], "rank": {"": "0", "x": "9" * 5000}})


# Labels that sort awkwardly: "!" before ",", "10" before "9", "a" before
# "a1", and non-ASCII, quote, backslash, space and control characters
AWKWARD_LABELS = (
    "!", "10", "9", "a", "a1", "\u00e9", '"', "\\q", "x y", "b", "Z", "e2", "e10", "\t", "\n", "\x01",
)


def awkward_tables(count: int = 320):
    """Seeded tables on n = 0..8 labels drawn from ``AWKWARD_LABELS``, with
    values from a short list (so they repeat) and an occasional odd one."""
    rng = random.Random(9)
    common = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-7, 3)]
    for i in range(count):
        ground = GroundSet(tuple(rng.sample(AWKWARD_LABELS, i % 9)))
        yield SetFunction(ground, [
            rng.choice(common) if rng.random() < 0.9 else Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            for _ in ground.subsets()
        ])


def test_writer_matches_the_reference_codec(all_functions):
    sizes = set()
    for f in (*all_functions, *awkward_tables()):
        doc = polymatroid_to_doc(f)
        expected = _oracles.polymatroid_to_doc_reference(f)
        assert doc == expected
        assert list(doc["rank"]) == list(expected["rank"])
        assert polymatroid_text(f) == json.dumps(expected, indent=2, ensure_ascii=False) + "\n"
        g = f.ground
        order = _file_order(g)
        ordered = _ordered(g, g.subsets())
        assert order.masks == [m for _, m in ordered]
        assert order.keys == [",".join(labels) for labels, _ in ordered]
        assert order.quoted == [json.dumps(key, ensure_ascii=False)[1:-1] for key in order.keys]
        assert polymatroid_from_doc(doc) == f
        sizes.add(g.n)
    assert sizes >= set(range(9))


def _outcome(read, doc):
    try:
        f = read(doc)
    except Exception as exc:  # the refusal itself is what is compared
        return type(exc), str(exc)
    return f.ground.names, f.values


def _mutations(doc, rng):
    """Copies of a rank document, each broken or reordered in one way."""
    ground, items = doc["ground"], list(doc["rank"].items())

    def with_items(new_items):
        return {"ground": ground, "rank": dict(new_items)}

    picks = rng.sample(range(len(items)), min(3, len(items)))
    for at in picks:
        key, text = items[at]
        yield with_items(items[:at] + items[at + 1:])
        for value in ("1.5", "x", "1/0", 3, None, [1]):
            yield with_items(items[:at] + [(key, value)] + items[at + 1:])
        unknown = f"{key},zz" if key else "zz"
        yield with_items(items[:at] + [(unknown, text)] + items[at + 1:])
        labels = key.split(",")
        if len(labels) > 1:
            flipped = ",".join(reversed(labels))
            yield with_items(items[:at] + [(flipped, text)] + items[at + 1:])
            yield with_items(items + [(flipped, text)])
        if key:
            yield with_items(items[:at] + [(f"{key},{labels[0]}", text)] + items[at + 1:])
    kept = sorted(rng.sample(range(len(items)), len(items) // 2))
    yield with_items([items[at] for at in kept])
    yield with_items(items[::-1])
    shuffled = items[:]
    rng.shuffle(shuffled)
    yield with_items(shuffled)
    yield with_items(items + [("", "0")])
    yield with_items(items + [(None, "0")])


def test_reader_matches_the_reference_codec_on_mutated_documents():
    rng = random.Random(4)
    compared = 0
    for f in awkward_tables(120):
        for doc in (polymatroid_to_doc(f), *_mutations(polymatroid_to_doc(f), rng)):
            assert _outcome(polymatroid_from_doc, doc) == _outcome(
                _oracles.polymatroid_from_doc_reference, doc
            )
            compared += 1
    assert compared > 2000


def _slow_read(doc):
    """The reader's loop over the keys one at a time, which the fast path
    leaves to documents out of file order or with a bad value."""
    return _from_rank_items(_ground_from_doc(doc), doc["rank"])


def _bad_values(doc):
    """Copies of a rank document in file order with one or two bad values,
    at its first key, its last one or both."""
    items = list(doc["rank"].items())
    last = len(items) - 1
    for bad in ("1.5", "x", "1/0", "9" * 5000, 3, None, True, [1], {"p": 1}):
        for at in {0, last}:
            changed = items[:]
            changed[at] = (items[at][0], bad)
            yield {"ground": doc["ground"], "rank": dict(changed)}
        if last:
            changed = items[:]
            changed[0], changed[last] = (items[0][0], bad), (items[last][0], "2/0")
            yield {"ground": doc["ground"], "rank": dict(changed)}


def test_fast_and_slow_reader_paths_agree():
    compared = refused = 0
    for f in awkward_tables(90):
        doc = polymatroid_to_doc(f)
        fast, slow = polymatroid_from_doc(doc), _slow_read(doc)
        assert fast == slow == f
        assert fast._held == slow._held
        for bad in _bad_values(doc):
            assert list(bad["rank"]) == _file_order(f.ground).keys
            outcome = _outcome(polymatroid_from_doc, bad)
            assert outcome == _outcome(_slow_read, bad)
            assert outcome == _outcome(_oracles.polymatroid_from_doc_reference, bad)
            assert outcome[0] is FileFormatError
            compared += 1
            refused += "'2/0'" in outcome[1]
    # a bad first value is named before a bad last one
    assert compared > 1500 and refused == 0


def test_codec_past_the_kept_orders():
    # a ground too large for the memo runs on fresh iterators
    rng = random.Random(13)
    ground = GroundSet(tuple(rng.sample(AWKWARD_LABELS, _KEPT_ORDER_BITS + 1)))
    f = SetFunction(ground, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in ground.subsets()])
    expected = _oracles.polymatroid_to_doc_reference(f)
    assert polymatroid_to_doc(f) == expected
    assert polymatroid_text(f) == json.dumps(expected, indent=2, ensure_ascii=False) + "\n"
    assert polymatroid_from_doc(expected) == _slow_read(expected) == f
    last = list(expected["rank"])[-1]
    bad = {"ground": expected["ground"], "rank": {**expected["rank"], last: "1/0"}}
    assert _outcome(polymatroid_from_doc, bad) == _outcome(_slow_read, bad)


def test_file_order_memo_keeps_only_small_grounds():
    small = GroundSet(tuple(f"s{i}" for i in range(_KEPT_ORDER_BITS)))
    large = GroundSet(tuple(f"l{i}" for i in range(_KEPT_ORDER_BITS + 1)))
    _kept_order.cache_clear()
    kept = _file_order(small)
    assert _file_order(small) is kept
    assert _kept_order.cache_info()[:2] == (1, 1)  # one hit, one miss
    order = _file_order(large)
    assert sum(1 for _ in order.keys) == 1 << (_KEPT_ORDER_BITS + 1)
    assert list(_file_order(large).masks) == [m for _, m in _ordered(large, large.subsets())]
    # the large ground never reached the memo
    assert _kept_order.cache_info()[:2] == (1, 1)
    for n in range(2 * _KEPT_ORDERS):
        _file_order(GroundSet(tuple(f"m{i}" for i in range(n))))
        # used again after each other ground, so never the one evicted
        assert _file_order(small) is kept
    info = _kept_order.cache_info()
    assert info.maxsize == info.currsize == _KEPT_ORDERS


def test_rank_file_round_trip_at_n16(tmp_path):
    f = corpus.rational_sum_table(16, 16)
    first, second = tmp_path / "f1.json", tmp_path / "f2.json"
    write_polymatroid(f, first)
    back = read_polymatroid(first)
    assert back == f
    write_polymatroid(back, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"a": 1, "b": 2, "b": 3, "a": 4}', "key 'b' repeats in an object"),
        (
            '{"ground": ["x"], "elements": [{"set": [], "rank": "0"},'
            ' {"rank": "1", "set": ["x"], "set": ["x"], "rank": "2"}]}',
            "key 'set' repeats in an object",
        ),
    ],
    ids=["top_level", "lattice_member"],
)
def test_load_names_the_first_repeated_key(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {message}$"):
        _load(path)


@pytest.mark.parametrize(
    "labels, message",
    [
        ("ab", "'ground' must be a list of labels"),
        (["a", 1], "'ground' must be a list of labels"),
        (["a", "b", "a"], "duplicate element label 'a'"),
        ([f"e{i}" for i in range(21)], "ground set has 21 elements, limit is 20"),
    ],
    ids=["string", "number", "repeated", "over_limit"],
)
def test_ground_refusals(labels, message):
    with pytest.raises(FileFormatError, match=message):
        polymatroid_from_doc({"ground": labels, "rank": {}})


def test_writers_refuse_labels_with_commas():
    g = GroundSet(("a,b", "c"))
    with pytest.raises(FileFormatError, match="contains a comma; not serializable"):
        polymatroid_to_doc(SetFunction(g, [0, 1, 1, 1]))
    with pytest.raises(FileFormatError, match="contains a comma; not serializable"):
        lattice_to_doc(validate_lattice(g, [(0, 0), (0b11, 1)]))


def test_polymatroid_file_round_trip_is_byte_identical(tmp_path):
    f = uniform_matroid(2, 4)
    first = tmp_path / "f1.json"
    second = tmp_path / "f2.json"
    write_polymatroid(f, first)
    write_polymatroid(read_polymatroid(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().endswith("\n")


def test_rank_files_read_to_their_held_pairs_without_a_second_reduction(tmp_path, monkeypatch):
    # the keyed builder scales each distinct value once to a pair in lowest
    # terms, so neither reader path hands its pair to _lowest_terms again;
    # the tables cover packed ints, ints past 512 bits and the Fraction form
    wide = corpus.large_primes(5)
    tables = [
        *corpus.full_corpus()[::3],
        *map(corpus.coprime_denominator_table, range(4, 8)),
        corpus.small_denominator_table(6),
        SetFunction(GroundSet(("a", "b", "c")), [Fraction(m, wide[m % 5]) for m in range(8)]),
    ]
    paths = []
    for i, f in enumerate(tables):
        paths.append(tmp_path / f"{i}.json")
        write_polymatroid(f, paths[-1])
    assert {corpus.kernel_path(f) for f in tables} >= {"packed8", "fractions"}
    assert any(f._held[0] and f._held[0].bit_length() > 512 for f in tables)

    def refuse(d, scaled):
        raise AssertionError("a rank file's pair was reduced again")

    monkeypatch.setattr(model, "_lowest_terms", refuse)
    for f, path in zip(tables, paths):
        doc = json.loads(path.read_text(encoding="utf-8"))
        reversed_doc = {"ground": doc["ground"], "rank": dict(reversed(doc["rank"].items()))}
        assert read_polymatroid(path)._held == f._held
        assert polymatroid_from_doc(reversed_doc)._held == f._held


def test_tables_read_from_files_never_build_their_fraction_view(tmp_path, monkeypatch):
    scaled = corpus.scale_function
    host = scaled(uniform_matroid(2, 3), Fraction(1, 2))
    guest = corpus.relabel(scaled(uniform_matroid(1, 2), Fraction(1, 2)), ("p", "q"))
    tables = [*corpus.full_corpus()[::7], corpus.coprime_denominator_table(7), host, guest]
    paths = []
    for i, f in enumerate(tables):
        paths.append(tmp_path / f"{i}.json")
        write_polymatroid(f, paths[-1])
    expected = [
        (check_polymatroid(f), cyclic_flats(f), reconstruction_failure(f)) for f in tables
    ]
    infiltrated = infiltrate(InfiltrationSpec(host, "a", guest))

    def refuse(self):
        raise AssertionError("the Fraction view was built")

    monkeypatch.setattr(SetFunction, "values", property(refuse))
    read = [read_polymatroid(path) for path in paths]
    for f, g, (report, flats, failure) in zip(tables, read, expected):
        assert g == f and hash(g) == hash(f)
        assert check_polymatroid(g) == report and cyclic_flats(g) == flats
        assert convolve(*flats) == g and reconstruction_failure(g) == failure
    spec = InfiltrationSpec(read[-2], "a", read[-1])
    assert infiltrate(spec) == infiltrated


def test_lattice_doc_round_trip(tmp_path):
    lattice, _ = cyclic_flats(uniform_matroid(2, 3))
    doc = lattice_to_doc(lattice)
    assert doc["elements"][0] == {"set": [], "rank": "0"}
    assert doc["elements"][1] == {"set": ["a", "b", "c"], "rank": "2"}
    assert lattice_from_doc(doc) == lattice
    path = tmp_path / "lat.json"
    write_lattice(lattice, path)
    assert read_lattice(path) == lattice
    write_lattice(read_lattice(path), tmp_path / "lat2.json")
    assert path.read_bytes() == (tmp_path / "lat2.json").read_bytes()


def test_lattice_doc_validates_the_family():
    doc = {
        "ground": ["x", "y"],
        "elements": [
            {"set": ["x"], "rank": "1"},
            {"set": ["y"], "rank": "1"},
            {"set": ["x", "y"], "rank": "2"},
        ],
    }
    with pytest.raises(NotALattice):
        lattice_from_doc(doc)
    with pytest.raises(FileFormatError, match="unknown element"):
        lattice_from_doc({"ground": ["x"], "elements": [{"set": ["z"], "rank": "0"}]})
    with pytest.raises(FileFormatError, match="bad lattice element"):
        lattice_from_doc({"ground": ["x"], "elements": [{"set": ["x"]}]})
    with pytest.raises(FileFormatError, match="elements"):
        lattice_from_doc({"ground": ["x"]})
    with pytest.raises(FileFormatError, match="bad member set 'x'"):
        lattice_from_doc({"ground": ["x"], "elements": [{"set": "x", "rank": "0"}]})
    with pytest.raises(FileFormatError, match="element 'x' repeats in member"):
        lattice_from_doc({"ground": ["x"], "elements": [{"set": ["x", "x"], "rank": "0"}]})
    with pytest.raises(FileFormatError, match=r"unknown element \['x'\] in member"):
        lattice_from_doc({"ground": ["x"], "elements": [{"set": [["x"]], "rank": "0"}]})


def test_a_plain_value_error_in_a_member_escapes_the_lattice_reader(monkeypatch):
    # only the ground set's refusals are rewrapped as malformed input; a bare
    # ValueError is a bug and must not read as a bad file
    def broken(self, labels):
        raise ValueError("library bug")

    monkeypatch.setattr(GroundSet, "subset", broken)
    with pytest.raises(ValueError, match="^library bug$") as info:
        lattice_from_doc({"ground": ["x"], "elements": [{"set": ["x"], "rank": "0"}]})
    assert type(info.value) is ValueError


def test_measure_doc_round_trip():
    g = GroundSet(("x", "y"))
    mu = Measure(g, [Fraction(1, 2), Fraction(3)])
    doc = measure_to_doc(mu)
    assert doc == {"x": "1/2", "y": "3"}
    back = measure_from_doc(doc, g)
    assert back.singleton == mu.singleton


def test_measure_doc_errors():
    g = GroundSet(("x", "y"))
    with pytest.raises(FileFormatError, match="unknown"):
        measure_from_doc({"x": "1", "y": "1", "z": "1"}, g)
    with pytest.raises(FileFormatError, match="misses"):
        measure_from_doc({"x": "1"}, g)
    with pytest.raises(FileFormatError, match="negative"):
        measure_from_doc({"x": "-1", "y": "0"}, g)
    with pytest.raises(FileFormatError):
        measure_from_doc(["x"], g)


def test_expansion_doc_shape():
    from polyflats import helgason_expand

    f = SetFunction(GroundSet(("x", "y")), [Fraction(v) for v in (0, 2, 1, 2)])
    _, emap = helgason_expand(f)
    doc = expansion_to_doc(emap)
    assert doc == {
        "original": ["x", "y"],
        "expanded": ["x#1", "x#2", "y#1"],
        "blocks": {"x": ["x#1", "x#2"], "y": ["y#1"]},
    }


def test_read_errors(tmp_path):
    with pytest.raises(FileFormatError, match="cannot read"):
        read_polymatroid(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FileFormatError, match="not valid JSON"):
        read_polymatroid(bad)
    # a bare number literal too long for int() is refused while parsing JSON
    bad.write_text('{"ground": [], "rank": {"": ' + "1" * 5000 + "}}", encoding="utf-8")
    with pytest.raises(FileFormatError, match="not valid JSON"):
        read_polymatroid(bad)


def test_dumps_canonical_is_stable():
    doc = polymatroid_to_doc(uniform_matroid(1, 2))
    assert dumps_canonical(doc) == dumps_canonical(doc)
    assert dumps_canonical(doc).endswith("\n")


def test_dot_chain_exact_text():
    g = GroundSet(("x", "y"))
    lattice = validate_lattice(g, [(0, 0), (0b11, 3)])
    assert lattice_dot(lattice) == (
        "digraph lattice {\n"
        "  rankdir=BT;\n"
        '  n0 [label="{}\\n0"];\n'
        '  n1 [label="{x,y}\\n3"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


def test_dot_diamond_has_four_cover_edges():
    g = GroundSet(("x", "y"))
    lattice = validate_lattice(g, [(0, 0), (0b01, 1), (0b10, 1), (0b11, 2)])
    text = lattice_dot(lattice)
    edges = [line for line in text.splitlines() if "->" in line]
    assert len(edges) == 4
    # no transitive bottom-to-top edge
    assert "  n0 -> n3;" not in text


def test_dot_escapes_quotes_and_backslashes_in_labels():
    g = GroundSet(('a"b', "c\\d"))
    lattice = validate_lattice(g, [(0, 0), (0b11, 1)])
    assert lattice_dot(lattice) == (
        "digraph lattice {\n"
        "  rankdir=BT;\n"
        '  n0 [label="{}\\n0"];\n'
        '  n1 [label="{a\\"b,c\\\\d}\\n1"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )
