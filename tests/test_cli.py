"""End-to-end command line runs through the argument parser."""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import polyflats
from polyflats import GroundSet, NotALattice, constructions, files, uniform_matroid
from polyflats.cli import main
from polyflats.files import dumps_canonical, polymatroid_to_doc, write_polymatroid


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(path, doc):
    path.write_text(dumps_canonical(doc), encoding="utf-8")
    return str(path)


def good_pair(tmp_path):
    lattice = write_doc(
        tmp_path / "lat.json",
        {
            "ground": ["x", "y"],
            "elements": [
                {"set": [], "rank": "0"},
                {"set": ["x", "y"], "rank": "3"},
            ],
        },
    )
    measure = write_doc(tmp_path / "mu.json", {"x": "2", "y": "2"})
    return lattice, measure


def test_gen_uniform_then_check(tmp_path, capsys):
    out = tmp_path / "u.json"
    code, _, _ = invoke(capsys, "gen", "uniform", "-k", "2", "-n", "3", "-o", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == polymatroid_to_doc(uniform_matroid(2, 3))
    code, text, _ = invoke(capsys, "check", str(out))
    assert code == 0
    assert "matroid: yes" in text
    assert "loops: {}" in text
    assert "coloops: {}" in text


def test_gen_writes_stdout_by_default(capsys):
    code, text, _ = invoke(capsys, "gen", "uniform", "-k", "1", "-n", "2")
    assert code == 0
    assert json.loads(text) == polymatroid_to_doc(uniform_matroid(1, 2))


def test_gen_graphic_matches_library(tmp_path, capsys):
    from polyflats import graphic_matroid

    out = tmp_path / "g.json"
    code, _, _ = invoke(
        capsys, "gen", "graphic", "--vertices", "3", "--edges", "0-1,1-2,0-2", "-o", str(out)
    )
    assert code == 0
    expected = polymatroid_to_doc(graphic_matroid(3, [(0, 1), (1, 2), (0, 2)]))
    assert json.loads(out.read_text()) == expected


def test_gen_graphic_rejects_bad_edge(capsys):
    code, _, err = invoke(capsys, "gen", "graphic", "--vertices", "2", "--edges", "0:1")
    assert code == 2
    assert "bad edge" in err


def test_gen_random_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = invoke(
            capsys, "gen", "random", "-n", "4", "--seed", "9", "-o", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_rejects_non_polymatroid(tmp_path, capsys):
    path = write_doc(
        tmp_path / "bad.json",
        {"ground": ["x", "y"], "rank": {"": "0", "x": "1", "y": "1", "x,y": "3"}},
    )
    code, text, _ = invoke(capsys, "check", path)
    assert code == 1
    assert "submodular: no" in text
    assert "witness:" in text


def test_cyclic_flats_writes_all_artifacts(tmp_path, capsys):
    src = tmp_path / "u.json"
    write_polymatroid(uniform_matroid(2, 3), src)
    lat = tmp_path / "lat.json"
    mu = tmp_path / "mu.json"
    dot = tmp_path / "lat.dot"
    code, text, _ = invoke(
        capsys,
        "cyclic-flats",
        str(src),
        "--lattice",
        str(lat),
        "--measure",
        str(mu),
        "--dot",
        str(dot),
    )
    assert code == 0
    assert "cyclic flats: 2" in text
    assert json.loads(lat.read_text())["elements"][1]["rank"] == "2"
    assert json.loads(mu.read_text()) == {"a": "1", "b": "1", "c": "1"}
    assert dot.read_text().startswith("digraph lattice {")


def test_cyclic_flats_refuses_non_polymatroid(tmp_path, capsys):
    path = write_doc(
        tmp_path / "bad.json",
        {"ground": ["x", "y"], "rank": {"": "0", "x": "1", "y": "1", "x,y": "3"}},
    )
    code, text, _ = invoke(capsys, "cyclic-flats", path)
    assert code == 1
    assert "not a polymatroid" in text


def test_axioms_pass_and_fail(tmp_path, capsys):
    lattice, measure = good_pair(tmp_path)
    code, text, _ = invoke(capsys, "axioms", lattice, measure)
    assert code == 0
    assert text.count("pass") == 7

    boundary = write_doc(
        tmp_path / "lat4.json",
        {
            "ground": ["x", "y"],
            "elements": [
                {"set": [], "rank": "0"},
                {"set": ["x", "y"], "rank": "4"},
            ],
        },
    )
    code, text, _ = invoke(capsys, "axioms", boundary, measure)
    assert code == 1
    assert "C*   FAIL" in text
    assert "needs 4 < 4" in text


def test_convolve_round_trips_byte_identically(tmp_path, capsys):
    src = tmp_path / "u.json"
    write_polymatroid(uniform_matroid(2, 3), src)
    lat = tmp_path / "lat.json"
    mu = tmp_path / "mu.json"
    invoke(capsys, "cyclic-flats", str(src), "--lattice", str(lat), "--measure", str(mu))
    back = tmp_path / "back.json"
    code, _, _ = invoke(capsys, "convolve", str(lat), str(mu), "-o", str(back))
    assert code == 0
    assert back.read_bytes() == src.read_bytes()


def test_convolve_rejects_mismatched_measure(tmp_path, capsys):
    lattice, _ = good_pair(tmp_path)
    other = write_doc(tmp_path / "other.json", {"a": "1", "b": "1"})
    code, _, err = invoke(capsys, "convolve", lattice, other)
    assert code == 2
    assert "error:" in err


def test_convolve2_covers_restricted_ground(tmp_path, capsys):
    small = write_doc(
        tmp_path / "small.json",
        {
            "ground": ["x", "y"],
            "elements": [{"set": [], "rank": "0"}, {"set": ["x"], "rank": "1"}],
        },
    )
    out = tmp_path / "out.json"
    code, _, _ = invoke(capsys, "convolve2", small, small, "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ground"] == ["x"]
    assert doc["rank"] == {"": "0", "x": "1"}


def test_convolve2_rejects_mismatched_grounds(tmp_path, capsys):
    first = write_doc(
        tmp_path / "f.json",
        {"ground": ["x"], "elements": [{"set": [], "rank": "0"}]},
    )
    second = write_doc(
        tmp_path / "s.json",
        {"ground": ["y"], "elements": [{"set": [], "rank": "0"}]},
    )
    code, _, err = invoke(capsys, "convolve2", first, second)
    assert code == 2
    assert "ground" in err


def test_verify_round_trip_output(tmp_path, capsys):
    lattice, measure = good_pair(tmp_path)
    code, text, _ = invoke(capsys, "verify", lattice, measure)
    assert code == 0
    assert "polymatroid: yes" in text
    assert "lattice recovered: yes" in text
    assert "measure recovered: yes" in text

    boundary = write_doc(
        tmp_path / "lat4.json",
        {
            "ground": ["x", "y"],
            "elements": [
                {"set": [], "rank": "0"},
                {"set": ["x", "y"], "rank": "4"},
            ],
        },
    )
    code, text, _ = invoke(capsys, "verify", boundary, measure)
    assert code == 1
    assert "lattice recovered: no" in text
    assert "mismatch: {x,y} is not a cyclic flat of the output" in text


def test_verify_notes_elements_outside_top(tmp_path, capsys):
    lattice = write_doc(
        tmp_path / "lat.json",
        {
            "ground": ["x", "y", "z"],
            "elements": [
                {"set": [], "rank": "0"},
                {"set": ["x", "y"], "rank": "3"},
            ],
        },
    )
    measure = write_doc(tmp_path / "mu.json", {"x": "2", "y": "2", "z": "1"})
    code, text, _ = invoke(capsys, "verify", lattice, measure)
    assert code == 0
    assert "outside top member: z" in text


def test_reconstruct_reports_exact(tmp_path, capsys):
    src = tmp_path / "u.json"
    write_polymatroid(uniform_matroid(2, 4), src)
    code, text, _ = invoke(capsys, "reconstruct", str(src))
    assert code == 0
    assert "reconstruction: exact" in text


def test_helgason_command(tmp_path, capsys):
    src = write_doc(
        tmp_path / "f.json",
        {"ground": ["x", "y"], "rank": {"": "0", "x": "2", "y": "1", "x,y": "2"}},
    )
    out = tmp_path / "factor.json"
    emap = tmp_path / "map.json"
    code, text, _ = invoke(capsys, "helgason", src, "-o", str(out), "--map", str(emap))
    assert code == 0
    assert "expanded ground: 3 elements" in text
    doc = json.loads(out.read_text())
    assert doc["ground"] == ["x#1", "x#2", "y#1"]
    assert doc["rank"][""] == "0"
    assert doc["rank"]["x#1,x#2,y#1"] == "2"
    assert json.loads(emap.read_text())["blocks"] == {
        "x": ["x#1", "x#2"],
        "y": ["y#1"],
    }


def test_helgason_rejects_fractional_input(tmp_path, capsys):
    src = write_doc(
        tmp_path / "half.json",
        {"ground": ["x"], "rank": {"": "0", "x": "1/2"}},
    )
    code, _, err = invoke(capsys, "helgason", src)
    assert code == 1
    assert "integer" in err


def test_helgason_refuses_an_expansion_past_the_cap_before_building_it(tmp_path, capsys):
    # a billion copies of x would take far more memory than the refusal
    src = write_doc(
        tmp_path / "big.json",
        {"ground": ["x", "y"], "rank": {"": "0", "x": "1000000000", "y": "1", "x,y": "1000000000"}},
    )
    code, text, err = invoke(capsys, "helgason", src, "-o", str(tmp_path / "out.json"))
    assert (code, text, err) == (1, "", "error: ground set has 1000000001 elements, limit is 20\n")
    assert not (tmp_path / "out.json").exists()


def test_labels_that_are_not_valid_unicode_are_usage_errors(tmp_path, capsys):
    # JSON reads the escape \ud800 as a lone surrogate, which no file can hold
    src = tmp_path / "s.json"
    src.write_text(
        '{"ground": ["a", "\\ud800"], '
        '"rank": {"": "0", "a": "1", "\\ud800": "1", "a,\\ud800": "2"}}',
        encoding="ascii",
    )
    lattice = tmp_path / "l.json"
    for argv in (["check", str(src)], ["cyclic-flats", str(src), "--lattice", str(lattice)]):
        code, text, err = invoke(capsys, *argv)
        assert (code, text) == (2, "")
        assert err.startswith("error: ") and "labels are valid Unicode" in err
    assert not lattice.exists()


def test_infiltrate_command(tmp_path, capsys):
    host = write_doc(
        tmp_path / "host.json",
        {"ground": ["m", "c"], "rank": {"": "0", "c": "1", "m": "1", "c,m": "2"}},
    )
    guest = write_doc(
        tmp_path / "guest.json",
        {"ground": ["p", "q"], "rank": {"": "0", "p": "1", "q": "1", "p,q": "1"}},
    )
    out = tmp_path / "out.json"
    code, _, _ = invoke(capsys, "infiltrate", host, "c", guest, "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ground"] == ["m", "p", "q"]
    assert doc["rank"]["m,p"] == "2"
    assert doc["rank"]["p,q"] == "1"
    assert doc["rank"]["m,p,q"] == "2"


def test_infiltrate_rejects_rank_mismatch(tmp_path, capsys):
    host = write_doc(
        tmp_path / "host.json",
        {"ground": ["m", "c"], "rank": {"": "0", "c": "1", "m": "1", "c,m": "2"}},
    )
    guest = write_doc(
        tmp_path / "guest.json",
        {"ground": ["p"], "rank": {"": "0", "p": "2"}},
    )
    code, _, err = invoke(capsys, "infiltrate", host, "c", guest)
    assert code == 1
    assert "error:" in err


def test_infiltrate_rejects_shared_labels(tmp_path, capsys):
    host = write_doc(
        tmp_path / "host.json",
        {"ground": ["m", "c"], "rank": {"": "0", "c": "1", "m": "1", "c,m": "2"}},
    )
    guest = write_doc(
        tmp_path / "guest.json",
        {"ground": ["m"], "rank": {"": "0", "m": "1"}},
    )
    code, _, err = invoke(capsys, "infiltrate", host, "c", guest)
    assert code == 1
    assert "share labels" in err


def test_infiltrate_rejects_unknown_pivot(tmp_path, capsys):
    host = write_doc(
        tmp_path / "host.json",
        {"ground": ["m", "c"], "rank": {"": "0", "c": "1", "m": "1", "c,m": "2"}},
    )
    guest = write_doc(
        tmp_path / "guest.json",
        {"ground": ["p"], "rank": {"": "0", "p": "1"}},
    )
    code, _, err = invoke(capsys, "infiltrate", host, "z", guest)
    assert code == 1
    assert "pivot" in err


def test_oversized_rationals_are_usage_errors(tmp_path, capsys):
    huge = "9" * 5000
    rank_file = write_doc(
        tmp_path / "big.json", {"ground": ["x"], "rank": {"": "0", "x": huge}}
    )
    code, _, err = invoke(capsys, "check", rank_file)
    assert code == 2
    assert "too many digits" in err

    lattice = write_doc(
        tmp_path / "lat.json",
        {"ground": ["x"], "elements": [{"set": [], "rank": "0"}, {"set": ["x"], "rank": huge}]},
    )
    measure = write_doc(tmp_path / "mu.json", {"x": "1"})
    code, _, err = invoke(capsys, "axioms", lattice, measure)
    assert code == 2
    assert "too many digits" in err


def test_oversized_computed_rational_is_a_usage_error(tmp_path, capsys):
    # each input rational is in range, but r(x,y) = rank(x) + mu(y) has a
    # denominator of about 4,400 digits
    lattice = write_doc(
        tmp_path / "lat.json",
        {
            "ground": ["x", "y"],
            "elements": [
                {"set": [], "rank": "0"},
                {"set": ["x"], "rank": f"1/{10**2200 + 1}"},
            ],
        },
    )
    measure = write_doc(tmp_path / "mu.json", {"x": "1", "y": f"1/{10**2199 + 3}"})
    out = tmp_path / "conv.json"
    code, text, err = invoke(capsys, "convolve", lattice, measure, "-o", str(out))
    assert code == 2
    assert text == ""
    assert err == "error: rational too large to write: too many digits\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["axioms", "verify"])
def test_oversized_witness_value_is_a_usage_error(tmp_path, capsys, command):
    # C3 at {x}, {y} cites rank(x) + rank(y), whose denominator has about
    # 4,400 digits
    lattice = write_doc(
        tmp_path / "lat.json",
        {
            "ground": ["x", "y", "z"],
            "elements": [
                {"set": [], "rank": "0"},
                {"set": ["x"], "rank": f"1/{10**2200 + 1}"},
                {"set": ["y"], "rank": f"1/{10**2199 + 3}"},
                {"set": ["x", "y", "z"], "rank": "5"},
            ],
        },
    )
    measure = write_doc(tmp_path / "mu.json", {"x": "1", "y": "1", "z": "1"})
    code, text, err = invoke(capsys, command, lattice, measure)
    assert code == 2
    assert text == ""
    assert err == "error: rational too large to write: too many digits\n"


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, err = invoke(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_invalid_lattice_file_is_a_usage_error(tmp_path, capsys):
    lattice = write_doc(
        tmp_path / "broken.json",
        {
            "ground": ["x", "y"],
            "elements": [
                {"set": ["x"], "rank": "1"},
                {"set": ["y"], "rank": "1"},
            ],
        },
    )
    measure = write_doc(tmp_path / "mu.json", {"x": "1", "y": "1"})
    code, _, err = invoke(capsys, "axioms", lattice, measure)
    assert code == 2
    assert "bound" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polyflats", "gen", "uniform", "-k", "1", "-n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == polymatroid_to_doc(uniform_matroid(1, 2))


def test_cli_matches_library_on_random_inputs(tmp_path, capsys):
    from polyflats import cyclic_flats, random_polymatroid
    from polyflats.files import read_polymatroid

    for seed in (1, 5, 11):
        f = random_polymatroid(seed, 4)
        src = tmp_path / f"r{seed}.json"
        write_polymatroid(f, src)
        lat = tmp_path / f"lat{seed}.json"
        mu = tmp_path / f"mu{seed}.json"
        code, _, _ = invoke(
            capsys, "cyclic-flats", str(src), "--lattice", str(lat), "--measure", str(mu)
        )
        assert code == 0
        back = tmp_path / f"back{seed}.json"
        code, _, _ = invoke(capsys, "convolve", str(lat), str(mu), "-o", str(back))
        assert code == 0
        assert read_polymatroid(back) == f
        code, _, _ = invoke(capsys, "verify", str(lat), str(mu))
        assert code == 0


def test_reconstruct_refuses_non_polymatroid(tmp_path, capsys):
    src = write_doc(tmp_path / "bad.json", {"ground": ["a"], "rank": {"": "1", "a": "0"}})
    code, text, _ = invoke(capsys, "reconstruct", src)
    assert code == 1
    assert text == "not a polymatroid: monotone fails at {}, {a}\n"


def test_options_do_not_leak_between_calls(tmp_path, capsys):
    # the parser is built once; an -o given to one call must not reach the next
    out = tmp_path / "u.json"
    code, text, _ = invoke(capsys, "gen", "uniform", "-k", "1", "-n", "2", "-o", str(out))
    assert (code, text) == (0, "")
    code, text, _ = invoke(capsys, "gen", "uniform", "-k", "1", "-n", "2")
    assert code == 0
    assert text == out.read_text(encoding="utf-8")


GOOD_LATTICE = (
    b'{"ground": ["x", "y"], "elements": '
    b'[{"set": [], "rank": "0"}, {"set": ["x", "y"], "rank": "3"}]}'
)
GOOD_MEASURE = b'{"x": "2", "y": "2"}'


@pytest.mark.parametrize(
    "command, contents, message",
    [
        ("check", [b'{"ground": ["\xe9"], "rank": {"": "0"}}'], "codec can't decode byte 0xe9"),
        ("check", [b"[" * 100_000 + b"]" * 100_000], "is not valid JSON"),
        (
            "check",
            [b'{"ground": ["a"], "rank": {"": "0", "a": "1", "a": "-1"}}'],
            "key 'a' repeats in an object",
        ),
        ("axioms", [GOOD_LATTICE, b'{"x": "1", "x": "0", "y": "1"}'], "key 'x' repeats"),
        (
            "axioms",
            [
                b'{"ground": ["x"], "elements": [{"set": [], "rank": "0", "rank": "5"}]}',
                b'{"x": "1"}',
            ],
            "key 'rank' repeats",
        ),
    ],
    ids=["non_utf8", "deep_nesting", "repeated_rank_key", "repeated_measure_key",
         "repeated_member_rank"],
)
def test_unreadable_documents_are_usage_errors(tmp_path, capsys, command, contents, message):
    paths = []
    for i, data in enumerate(contents):
        path = tmp_path / f"in{i}.json"
        path.write_bytes(data)
        paths.append(str(path))
    code, text, err = invoke(capsys, command, *paths)
    assert (code, text) == (2, "")
    assert err.startswith("error: ") and message in err
    assert any(path in err for path in paths)


# The exit code of each exception class the library exports, and of the two
# others the command line maps: FileFormatError (exported by polyflats.files)
# and OSError.
EXIT_CODES = {
    "BadParameters": 2,
    "DuplicateElement": 2,
    "ElementNotInLattice": 2,
    "FileFormatError": 2,
    "GroundSetMismatch": 2,
    "InputError": 2,
    "LatticeError": 2,
    "NotALattice": 2,
    "OSError": 2,
    "GroundOverlap": 1,
    "NotAFlat": 1,
    "NotInteger": 1,
    "PolyflatsError": 1,
    "RankMismatch": 1,
}


def exported_exceptions():
    exported = [getattr(polyflats, name) for name in polyflats.__all__]
    classes = [obj for obj in exported if isinstance(obj, type)]
    return [cls for cls in classes if issubclass(cls, BaseException)]


def raising(exc):
    def refuse(*args):
        raise exc

    return refuse


def test_the_exit_code_table_covers_every_exported_exception():
    names = {cls.__name__ for cls in exported_exceptions()}
    assert names | {"FileFormatError", "OSError"} == set(EXIT_CODES)


@pytest.mark.parametrize(
    "cls",
    exported_exceptions() + [files.FileFormatError, OSError],
    ids=lambda cls: cls.__name__,
)
def test_the_exception_class_sets_the_exit_code(monkeypatch, capsys, cls):
    if cls is NotALattice:
        exc = cls(GroundSet(("x", "y")), 1, 2, "no unique lower bound")
    else:
        exc = cls("refused")
    monkeypatch.setattr(files, "read_polymatroid", raising(exc))
    code, text, err = invoke(capsys, "check", "in.json")
    assert (code, text, err) == (EXIT_CODES[cls.__name__], "", f"error: {exc}\n")


@pytest.mark.parametrize("cls", [ValueError, TypeError, KeyError, RuntimeError])
def test_any_other_exception_escapes_as_a_bug(monkeypatch, capsys, cls):
    monkeypatch.setattr(files, "read_polymatroid", raising(cls("library bug")))
    with pytest.raises(cls, match="library bug"):
        main(["check", "in.json"])
    assert capsys.readouterr().err == ""


def test_an_exhausted_rejection_sampler_exits_1(monkeypatch, capsys):
    # every draw reported as failing the axioms, so all 20,000 are spent
    failing = SimpleNamespace(is_polymatroid=False)
    monkeypatch.setattr(constructions, "check_polymatroid", lambda f: failing)
    code, text, err = invoke(capsys, "gen", "random", "-n", "1", "--mode", "table")
    assert (code, text, err) == (1, "", "error: rejection sampling failed to find a table\n")
