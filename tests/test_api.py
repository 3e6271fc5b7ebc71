"""The public surface: exactly these names, each one importable, and one
refusal hierarchy under ``PolyflatsError``."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import polyflats
from polyflats import (
    BadParameters,
    GroundSet,
    InputError,
    LatticeError,
    Measure,
    NotALattice,
    PolyflatsError,
    RankedLattice,
    SetFunction,
    check_conditions,
    convolve,
    graphic_matroid,
    random_polymatroid,
    to_fraction,
    validate_lattice,
    verify_main_theorem,
)

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "polyflats").glob("*.py"))

PUBLIC = [
    "AxiomWitness",
    "BadParameters",
    "ConditionReport",
    "DuplicateElement",
    "ElementNotInLattice",
    "ExpansionMap",
    "GroundOverlap",
    "GroundSet",
    "GroundSetMismatch",
    "InfiltrationSpec",
    "InputError",
    "LatticeError",
    "MAX_GROUND_SIZE",
    "Measure",
    "NotAFlat",
    "NotALattice",
    "NotInteger",
    "PolyflatsError",
    "PolymatroidReport",
    "RankMismatch",
    "RankedLattice",
    "RecoveryMismatch",
    "RoundTripReport",
    "SetFunction",
    "Verdict",
    "Witness",
    "bits",
    "check_conditions",
    "check_polymatroid",
    "closure",
    "coloops",
    "convolve",
    "convolve_lattices",
    "cyclic_flats",
    "default_labels",
    "flats",
    "graphic_matroid",
    "helgason_expand",
    "helgason_lattice",
    "induced_measure",
    "infiltrate",
    "infiltrate_via_lattices",
    "is_cyclic_flat",
    "is_flat",
    "loops",
    "max_cyclic_flat",
    "random_polymatroid",
    "reconstruction_failure",
    "to_fraction",
    "uniform_matroid",
    "validate_lattice",
    "verify_main_theorem",
]


def test_public_names_are_pinned():
    # reference implementations used only by tests live in tests/_oracles.py
    assert polyflats.__all__ == PUBLIC
    # the Hasse relation is read only by the DOT writer
    assert not hasattr(RankedLattice, "covers")


def test_every_public_name_resolves():
    for name in polyflats.__all__:
        assert getattr(polyflats, name) is not None, name


class _BuiltinRaises(ast.NodeVisitor):
    """(function, exception) for each raise of a built-in exception class."""

    def __init__(self):
        self.where, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
        if isinstance(cls, type) and issubclass(cls, BaseException):
            self.found.append((self.where[-1], exc.id))


def test_the_library_raises_no_builtin_exception_but_the_float_refusal():
    # a refusal is a PolyflatsError; a bare ValueError or RuntimeError would
    # reach the command line as a bug
    found = []
    for path in SOURCES:
        visitor = _BuiltinRaises()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.name, *raised) for raised in visitor.found]
    assert len(SOURCES) > 5
    assert found == [("model.py", "to_fraction", "TypeError")]


def test_every_exception_class_is_a_refusal():
    assert issubclass(PolyflatsError, ValueError)
    defined = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        if names:  # importing __main__, which defines none, would run the CLI
            module = importlib.import_module(f"polyflats.{path.stem}")
            classes = [getattr(module, name) for name in names]
            defined += [cls for cls in classes if issubclass(cls, BaseException)]
    assert len(defined) == 13
    for cls in defined:
        assert issubclass(cls, PolyflatsError), cls


XY = GroundSet(("x", "y"))
# {x} and {y} have no common lower bound, and no common upper bound either
NO_MEET = [(0b01, 1), (0b10, 1)]
MEET_TEXT = "no unique lower bound for {x} and {y}"

# Malformed input to the public API, each with the refusal it must meet:
# the class and, where one is given, the exact text
MALFORMED = {
    "conditions on a family without a meet": (
        lambda: check_conditions(RankedLattice(XY, NO_MEET), Measure(XY, [1, 1])),
        NotALattice,
        MEET_TEXT,
    ),
    "round trip on a family without a meet": (
        lambda: verify_main_theorem(RankedLattice(XY, NO_MEET), Measure(XY, [1, 1])),
        NotALattice,
        MEET_TEXT,
    ),
    "meet of a pair without one": (
        lambda: RankedLattice(XY, NO_MEET).meet(0b01, 0b10), NotALattice, MEET_TEXT
    ),
    # the constructor meets the missing meet first, before a join is asked for
    "join of a pair without one": (
        lambda: RankedLattice(XY, NO_MEET).join(0b10, 0b01), NotALattice, MEET_TEXT
    ),
    "convolution of an empty family": (
        lambda: convolve(RankedLattice(XY, []), Measure(XY, [1, 1])),
        LatticeError,
        "empty family: a lattice needs at least one member",
    ),
    "a word for a rational": (lambda: to_fraction("x"), InputError, "bad rational 'x'"),
    "a zero denominator": (
        lambda: to_fraction("1/0"), InputError, "bad rational '1/0': zero denominator"
    ),
    "a word in a table": (lambda: SetFunction(XY, [0, 1, 1, "x"]), InputError, "bad rational 'x'"),
    "a zero denominator in a measure": (
        lambda: Measure(XY, ["1/0", 1]), InputError, "bad rational '1/0': zero denominator"
    ),
    "a word for a member's rank": (
        lambda: validate_lattice(XY, [(0, "x")]), InputError, "bad rational 'x'"
    ),
    "a mask that is not an int": (
        lambda: validate_lattice(XY, [("x", 0)]), PolyflatsError, "mask 'x' is not an int"
    ),
    "a lattice member that is not an int": (
        lambda: RankedLattice(XY, [("x", 0)]), PolyflatsError, "mask 'x' is not an int"
    ),
    "the rank of a mask that is not an int": (
        lambda: validate_lattice(XY, [(0, 0), (3, 2)]).rank_of([1]),
        PolyflatsError,
        "mask [1] is not an int",
    ),
    "the meet of a mask that is not an int": (
        lambda: validate_lattice(XY, [(0, 0), (3, 2)]).meet([1], 0),
        PolyflatsError,
        "mask [1] is not an int",
    ),
    "convolution of a member outside the ground set": (
        lambda: convolve(RankedLattice(XY, [(0, 0), (8, 1)]), Measure(XY, [1, 1])),
        PolyflatsError,
        "mask 8 is outside the ground set (n=2)",
    ),
    "conditions on a word for a member's rank": (
        lambda: check_conditions(RankedLattice(XY, [(0, "x")]), Measure(XY, [1, 1])),
        InputError,
        "bad rational 'x'",
    ),
    "no vertex count": (lambda: graphic_matroid(None, []), BadParameters, None),
    "a vertex count as text": (lambda: graphic_matroid("3", [(0, 1)]), BadParameters, None),
    "a fractional ground size": (lambda: random_polymatroid(1, 2.5), BadParameters, None),
    "a seed as text": (lambda: random_polymatroid("x", 3), BadParameters, None),
    "a zero rank cap": (lambda: random_polymatroid(1, 3, max_rank=0), BadParameters, None),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_to_the_library_is_refused(case):
    call, refusal, text = MALFORMED[case]
    with pytest.raises(PolyflatsError) as info:
        call()
    assert isinstance(info.value, refusal)
    if text is not None:
        assert str(info.value) == text
