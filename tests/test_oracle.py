"""Sanity checks on the slow reference implementations themselves."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from moranset.branchtree import Branch
from moranset.errors import BudgetExceededError, DomainError
from moranset.oracle import (cantor3_dim, dim1_binary_s, naive_box_count,
                             oracle_level, oracle_mu)
from moranset.reconstruct import first_reconstruct
from moranset.qsmap import (AffineMap, CompositionMap, IdentityMap,
                            ImageBranch, PiecewiseLinearMap, PowerMap)
from moranset.specs import preset
from moranset.tree import Interval, Node, build_level


def test_naive_box_count_cantor3():
    intervals = oracle_level(preset("cantor3"), 6)
    res = naive_box_count(intervals, Fraction(1, 3 ** 5))
    assert res.value == 32


def test_naive_box_count_unit_interval():
    res = naive_box_count([(Fraction(0), Fraction(1))], Fraction(1, 10))
    assert res.value == 10


def test_naive_box_count_errors():
    with pytest.raises(DomainError):
        naive_box_count([], Fraction(1, 10))
    with pytest.raises(DomainError):
        naive_box_count([(Fraction(0), Fraction(1))], Fraction(0))


def test_oracle_caps():
    with pytest.raises(BudgetExceededError):
        oracle_level(preset("wide10"), 6)
    many = [(Fraction(i), Fraction(i) + 1) for i in range(10 ** 5 + 1)]
    with pytest.raises(BudgetExceededError):
        naive_box_count(many, Fraction(1))


@pytest.mark.parametrize("name,k", [("cantor3", 5), ("wide10", 3),
                                    ("skew10", 3), ("padded2", 5)])
def test_oracle_level_matches_builder(name, k):
    spec = preset(name)
    got = oracle_level(spec, k)
    want = [(n.lo, n.hi) for n in build_level(spec, k).nodes]
    assert got == want


def test_oracle_trimmed_matches_reconstruction():
    spec = preset("padded2")
    star = first_reconstruct(spec, 4)
    got = oracle_level(spec, 3, trimmed=True)
    want = [(n.lo, n.hi) for n in star.level(3).nodes]
    assert got == want


def test_oracle_mu():
    stars = oracle_level(preset("cantor3"), 3, trimmed=True)
    assert oracle_mu(stars, Fraction(0), Fraction(1)) == 1
    assert oracle_mu(stars, Fraction(0), Fraction(1, 3)) == Fraction(1, 2)
    assert oracle_mu(stars, Fraction(4, 9), Fraction(5, 9)) == 0


def test_closed_forms():
    assert abs(cantor3_dim() - math.log(2) / math.log(3)) < 1e-15
    s = dim1_binary_s(3)
    assert len(s) == 3
    assert all(0 < v < 1 for v in s)
    assert s[0] < s[1] < s[2]


PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "moranset"


def _package_imports(path: Path) -> set[str]:
    """Names of the moranset modules a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".", 1)[1] for a in node.names
                         if a.name.startswith("moranset."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not (module == "moranset"
                                        or module.startswith("moranset.")):
                continue
            module = module.removeprefix("moranset").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found


def _defined_in(path: Path) -> set[str]:
    """The names of the functions and classes that `path` defines."""
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_oracle_stays_independent():
    """The oracle is a cross-check only if it shares no code with the fast
    paths: nothing imports it, and it imports only errors and specs.  Its
    `mu_d` raises `Fraction` lengths by `mpmath.power` and calls nothing the
    fast path's `qsmap` or `dimension` defines (integer lengths, weights,
    roots, ratios); its hierarchy, statistics and certificate twins call
    nothing that `branchtree`, `qsmap`, `dimension` or `tree` defines, nor
    the spec's own slack or offsets."""
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert any(p.name == "oracle.py" for p in sources)
    importers = [p.name for p in sources
                 if p.name != "oracle.py" and "oracle" in _package_imports(p)]
    assert importers == []
    assert _package_imports(PACKAGE_DIR / "oracle.py") <= {"errors", "specs"}
    mu_d = _calls_in(PACKAGE_DIR / "oracle.py", "oracle_mu_d")
    assert {"power", "Fraction"} <= mu_d
    fast = (_defined_in(PACKAGE_DIR / "qsmap.py")
            | _defined_in(PACKAGE_DIR / "dimension.py"))
    assert {"build_mu_d", "_power_weights", "_sqrt_nearest",
            "power_ratio"} <= fast
    assert mu_d & fast == set()
    # the hierarchy and statistics twins rebuild the branches from
    # `oracle_level` lists and group them by parent index themselves
    hierarchy = _calls_in(PACKAGE_DIR / "oracle.py", "oracle_hierarchy")
    stats = _calls_in(PACKAGE_DIR / "oracle.py", "oracle_stats")
    assert "oracle_level" in hierarchy
    assert {"oracle_hierarchy", "oracle_level"} <= stats
    fast |= _defined_in(PACKAGE_DIR / "branchtree.py")
    assert {"balanced_groups", "refine_stage", "families", "branch_stats",
            "stats_series", "stage_of"} <= fast
    assert (hierarchy | stats) & fast == set()
    # the certificate twin reads each parent's gaps off `oracle_level`
    # lists, and the schedule twin rebuilds M and the steps itself
    conditions = _calls_in(PACKAGE_DIR / "oracle.py", "oracle_conditions")
    schedule = _calls_in(PACKAGE_DIR / "oracle.py", "oracle_schedule")
    assert "oracle_level" in conditions
    fast |= _defined_in(PACKAGE_DIR / "tree.py")
    assert {"check_conditions", "choose_M", "spread_bound", "level_stats",
            "stats_parents", "slack"} <= fast | _defined_in(PACKAGE_DIR / "specs.py")
    fast |= {"slack", "_scalars_of", "child_offsets"}
    assert (conditions | schedule) & fast == set()


def _callers(name: str) -> set[str]:
    """The package source files that call `name`, plain or as an attribute."""
    found = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if called == name:
                    found.add(path.name)
    return found


def _calls_in(path: Path, function: str) -> set[str]:
    """The names that the body of `function` in `path` calls."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    found.add(func.id if isinstance(func, ast.Name)
                              else getattr(func, "attr", None))
    return found


def test_tree_alone_places_intervals():
    """Child offsets become intervals in one module: only `tree` builds a
    `Node`, and only it reads `child_offsets` (`tree.rank` included).  Gap
    weights are split into integer offsets in `specs` and compared in
    `tree`.  The `Fraction` split is the oracle's own: `oracle_gaps` reads
    the weights and computes the slack itself, never the fast path's
    `slack`, so the oracle shares no split with the fast path."""
    assert _callers("Node") == {"tree.py"}
    assert _callers("child_offsets") == {"tree.py"}
    assert _callers("gap_weights") == {"specs.py", "tree.py", "oracle.py"}
    assert "gap_weights" in _calls_in(PACKAGE_DIR / "specs.py", "child_offsets")
    split = _calls_in(PACKAGE_DIR / "oracle.py", "oracle_gaps")
    assert "gap_weights" in split
    assert {"slack", "_scalars_of", "child_offsets"} & split == set()
    assert "oracle_gaps" in _calls_in(PACKAGE_DIR / "oracle.py", "oracle_level")


def test_star_state_alone_trims():
    """The trim [x + L_{k+1}, x + delta_k - R_{k+1}] is read in one place,
    `StarState.trim`: besides `specs`, which defines the rules, and the
    oracle, only `reconstruct` calls `L` or `R`.  `measure` reads the level
    it audits through `StarState` and calls no `delta`."""
    assert _callers("L") == _callers("R") == {"specs.py", "reconstruct.py",
                                              "oracle.py"}
    assert "measure.py" not in _callers("delta")


def test_condition_cert_alone_reads_the_conditions():
    """The certified conditions have one reader, `ConditionCert.omega`: no
    package module but `dimension` raises `ConditionInapplicableError` or
    reads `omega1`, `omega2` or `omega3`."""
    raisers, readers = set(), set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                if getattr(exc, "id", getattr(exc, "attr", None)) == \
                        "ConditionInapplicableError":
                    raisers.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr in (
                    "omega1", "omega2", "omega3"):
                readers.add(path.name)
    assert raisers == readers == {"dimension.py"}


def _interval_fields() -> dict[str, set[str]]:
    """The package source files that define a `lo`, `hi` or `length`
    property, or `__slots__` naming `lo_num`, by name."""
    found: dict[str, set[str]] = {}
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "lo", "hi", "length") and any(
                    getattr(d, "id", getattr(d, "attr", None))
                    in ("property", "cached_property")
                    for d in node.decorator_list):
                found.setdefault(node.name, set()).add(path.name)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__"
                    for t in node.targets) and "lo_num" in {
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)}:
                found.setdefault("lo_num", set()).add(path.name)
    return found


def test_tree_alone_defines_interval_views():
    """One interval record: only `tree` defines the `lo`, `hi` and `length`
    views or a `lo_num` slot, and `Node`, `Branch` and `ImageBranch`
    extend its `Interval`."""
    assert _interval_fields() == {name: {"tree.py"} for name
                                  in ("lo", "hi", "length", "lo_num")}
    for record in (Node, Branch, ImageBranch):
        assert record.__bases__ == (Interval,)


def test_one_evaluator_per_map_family():
    """`bounds` is each map family's one exact evaluator: the only `*_eval`
    function any package source defines is the sandwich audit's
    `float_eval`, and each of the five families defines `bounds` itself
    rather than inheriting it."""
    evaluators = {name for path in PACKAGE_DIR.glob("*.py")
                  for name in _defined_in(path) if name.endswith("_eval")}
    assert evaluators == {"float_eval"}
    for family in (IdentityMap, AffineMap, PowerMap, PiecewiseLinearMap,
                   CompositionMap):
        assert "bounds" in vars(family), family.__name__
