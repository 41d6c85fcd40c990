"""The public API: what the benchmark imports, and what left it."""

import ast
from pathlib import Path

import asnum

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"


def test_benchmark_imports_are_public():
    # perfbench times the package through these names; an API cleanup that
    # drops one must break here, not only in the benchmark
    tree = ast.parse(WORKLOADS.read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "asnum" and node.level == 0
        for alias in node.names
    ]
    assert names
    assert sorted(set(names) - set(asnum.__all__)) == []


def test_public_names_resolve_and_the_test_reference_is_not_public():
    # the kernel-tuple lift, its line operators, the basis enumeration, the
    # bound's windows and closed forms and the mod-5 family serve only the
    # tests (tests/reference.py), so the package does not carry them
    assert len(asnum.__all__) == len(set(asnum.__all__))
    assert all(hasattr(asnum, name) for name in asnum.__all__)
    gone = [
        "anumber.KernelTuple",
        "anumber.CoverDifferential",
        "anumber.reconstruct",
        "anumber.is_regular",
        "anumber.obstruction_vector",
        "linalg.kernel_basis",
        "fppoly.cartier",
        "fppoly.section_after_cartier",
        "curve.level_exponents",
        "curve.domain_basis",
        "bounds.threshold",
        "bounds.block_count",
        "bounds.lower_bound_p3",
        "bounds.lower_bound_p5_5n1",
        "families.family_p5_mod5",
        "families.MOD5_DEGREES",
        "families.ROWS",
        "experiments.DRAW_CELLS",
        "experiments._shape",
    ]
    for path in gone:
        module, name = path.split(".")
        assert name not in asnum.__all__ and not hasattr(getattr(asnum, module), name), path
    # no package code builds a monomial; the tests spell out their coefficients
    assert not hasattr(asnum.FpPoly, "monomial")
    # the per-degree layout is private to the package
    assert not {"Layout", "layout", "genus"} & set(asnum.__all__)


def test_reference_takes_only_the_polynomial_type_from_the_package():
    # the column reference must share no layout or arithmetic with the builds
    # it checks: its one asnum import is FpPoly
    tree = ast.parse(REFERENCE.read_text())
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imports += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
    assert [name for name in imports if name.split(".")[0] == "asnum"] == [
        "asnum.fppoly.FpPoly"
    ]
