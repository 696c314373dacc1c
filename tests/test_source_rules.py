"""Rules the library source keeps.

No invariant may rest on `assert`: `python -O` strips assert statements, so
a broken invariant would pass silently.  Checks raise explicit errors, and
none of them is an AssertionError, which reads as a failed assert.

The public API is the list below.  Adding or removing a name is a deliberate
change: edit the list and record it in CHANGES.md.

No library module but `__init__` imports a name it does not use: a
deletion that leaves its imports behind fails here.  Every private
module-level function or class is referenced by some library module: code
that only the tests use belongs in the tests.  The same holds for every
public function, exported or not, and every non-dunder method, but for the
short list UNCALLED below, each with its one reason.

The cost caps belong to the command line: only `cli` assigns module-level
names that end in `_CAP` or contain `_MAX_`, and no library module imports
`cli`.

The benchmark's tracer wraps the functions its LAYERS table names, so every
one of them must still resolve in the package.
"""

import ast
import importlib
from pathlib import Path

import sternsums

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "sternsums"
TRACING = ROOT / "perfbench" / "tracing.py"

PUBLIC_API = [
    "AFFINE_ALT",
    "EVEN",
    "HOMOGENEOUS",
    "HomogPoly",
    "IDENTITY",
    "IOTA",
    "InexactDivisionError",
    "InsufficientDataError",
    "IntPolynomial",
    "LinearRecurrence",
    "Mat2",
    "MiningResult",
    "MultiplicityCheck",
    "NonSquareMatrixError",
    "ODD",
    "PeriodicFn",
    "RHO",
    "RHO_TWIST",
    "RationalMatrix",
    "SIGMA",
    "SpectralContext",
    "TAU",
    "VerificationReport",
    "annihilator_recurrence",
    "anti_quotient",
    "charpoly",
    "check_annihilation_identities",
    "check_diagonalizability",
    "corollary_bound",
    "divide_out",
    "eigen_multiplicity",
    "eigenspace_dims",
    "fit_recurrence",
    "is_squarefree",
    "kernel_basis",
    "min_affine_alt_recurrence",
    "min_recurrence",
    "mine_all_monomials",
    "minpoly",
    "monomial_name",
    "nullity",
    "odd_case_dims",
    "operator_matrix",
    "periodic_eval",
    "phi_matrix",
    "polynomial_gcd",
    "power_sum_direct",
    "power_sum_sequence",
    "predicted_bounds",
    "rank",
    "root_power",
    "shortened_annihilator",
    "solve_linear",
    "spectral_context",
    "stern_row",
    "substitute",
    "sym_quotient",
    "verify_range",
    "verify_recurrence",
    "verify_single",
]


# Public functions with no caller in the library or the command line, and
# the one reason each stays.  A name leaves the list when it gains a caller
# or leaves the package; a stale entry fails the rule.
TRACED = "the benchmark's tracer wraps it by name (perfbench/tracing.py LAYERS)"
PAPER = "the paper's own object, public API with no command of its own"
UNCALLED = {
    "forms.operator_matrix": PAPER,  # the substitution action on forms
    "linalg.eigen_multiplicity": TRACED,  # and the oracle of verify's certificate
    "linalg.is_squarefree": TRACED,  # and the oracle of the squarefree witness
    "linalg.kernel_basis": TRACED,  # and the oracle of the twist halves
    "linalg.minpoly": TRACED,  # and the oracle of the squarefree witness
    "recurrences.fit_recurrence": TRACED,  # and the oracle of the mined lengths
    "recurrences.min_affine_alt_recurrence": PAPER,  # a sequence's minimal recurrence
    "recurrences.min_recurrence": PAPER,  # a sequence's minimal recurrence
    "stern.power_sum_direct": PAPER,  # S_n by its definition
    "stern.power_sum_sequence": PAPER,  # S_1..S_n by the transfer matrix
}


def _nodes():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}" for path, node in _nodes() if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_raises_no_assertion_error():
    def raised_name(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else None

    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and raised_name(node) == "AssertionError"
    ]
    assert found == []


def test_library_modules_use_every_name_they_import():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_every_private_definition_has_a_library_caller():
    defined, referenced = set(), set()
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(top, "name", None)
            if own and own.startswith("_") and not own.startswith("__"):
                defined.add(own)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name and name != own:
                    referenced.add(name)
    assert defined and sorted(defined - referenced) == []


def test_every_public_definition_has_a_use():
    traced = {f"{mod}.{name}" for mod, names in _layers().items() for name in names}
    defined, referenced = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        mod = path.stem
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(top, "name", None)
            if isinstance(top, ast.FunctionDef) and not own.startswith("_"):
                defined.append((f"{mod}.{own}", own))
            if isinstance(top, ast.ClassDef):
                defined += [
                    (f"{mod}.{own}.{item.name}", item.name)
                    for item in top.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name and name != own:
                    referenced.add(name)
    assert defined
    unused = [q for q, name in defined if name not in referenced]
    assert sorted(unused) == sorted(UNCALLED)
    assert [q for q, why in UNCALLED.items() if why == TRACED and q not in traced] == []


def test_public_api_snapshot():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sternsums.__all__ == PUBLIC_API
    missing = [name for name in PUBLIC_API if not hasattr(sternsums, name)]
    assert missing == []


def test_cost_caps_live_in_the_command_line():
    caps, found = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            targets = getattr(top, "targets", [getattr(top, "target", None)])
            for target in targets:
                name = getattr(target, "id", "")
                if name.endswith("_CAP") or "_MAX_" in name:
                    (caps if path.name == "cli.py" else found).append(f"{path.name} {name}")
        if path.name == "cli.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                modules = [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m in ("cli", "sternsums.cli") for m in modules):
                found.append(f"{path.name}:{node.lineno} imports cli")
    assert "cli.py DEFAULT_ROW_CAP" in caps and found == []


def _layers() -> dict:
    """The tracer's LAYERS table, read from its source."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )


def test_traced_layers_resolve():
    layers = _layers()
    missing = []
    for mod, names in layers.items():
        for name in names:
            obj = importlib.import_module(f"sternsums.{mod}")
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod}.{name}")
    assert layers and missing == []
