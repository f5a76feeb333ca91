"""Checks on the package source itself, read as syntax trees."""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

from tensorindep import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tensorindep"


def self_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each call by which a function of ``tree`` calls itself.

    A call from a function nested inside it counts too, as does a method
    calling itself through ``self`` or ``cls``.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in (
                "self",
                "cls",
            ):
                name = func.attr
            else:
                continue
            if name == node.name:
                found.append((call.lineno, name))
    return sorted(found)


def test_no_function_calls_itself():
    # Every search runs as a loop over an explicit stack, so its depth is
    # not bounded by the interpreter's recursion limit.
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in self_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_self_calls_are_found():
    tree = ast.parse(
        "def direct(n):\n"
        "    return direct(n - 1)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return outer()\n"
        "    return inner\n"
        "class C:\n"
        "    def method(self):\n"
        "        return self.method()\n"
        "def loop(n):\n"
        "    while n:\n"
        "        n -= 1\n"
        "    return direct(n)\n"
    )
    assert self_calls(tree) == [(2, "direct"), (5, "outer"), (9, "method")]


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name imported in ``tree`` that nothing reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports are compiler
    directives and bind nothing.
    """
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


# The benchmark's tracer patches descriptor.max_flow, so that binding stays
# until the benchmark points at one the module uses.
UNUSED_IMPORTS_KEPT = {"descriptor.py max_flow"}


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them.
    found = {
        f"{path.name} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for _, name in unused_imports(ast.parse(path.read_text(), str(path)))
    }
    assert found == UNUSED_IMPORTS_KEPT


def test_unused_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from itertools import islice, product\n"
        "def f(x: Sequence) -> None:\n"
        "    return xml.dom, islice(x, 1)\n"
    )
    assert unused_imports(tree) == [(2, "os"), (3, "osp"), (5, "product")]


def _names(node: ast.expr, name: str) -> bool:
    """Whether ``node`` is ``name`` or an attribute ``something.name``."""
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def row_unions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, function) of each row union written out in ``tree``.

    A row union is a ``for`` loop over ``iter_bits(...)`` whose body ORs
    an adjacency row into an accumulator: ``x |= adj[v]`` or
    ``x |= g.adj[v]``.
    """
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(func):
            if not (
                isinstance(loop, ast.For)
                and isinstance(loop.iter, ast.Call)
                and _names(loop.iter.func, "iter_bits")
            ):
                continue
            found += [
                (node.lineno, func.name)
                for node in ast.walk(loop)
                if isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.BitOr)
                and isinstance(node.value, ast.Subscript)
                and _names(node.value.value, "adj")
            ]
    return sorted(found)


def test_rows_are_unioned_only_in_reach():
    # Every walk over a graph reads rows through graphs._reach.
    found = [
        f"{path.name} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for _, name in row_unions(ast.parse(path.read_text(), str(path)))
    ]
    assert found == ["graphs.py _reach"]


def test_row_unions_are_found():
    tree = ast.parse(
        "def neighbours(g, s):\n"
        "    out = 0\n"
        "    for v in iter_bits(s):\n"
        "        out |= g.adj[v]\n"
        "    return out\n"
        "def grow(adj, frontier):\n"
        "    grown = 0\n"
        "    for v in graphs.iter_bits(frontier):\n"
        "        if v:\n"
        "            grown |= adj[v]\n"
        "    return grown\n"
        "def other_loops(adj, s):\n"
        "    total = 0\n"
        "    for v in iter_bits(s):\n"
        "        total += adj[v].bit_count()\n"
        "    for v in range(3):\n"
        "        total |= adj[v]\n"
        "    return total\n"
    )
    assert row_unions(tree) == [(4, "neighbours"), (10, "grow")]


def _numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def qualified_nodes(
    tree: ast.Module, module: str, kind: type[ast.AST] = ast.Call
) -> list[tuple[ast.AST, str]]:
    """Each node of type ``kind`` in ``tree`` with the qualified name of what holds it.

    The name is the module's followed by the classes and functions that
    hold the node.
    """
    found = []
    stack: list[tuple[ast.AST, str]] = [(tree, module)]
    while stack:
        node, name = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}"
            if isinstance(child, kind):
                found.append((child, name))
            stack.append((child, inner))
    return found


def package_findings(finder) -> set[str]:
    """Qualified names of what ``finder(tree, module)`` reports in the package."""
    return {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for _, name in finder(ast.parse(path.read_text(), str(path)), path.stem)
    }


def fraction_parses(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """(line, qualified name) of each one-argument ``Fraction`` call in ``tree``.

    A call whose one argument is a numeric literal, ``Fraction(1)`` say,
    parses nothing and is left out, as are calls with a numerator and a
    denominator.
    """
    return sorted(
        (call.lineno, name)
        for call, name in qualified_nodes(tree, module)
        if _names(call.func, "Fraction")
        and len(call.args) + len(call.keywords) == 1
        and not (call.args and _numeric_literal(call.args[0]))
    )


def test_outside_values_become_fractions_only_in_rational():
    # graphs._rational holds the one guard against exponent notation, so
    # every parse of an outside value goes through it.
    assert package_findings(fraction_parses) == {"graphs._rational"}


def test_fraction_parses_are_found():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "import fractions\n"
        "HALF = Fraction(1, 2)\n"
        "ONE = Fraction(1)\n"
        "def read(text):\n"
        "    return Fraction(text)\n"
        "class Graph:\n"
        "    def __init__(self, measures):\n"
        "        self.m = [fractions.Fraction(m) for m in measures]\n"
        "        self.neg = Fraction(-3)\n"
        "        self.ratio = Fraction(len(measures), 2)\n"
        "def outer():\n"
        "    def inner(x):\n"
        "        return Fraction(numerator=x)\n"
        "    return inner, Fraction('1/2')\n"
    )
    assert fraction_parses(tree, "mod") == [
        (6, "mod.read"),
        (9, "mod.Graph.__init__"),
        (14, "mod.outer.inner"),
        (15, "mod.outer"),
    ]


def power_builds(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """(line, qualified name) of each call of ``_powers`` or ``_rows`` in ``tree``."""
    return sorted(
        (call.lineno, name)
        for call, name in qualified_nodes(tree, module)
        if _names(call.func, "_powers") or _names(call.func, "_rows")
    )


def test_powers_are_built_only_in_tensor_and_the_sequence():
    # A question about one set of a power (the majority set re-checks) is
    # answered from the base by tensor's kernels; only the search of each
    # power in the sequence needs its rows.
    found = package_findings(power_builds)
    assert {name for name in found if not name.startswith("tensor.")} == {"mwis.alpha_sequence"}


def test_power_builds_are_found():
    tree = ast.parse(
        "from tensorindep import tensor\n"
        "from tensorindep.tensor import _powers\n"
        "def recheck(g, n):\n"
        "    adj, weights = next(islice(_powers(g), n - 1, None))\n"
        "    return adj\n"
        "class Checker:\n"
        "    def rows(self, g):\n"
        "        return tensor._rows(g.adj, g.adj)\n"
        "def unrelated(g):\n"
        "    powers = [tensor.tensor_power(g, 2)]\n"
        "    return powers, g._rows\n"
        "TABLE = _rows([1], [1])\n"
    )
    assert power_builds(tree, "mod") == [
        (4, "mod.recheck"),
        (8, "mod.Checker.rows"),
        (12, "mod"),
    ]


def p_q_fstrings(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """(line, qualified name) of each f-string formatting a ``.numerator`` and a ``.denominator``."""
    found = []
    for node, name in qualified_nodes(tree, module, ast.JoinedStr):
        read = {
            attr.attr
            for value in node.values
            if isinstance(value, ast.FormattedValue)
            for attr in ast.walk(value.value)
            if isinstance(attr, ast.Attribute)
        }
        if {"numerator", "denominator"} <= read:
            found.append((node.lineno, name))
    return sorted(found)


def test_p_q_text_is_written_only_in_graphs():
    # graphs owns the p/q text of a rational: _rational reads it and
    # _frac_str writes it for every report.
    assert package_findings(p_q_fstrings) == {"graphs._frac_str"}


def test_p_q_fstrings_are_found():
    tree = ast.parse(
        "def show(x):\n"
        "    return f'{x.numerator}/{x.denominator}'\n"
        "class Piece:\n"
        "    def json(self):\n"
        "        return {'lo': f'{self.lo.numerator}/{self.lo.denominator}'}\n"
        "def other(x):\n"
        "    return f'{x}', f'{x.numerator}' + f'/{x.denominator}', x.numerator\n"
    )
    assert p_q_fstrings(tree, "mod") == [(2, "mod.show"), (5, "mod.Piece.json")]


def arc_reads(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """(line, qualified name) of each read of an attribute ``arcs`` or ``arc_flows``."""
    return sorted(
        (node.lineno, name)
        for node, name in qualified_nodes(tree, module, ast.Attribute)
        if node.attr in ("arcs", "arc_flows") and isinstance(node.ctx, ast.Load)
    )


def test_flow_network_arcs_are_read_only_in_hallflow():
    # The order of the network's arcs is hallflow's: other modules take
    # the flow on each cover edge from hallflow._cover_edge_flows.
    found = package_findings(arc_reads)
    assert {name for name in found if not name.startswith("hallflow.")} == set()


def test_arc_reads_are_found():
    tree = ast.parse(
        "def tiles(result):\n"
        "    return zip(result.network.arcs[1:-1], result.arc_flows[1:-1])\n"
        "class View:\n"
        "    def size(self):\n"
        "        return len(self.net.arcs)\n"
        "def other(net, arcs):\n"
        "    net.arcs = arcs\n"
        "    return arcs, net.arc_count\n"
    )
    assert arc_reads(tree, "mod") == [(2, "mod.tiles"), (2, "mod.tiles"), (5, "mod.View.size")]


FLOW_BUILDERS = ("build_double_cover", "condition_network", "max_flow")


def flow_builds(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """(line, qualified name) of each call of a name in ``FLOW_BUILDERS`` in ``tree``."""
    return sorted(
        (call.lineno, name)
        for call, name in qualified_nodes(tree, module)
        if any(_names(call.func, builder) for builder in FLOW_BUILDERS)
    )


def test_covers_and_flows_are_built_only_in_cover_flow():
    # One cover and one flow per analysis: every module takes them from
    # hallflow.cover_flow, whose result carries its cover. An import of
    # max_flow is not a call.
    assert package_findings(flow_builds) == {"hallflow.cover_flow"}


def test_flow_builds_are_found():
    tree = ast.parse(
        "from tensorindep.hallflow import max_flow\n"
        "from tensorindep import hallflow\n"
        "def descriptor(g):\n"
        "    cover = hallflow.build_double_cover(g)\n"
        "    return max_flow(hallflow.condition_network(cover))\n"
        "class Report:\n"
        "    def flow(self, net):\n"
        "        return self.max_flow(net)\n"
        "def other(g, max_flow):\n"
        "    return cover_flow(g), max_flow, g.condition_network\n"
    )
    assert flow_builds(tree, "mod") == [
        (4, "mod.descriptor"),
        (5, "mod.descriptor"),
        (5, "mod.descriptor"),
        (8, "mod.Report.flow"),
    ]


ORACLES = Path(__file__).resolve().parent / "oracles.py"

FLOW_SOLVERS = ("max_flow", "cover_flow", "blocking_flow")


def flow_solver_uses(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each import or read of a name in ``FLOW_SOLVERS`` in ``tree``.

    A read is the bare name, called or not, or an attribute by that name,
    such as ``hallflow.max_flow``. A definition or a parameter of that
    name is not a read.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in FLOW_SOLVERS]
    return sorted(found)


def test_the_flow_oracle_runs_no_package_flow():
    # TestMatchesReference holds max_flow to oracles.reference_max_flow;
    # an oracle that ran the package's own flow would check it against
    # itself.
    assert flow_solver_uses(ast.parse(ORACLES.read_text(), str(ORACLES))) == []


def test_flow_solver_uses_are_found():
    tree = ast.parse(
        "from tensorindep.hallflow import max_flow\n"
        "from tensorindep import cover_flow as flow, mask_from\n"
        "import tensorindep.hallflow as hf\n"
        "def reference(net):\n"
        "    return hf.blocking_flow(net), flow(net)\n"
        "def solve(net):\n"
        "    solver = max_flow\n"
        "    return solver(net), 'max_flow'\n"
        "def max_flow_reference(net, cover_flow=None):\n"
        "    return mask_from([])\n"
    )
    assert flow_solver_uses(tree) == [
        (1, "max_flow"),
        (2, "cover_flow"),
        (5, "blocking_flow"),
        (7, "max_flow"),
    ]


def power_comparisons(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """(line, qualified name) of each comparison with a ``**`` expression as an operand."""
    return sorted(
        (node.lineno, name)
        for node, name in qualified_nodes(tree, module, ast.Compare)
        if any(
            isinstance(operand, ast.BinOp) and isinstance(operand.op, ast.Pow)
            for operand in (node.left, *node.comparators)
        )
    )


def test_power_sizes_are_compared_only_in_tensor():
    # Whether m**n fits a cap is tensor._largest_power's question; its
    # running product stops at the cap instead of building m**n.
    found = package_findings(power_comparisons)
    assert {name for name in found if not name.startswith("tensor.")} == set()


def test_power_comparisons_are_found():
    tree = ast.parse(
        "def fits(m, n, cap):\n"
        "    return m ** n <= cap\n"
        "def grow(m, cap):\n"
        "    n = 1\n"
        "    while cap >= m ** (n + 1):\n"
        "        n += 1\n"
        "    return n\n"
        "def checked(w, g, n, expected, cap):\n"
        "    return Fraction(w, g.scale**n) != expected, g.n * n < cap\n"
    )
    assert power_comparisons(tree, "mod") == [(2, "mod.fits"), (5, "mod.grow")]


EXCEPTION_BASES = {
    name
    for namespace in (vars(builtins), vars(errors))
    for name, value in namespace.items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def exception_classes(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """(line, qualified name) of each class in ``tree`` that derives from an exception.

    A base counts when its name, bare or as an attribute, is in
    ``EXCEPTION_BASES`` (the built-in exceptions and those of
    ``tensorindep.errors``) or is a class found earlier in ``tree``.
    """
    known = set(EXCEPTION_BASES)
    found = []
    for node, name in sorted(
        qualified_nodes(tree, module, ast.ClassDef), key=lambda item: item[0].lineno
    ):
        bases = {getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases}
        if bases & known:
            known.add(node.name)
            found.append((node.lineno, f"{name}.{node.name}"))
    return found


def test_exception_classes_live_only_in_errors():
    # main's map from exception type to exit code is the one error
    # contract, so every exception type the package declares is in
    # errors.py, where main imports it from.
    found = package_findings(exception_classes)
    assert {name for name in found if not name.startswith("errors.")} == set()


def test_exception_classes_are_found():
    tree = ast.parse(
        "from tensorindep import errors\n"
        "class ParseError(ValueError):\n"
        "    pass\n"
        "class Truncated(errors.SizeCapExceeded):\n"
        "    pass\n"
        "def parse(text):\n"
        "    class Unreadable(ParseError):\n"
        "        pass\n"
        "    raise Unreadable(text)\n"
        "class Report(dict):\n"
        "    class Kind(Enum):\n"
        "        ONE = ValueError\n"
    )
    assert exception_classes(tree, "mod") == [
        (2, "mod.ParseError"),
        (4, "mod.Truncated"),
        (7, "mod.parse.Unreadable"),
    ]


def exponent_reads(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """(line, qualified name) of each exponent read by hand in ``tree``.

    That is a call of ``operator.index`` (or of a bare ``index`` imported
    from it) and a ``raise`` whose text, plain or an f-string, holds
    "must be positive".
    """
    calls = [
        (call.lineno, name)
        for call, name in qualified_nodes(tree, module)
        if getattr(call.func, "id", None) == "index"
        or _names(call.func, "index") and getattr(call.func.value, "id", None) == "operator"
    ]
    raises = [
        (node.lineno, name)
        for node, name in qualified_nodes(tree, module, ast.Raise)
        if node.exc is not None
        and any(
            isinstance(part, ast.Constant)
            and isinstance(part.value, str)
            and "must be positive" in part.value
            for part in ast.walk(node.exc)
        )
    ]
    return sorted(calls + raises)


def test_exponents_are_read_only_in_positive_int():
    # Every entry point takes its exponent from graphs._positive_int, so a
    # float or a Fraction raises TypeError everywhere and 0 the one refusal.
    assert package_findings(exponent_reads) == {"graphs._positive_int"}


def test_exponent_reads_are_found():
    tree = ast.parse(
        "import operator\n"
        "from operator import index\n"
        "def power(g, n):\n"
        "    n = operator.index(n)\n"
        "    if n < 1:\n"
        "        raise ValueError('n must be positive')\n"
        "class View:\n"
        "    def __post_init__(self):\n"
        "        if self.exponent < 1:\n"
        "            raise ValueError(f'{self.name} must be positive')\n"
        "def other(labels, k):\n"
        "    if k < 0:\n"
        "        raise ValueError('k must be nonnegative')\n"
        "    return labels.index('u'), index(k)\n"
    )
    assert exponent_reads(tree, "mod") == [
        (4, "mod.power"),
        (6, "mod.power"),
        (10, "mod.View.__post_init__"),
        (14, "mod.other"),
    ]
