"""The package ships what it runs: every top-level function and class under
src/phasebc is referenced by other package code or exported by phasebc,
every method of its classes is referenced somewhere, every defaulted
parameter is set by some caller outside the tests, and the dense
references that only tests use live in tests/oracles.py."""

import ast
import collections
from pathlib import Path

import phasebc
from phasebc import cli, transport
from phasebc.phasespace import GridSpec, wigner_mixture
from phasebc.transport import AliceSession, BobSession

PACKAGE = Path(phasebc.__file__).resolve().parent
# the code that may call a package method: the package, its tests and its benchmark
CALLERS = (PACKAGE, Path(__file__).resolve().parent, PACKAGE.parents[1] / "perfbench")


def parse_modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def referenced_names(node):
    """The names a node reads, as Name ids and Attribute attrs (module.f, self.f).
    Walking the tree leaves out docstrings and comments, which a text search
    would match."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_is_used_or_exported():
    modules = parse_modules()
    exported = {alias.asname or alias.name for node in modules["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # each top-level statement with the names it reads, so that a definition's
    # references to itself (recursion, its own methods) do not count
    statements = [(node, referenced_names(node))
                  for tree in modules.values() for node in tree.body]
    unused = sorted(
        f"{module}.{node.name}"
        for module, tree in modules.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and not any(node.name in names for other, names in statements if other is not node))
    assert unused == []


def test_every_method_is_referenced():
    # a method or property counts as used where any caller reads an attribute
    # of its name; dunders are called by Python itself
    attributes = {node.attr for root in CALLERS for path in sorted(root.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Attribute)}
    unused = sorted(
        f"{module}.{cls.name}.{node.name}"
        for module, tree in parse_modules().items() for cls in tree.body
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in attributes)
    assert unused == []


def test_every_default_parameter_is_set_outside_the_tests():
    # a defaulted parameter counts as set where a call by the function's name (for
    # __init__, the class's) in the package or its benchmark passes it by keyword,
    # by position or through * or **; one only tests set is a constant, or
    # belongs in the tests
    sources = [*PACKAGE.glob("*.py"), *(path for path in CALLERS[2].glob("*.py")
                                        if not path.name.startswith("test_"))]
    calls = collections.defaultdict(list)
    for path in sorted(sources):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                calls[func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                      ].append(node)

    def sets(call, position, name):
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        return (any(kw.arg in (None, name) for kw in call.keywords)
                or position is not None and (starred or position < len(call.args)))

    unset = []
    for module, tree in parse_modules().items():
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in cls.body}
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            cls, args = owner.get(id(function)), function.args
            positional = args.posonlyargs + args.args
            if cls is not None:  # no static methods: a call leaves out self or cls
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            names = (cls, "__init__") if function.name == "__init__" else (function.name,)
            callers = [call for name in names for call in calls[name]]
            qualname = f"{module}.{cls}.{function.name}" if cls else f"{module}.{function.name}"
            unset += [f"{qualname}({name})" for position, name in defaulted
                      if not any(sets(call, position, name) for call in callers)]
    assert unset == []


def imports():
    """(module, innermost enclosing function or None, dotted name) for every
    name that a module under src/phasebc imports."""
    found = []
    for module, tree in parse_modules().items():
        # ast.walk visits an outer function before the functions inside it
        scope = {id(node): function.name for function in ast.walk(tree)
                 if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(module, scope.get(id(node)), alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found += [(module, scope.get(id(node)), f"{node.module}.{alias.name}")
                          for alias in node.names]
    return found


def test_no_module_imports_scipy_linalg():
    # expm was the only user; the displacement oracle keeps it in tests
    assert [(m, name) for m, _, name in imports() if name.startswith("scipy.linalg")] == []


def test_one_scipy_import_site():
    # scipy.special is most of the start-up time: the Poisson tails, weights
    # and log-factorials come from fock's kernel, and only simulate's
    # Clopper-Pearson interval imports it, when it runs
    sites = [(module, function) for module, function, name in imports()
             if name.split(".")[0] == "scipy"]
    assert sites == [("cli", "cmd_simulate")]


def test_one_float_format_spec():
    # the spec is transport._FLOAT_SPEC, which _float_texts and the CSV's row
    # template use; ast.walk reaches string constants and the format spec of an
    # f-string field alike
    specs = [module for module, tree in parse_modules().items() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for _ in range(node.value.count(".17g"))]
    assert specs == ["transport"]


def test_csv_formats_only_its_axes_through_float_texts(monkeypatch):
    # the grid's values go through the row template; a formatter called per row
    # would make 201 more calls here
    calls = []
    float_texts = transport._float_texts

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return float_texts(*args, **kwargs)

    monkeypatch.setattr(transport, "_float_texts", counting)
    grid = wigner_mixture([(1.0, 0.0)], GridSpec.centered(3.0, 201))
    assert cli.render_csv(grid).count("\n") == 1 + 201 * 201
    assert calls == [201, 201]


def test_one_comparison_against_kinds():
    # WireMessage alone tests a kind; decode_line turns its ValueError into a
    # DecodeError
    sites = [module for module, tree in parse_modules().items() for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and "KINDS" in {n.id for n in node.comparators if isinstance(n, ast.Name)}]
    assert sites == ["transport"]


def test_only_the_payload_reads_its_amplitudes():
    # the receiving endpoint seals the amplitudes in a QuantumPayload, and no
    # package code outside its methods reads them back, by attribute or by name
    modules = parse_modules()
    inside = {id(node) for tree in modules.values() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "QuantumPayload"
              for node in ast.walk(cls)}
    readers = [module for module, tree in modules.items() for node in ast.walk(tree)
               if id(node) not in inside
               and (isinstance(node, ast.Attribute) and node.attr == "_amps"
                    or isinstance(node, ast.Constant) and node.value == "_amps")]
    assert readers == []


def test_both_endpoints_define_handle():
    # the benchmark's tracer wraps these two class attributes, and a missing
    # one reads as 0 instead of failing
    assert "handle" in AliceSession.__dict__ and "handle" in BobSession.__dict__
