"""Source layout rules checked on the syntax tree of the package."""

import ast
import inspect
import sys
from pathlib import Path

import incgb
from incgb import incmaps, rings, signature, spairs

SRC = Path(incgb.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _function_local_imports(tree):
    """Line numbers of the imports that sit inside a function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            )
    return sorted(lines)


def test_no_function_local_imports():
    # an import inside a function hides a cycle between modules; every
    # import of the package belongs at module level
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _function_local_imports(tree)]
    assert offenders == []


def _unused_imports(tree):
    """Names imported by a module-level ``from ... import`` that the module
    never reads and does not export in ``__all__``, as (name, line)."""
    imported = [
        (alias.asname or alias.name, node.lineno)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported if name not in read]


def test_no_unused_imports():
    # a deleted caller leaves its imports behind; an import nothing reads
    # only hides which functions a module, or a test module, still depends on
    offenders = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line} {name}" for name, line in _unused_imports(tree)]
    assert offenders == []


def test_one_monomial_order_key():
    # the monomial order lives in rings.order_key; a comparator wrapped in
    # cmp_to_key would define a second copy of it
    offenders = [
        path.name for path in sorted(SRC.glob("*.py")) if "cmp_to_key" in path.read_text()
    ]
    assert offenders == []


def test_orders_are_keys():
    # an order is a sort key (rings.order_key, SigEngine.sig_key); a class
    # with a rich comparison hides a comparator that recomputes per call
    ordering = {"__lt__", "__le__", "__gt__", "__ge__"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                offenders += [
                    f"{path.name}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in ordering
                ]
    assert offenders == []


def test_hot_values_are_tuples():
    # a monomial is its factor tuple, and the pair and signature records are
    # named tuples: built, hashed and compared in C, with no instance dict.
    # A dataclass brings back a dict per instance and a Python-level hash
    x = ((0, (1,)), 2), ((0, (0,)), 1)
    m = rings.Monomial(x)
    assert issubclass(rings.Monomial, tuple) and rings.Monomial.__slots__ == ()
    assert not hasattr(m, "__dict__")
    assert m.factors is m and m == x and hash(m) == hash(tuple(m))
    tm = signature.TwistedMonomial(m, incmaps.IDENTITY)
    sig = signature.Signature(tm, 0)
    records = [
        spairs.SPairGen(0, 1, incmaps.IDENTITY, incmaps.IDENTITY, m, m, m),
        tm,
        sig,
    ]
    assert [type(r).__name__ for r in records if not isinstance(r, tuple)] == []
    assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []


def test_exports_resolve():
    # a name deleted from a module must leave the export list too
    assert [name for name in incgb.__all__ if not hasattr(incgb, name)] == []


def test_one_term_accumulator():
    # poly.reduce_terms is the one reduction accumulator; an engine picks
    # its steps through a reducer choice instead of keeping a sorted queue
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "poly.py" and "insort" in path.read_text()
    ]
    assert offenders == []


def test_no_heap_rebuilt():
    # a pair queue is only pushed and popped: redundant pairs are skipped as
    # they are popped (buchberger._chained), not swept out of the heap
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "heapify" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        ]
    assert offenders == []


def test_one_witness_memo_per_table():
    # poly keeps the one memo of witness searches per reducer table
    # (first_reducer, candidates); an engine that calls the search itself
    # keeps a second memo over the same rows
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("rings.py", "poly.py") and "prepared_witnesses" in path.read_text()
    ]
    assert offenders == []


def test_pair_generators_are_lazy():
    # a caller that needs only to know whether a pair set is empty draws
    # one item; a pair source that builds a list would enumerate it all
    sources = (
        spairs.interlacings,
        spairs._placements,
        spairs.spair_generators,
        signature.j_pairs,
        incmaps.increasing_maps,
    )
    assert [fn.__name__ for fn in sources if not inspect.isgeneratorfunction(fn)] == []


def test_one_interlacing_enumerator():
    # spairs._images is the one enumerator of interlacings and
    # incmaps.increasing_maps the one of plain increasing maps; a module
    # that walks index combinations itself keeps a second copy of them.
    # Both pair sources (spair_generators, signature.j_pairs) walk the one
    # stream spairs._placements, which also reads lead coprimality; a
    # module that reads _images, or a coprime test beside it, walks a
    # second copy of that stream
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("spairs.py", "incmaps.py") and "combinations" in path.read_text()
    ]
    offenders += [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spairs.py" and "_images" in path.read_text()
    ]
    offenders += [
        name for name in ("_lead_getters", "_moved_vars", "_shares") if hasattr(spairs, name)
    ]
    assert offenders == []


def test_parser_is_private():
    # problems.parse and problems.parse_polynomial are the entry points; a
    # caller that drives _Parser itself keeps its own copy of their checks
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "problems.py"]
    offenders = []
    for path in paths + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            if "_Parser" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_one_cover_test_call():
    # the signature engine tests a J-pair for cover once, as it pops it; a
    # second call site, such as a test when the pair is queued, spends the
    # test twice on most pairs and lets covered pops count against max_pairs
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "is_covered" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        ]
    assert len(offenders) == 1, offenders


def test_one_pair_queue():
    # every engine runs buchberger._pair_loop, the one owner of the pair
    # queue and of the budget policy; an engine that imports heapq or reads
    # max_pairs or max_basis itself keeps a second pair loop
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported.update(
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
        )
        if "heapq" in imported and path.name != "buchberger.py":
            offenders.append(f"{path.name} imports heapq")
        if path.name not in ("buchberger.py", "signature.py"):
            continue
        loops = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_pair_loop"]
        inside = {id(n) for fn in loops for n in ast.walk(fn)}
        offenders += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("max_pairs", "max_basis")
            and id(node) not in inside
        ]
    assert offenders == []


def test_completeness_oracle_is_independent():
    # the completeness oracle counts standard monomials without the engines:
    # of incgb it reads only the parser and lm, and otherwise the standard
    # library and the test runner; an import of engine code, or of conftest,
    # which imports the engines, would share what it checks
    allowed = {"incgb.problems": {"parse", "parse_polynomial"}, "incgb.poly": {"lm"}}
    tree = ast.parse((TESTS / "test_completeness.py").read_text())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [(node.module, {alias.name for alias in node.names})]
        else:
            continue
        for module, names in modules:
            if module in allowed and names is not None and names <= allowed[module]:
                continue
            top = module.split(".")[0]
            if top in sys.stdlib_module_names or top == "pytest":
                continue
            offenders.append(f"{node.lineno} {module}")
    assert offenders == []
