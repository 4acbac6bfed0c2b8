import ast
from collections import Counter
from pathlib import Path

import ehrmat


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so every invariant of the
    # library must raise explicitly to survive it
    found = []
    for path in sorted(Path(ehrmat.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _unread_parameters(tree):
    """(function name, parameter) for every parameter of a function or
    lambda in `tree` that no expression in its body reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(name, p) for p in params if p not in read]
    return found


def test_library_functions_read_every_parameter():
    # a parameter the body never reads can only disagree with what the
    # function does, so every caller pays for an argument that cannot act
    found = []
    for path in sorted(Path(ehrmat.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}: {name}({p})"
                  for name, p in _unread_parameters(tree)]
    assert found == []


def test_unread_parameter_check_sees_an_unread_parameter():
    tree = ast.parse("def f(a, b, *c, d, **e):\n"
                     "    b = a\n"
                     "    return lambda x, y: d(y, *c, **e)\n")
    assert _unread_parameters(tree) == [("f", "b"), ("<lambda>", "x")]


def _unread_imports(tree):
    """Every name that an import in `tree` binds and that no expression
    in the module reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_library_reads_every_import():
    # an import nothing reads is left over from code that has gone, and
    # every reader of the module has to look past it
    found = []
    for path in sorted(Path(ehrmat.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}: {name}" for name in _unread_imports(tree)]
    assert found == []


def test_unread_import_check_sees_an_unread_import():
    tree = ast.parse("import os.path\n"
                     "import json as js\n"
                     "from operator import add, mul as times\n"
                     "def f(x):\n"
                     "    from math import comb\n"
                     "    return os.sep, add(x, 1)\n")
    assert _unread_imports(tree) == ["js", "times", "comb"]


_MAIN_GUARD = ast.dump(ast.parse('__name__ == "__main__"', mode="eval").body)


def _work_at_import(tree):
    """Line numbers of the module-level statements of `tree` that do
    work on import: anything but an import, a def, a class, a string
    expression (a docstring), an assignment of a literal that
    `ast.literal_eval` accepts, or the `if __name__ == "__main__"`
    guard."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            try:
                ast.literal_eval(node.value)
                continue
            except (TypeError, ValueError):
                pass
        elif isinstance(node, ast.Expr):
            if (isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
        elif isinstance(node, ast.If):
            if ast.dump(node.test) == _MAIN_GUARD and not node.orelse:
                continue
        elif isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                               ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        found.append(node.lineno)
    return found


def test_library_does_no_work_at_import():
    # a module-level call runs for every reader of the module, whether
    # or not it needs the result, so the library computes nothing until
    # one of its functions is called
    found = []
    for path in sorted(Path(ehrmat.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line}" for line in _work_at_import(tree)]
    assert found == []


def test_import_work_check_sees_a_call():
    tree = ast.parse('"""Doc."""\n'
                     "import os\n"
                     "from math import comb\n"
                     "A = (1, -2, 'x', None, {'k': [3.5]})\n"
                     "X = f()\n"
                     "Y = [i for i in range(3)]\n"
                     "def g():\n"
                     "    return X\n"
                     "g()\n"
                     "if __name__ == '__main__':\n"
                     "    g()\n"
                     "if __debug__:\n"
                     "    pass\n")
    assert _work_at_import(tree) == [5, 6, 9, 12]


def _references(node):
    """How often each name is read in `node`: as a variable, as an
    attribute, or as a whole string constant, which is how the bench
    tracer names the functions it wraps."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def _unreferenced_defs(trees):
    """'module.function' or 'module.Class.method' for every module-level
    function and every non-dunder method in `trees` (module name ->
    tree) whose name nothing in `trees` reads outside its own body."""
    read = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        defs = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("__")]
        for qualname, node in defs:
            name = node.name
            if read[name] == _references(node)[name]:
                found.append(f"{module}.{qualname}")
    return found


def _trees(directory):
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(directory.glob("*.py"))}


# Functions the library never calls. The per-vertex and per-call
# references are wrapped by name in bench/tracer.py, which waits for the
# next change to the benchmark; the corpus readers and the uniform
# closed forms are the public API that bench/workloads.py and the tests
# read (the scan reads both closed forms through shared helpers).
LIBRARY_DEAD_ALLOWED = [
    "cones.tangent_cone", "cones.facet_normals_unimodular",
    "corpus.names", "corpus.rank", "corpus.rank_function",
    "exactmath.mat_rank", "exactmath.solve_unimodular",
    "exactmath.solve_linear", "hstar.uniform_ehrhart",
    "hstar.uniform_hstar", "matroid.RankFunction.rank",
]


def test_library_dead_code_is_only_the_listed_references():
    # a function nothing in the library calls is either dead or kept
    # for a reader outside it, and only the listed ones have such a
    # reader; one that gains a library caller leaves the list
    package = Path(ehrmat.__file__).resolve().parent
    assert _unreferenced_defs(_trees(package)) == LIBRARY_DEAD_ALLOWED
    root = Path(__file__).resolve().parents[1]
    outside = sum((_references(tree) for d in ("bench", "tests")
                   for tree in _trees(root / d).values()), Counter())
    assert [q for q in LIBRARY_DEAD_ALLOWED
            if not outside[q.rsplit(".", 1)[1]]] == []


def test_dead_code_check_sees_an_unreferenced_def():
    trees = {"a": ast.parse("def used():\n"
                            "    return 1\n"
                            "def recursive(n):\n"
                            "    return recursive(n - 1)\n"
                            "def unused():\n"
                            "    return used()\n"
                            "class C:\n"
                            "    def __init__(self):\n"
                            "        self.x = 'named'\n"
                            "    def named(self):\n"
                            "        return 0\n"
                            "    def method(self):\n"
                            "        return 0\n"),
             "b": ast.parse("from a import C\n"
                            "def top():\n"
                            "    return C().x\n"
                            "top()\n")}
    assert _unreferenced_defs(trees) == ["a.recursive", "a.unused",
                                         "a.C.method"]
