"""The package's public surface: what the README lists and what the
benchmark harness reads."""

import ast
import importlib
import re
import sys
from pathlib import Path

import sisfit

ROOT = Path(__file__).resolve().parents[1]

# the harness files whose sisfit names must resolve; perfbench/tracer.py is
# left out because its WRAP_POINTS skip absent names by design
PERFBENCH_FILES = ("run.py", "oracle.py", "workloads.py")
PERFBENCH_MODULES = {"discrete", "spectral", "cli"}


def test_readme_names_every_export():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    # the export list is the paragraph after the one naming `sisfit.__all__`
    listing = library.split("`sisfit.__all__`", 1)[1].split("\n\n")[1]
    names = re.findall(r"`([A-Za-z_]\w*)`", listing)
    assert sorted(names) == sorted(set(names))
    assert set(names) == set(sisfit.__all__)


def _tolerated_imports(tree) -> set:
    """The import statements inside a ``try`` that catches ImportError."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            "ImportError" in ast.unparse(h.type) for h in node.handlers if h.type is not None
        ):
            out |= {id(n) for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom)}
    return out


def _perfbench_names() -> set:
    """(module, name) of every ``from sisfit... import name`` and every
    attribute read of an imported ``discrete``, ``spectral`` or ``cli``
    module (also through ``self.cli``) in the harness files."""
    names = set()
    for fname in PERFBENCH_FILES:
        tree = ast.parse((ROOT / "perfbench" / fname).read_text(encoding="utf-8"))
        tolerated = _tolerated_imports(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "sisfit"
                    and id(node) not in tolerated):
                names |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                base = node.value
                held = base.id if isinstance(base, ast.Name) else base.attr if isinstance(base, ast.Attribute) else None
                if held in PERFBENCH_MODULES:
                    names.add((f"sisfit.{held}", node.attr))
    return names


def _resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_perfbench_names_resolve():
    names = _perfbench_names()
    # the harness's fixed entry points are among them, so the scan found its imports
    assert {("sisfit", "cli"), ("sisfit.cli", "main"), ("sisfit", "brute_force_optimal"),
            ("sisfit.spectral", "write_dataset"), ("sisfit.discrete", "write_discrete_sequences")} <= names
    assert sorted(n for n in names if not _resolves(*n)) == []


def _dotted_resolves(dotted: str) -> bool:
    """Whether ``sisfit.a.b...`` names a module or attribute, each part an
    attribute of the one before or a submodule of it."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


def test_readme_dotted_names_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`(sisfit(?:\.\w+)+)", readme))
    assert {"sisfit.cli.main", "sisfit.sis.error_at_rank", "sisfit.__all__"} <= names
    assert sorted(n for n in names if not _dotted_resolves(n)) == []


def _unread_imports(path: Path) -> list:
    """The names a module's import statements bind and nothing in it reads.

    A name counts as read where it is loaded anywhere in the module or
    listed in its ``__all__``; ``__future__`` imports bind nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [name for name in bound if name not in read]


# the library constructors the README documents as the way to build discrete input
LIBRARY_CONSTRUCTORS = [("discrete.py", "DiscreteDataset", "from_sequences"),
                        ("discrete.py", "DiscretePartition", "from_mapping")]


def _unread_members(trees: dict) -> list:
    """(module, class, member) of every method and property of a class of
    ``trees`` (module name to AST) that no module reads as an attribute;
    dunder methods run by protocol and do not count."""
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(name, cls.name, node.name) for name, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__") and node.name not in read]


def test_the_member_lint_flags_members_no_module_reads():
    planted = ast.parse("class Grid:\n"
                        "    def translation_index(self, k): ...\n"
                        "    def label_index(self, pos): ...\n"
                        "    @property\n"
                        "    def section(self): ...\n"
                        "    def used(self): ...\n"
                        "    def __eq__(self, other): ...\n\n"
                        "def caller(grid, label_index):\n"
                        "    return grid.used(), label_index\n")
    assert _unread_members({"planted.py": planted}) == [("planted.py", "Grid", "translation_index"),
                                                        ("planted.py", "Grid", "label_index"),
                                                        ("planted.py", "Grid", "section")]


def test_every_module_function_is_read():
    # a name counts as read where any module of the package loads it, as a
    # name or an attribute, or where ``__all__`` lists it; ``main`` runs the
    # ``cmd_*`` commands by name.  A method or property counts as read only
    # as an attribute, and only the documented constructors may go unread
    files = sorted((ROOT / "src" / "sisfit").glob("*.py"))
    trees = {f.name: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    assert _unread_members(trees) == LIBRARY_CONSTRUCTORS
    read = set(sisfit.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    defined = [(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(defined) > 50
    assert [d for d in defined if d[1] not in read and not d[1].startswith("cmd_")] == []


def test_no_module_imports_a_name_it_never_reads():
    files = sorted((ROOT / "src" / "sisfit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    unread = [(str(f.relative_to(ROOT)), name) for f in files for name in _unread_imports(f)]
    assert unread == []


def test_package_imports_only_stdlib_and_numpy():
    # the package runs from a checkout with no build step: any import other
    # than the standard library, numpy and the package's own modules is a
    # new dependency
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    files = sorted((ROOT / "src" / "sisfit").glob("*.py"))
    assert len(files) > 10
    foreign = []
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(f.name, name) for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def test_no_row_reduction_idiom_over_short_int64_rows():
    # np.unique along an axis sorts rows as a structured dtype, and
    # ravel_multi_index over moveaxis builds a tuple of strided views: both
    # several times slower on (n, d) int64 arrays than a lexsort over the
    # columns or Horner steps over the coordinates
    files = sorted((ROOT / "src" / "sisfit").glob("*.py"))
    assert len(files) > 10
    found = []
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func.split(".")[-1] == "unique" and any(k.arg == "axis" for k in node.keywords):
                found.append((f.name, node.lineno, ast.unparse(node)))
            elif func.split(".")[-1] == "ravel_multi_index" and node.args and re.match(
                    r"tuple\((np|numpy)\.moveaxis\(", ast.unparse(node.args[0])):
                found.append((f.name, node.lineno, ast.unparse(node)))
    assert found == []


def test_only_sis_calls_the_stack_solver():
    # eig_hermitian_batch checks only finiteness: it takes the exactly
    # Hermitian stacks sis._gramians forms, and every other caller goes
    # through the checked eig_hermitian
    files = sorted((ROOT / "src" / "sisfit").glob("*.py"))
    assert len(files) > 10
    users = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "eig_hermitian_batch" for a in node.names):
                users.add(f.name)
            elif isinstance(node, ast.Attribute) and node.attr == "eig_hermitian_batch":
                users.add(f.name)
    assert users == {"sis.py"}


def test_compare_never_fits_a_pw_model():
    # compare reads every pw row from sweep_multitile, which sorts each box
    # once for all ranks; a fit_multitile per (rank, box) sorts it per rank
    tree = ast.parse((ROOT / "src" / "sisfit" / "cli.py").read_text(encoding="utf-8"))
    compare = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "cmd_compare")
    names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(compare)}
    assert "sweep_multitile" in names and "fit_multitile" not in names


def test_only_the_table_module_splits_scanned_lines_on_commas():
    # the row rule (column count, tokens, int64 range, finiteness) has one
    # owner: a reader of ``scan`` lines splits them with table.split_row
    found = []
    for f in sorted((ROOT / "src" / "sisfit").glob("*.py")):
        if f.name == "table.py":
            continue
        for fn in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
            if not any(getattr(c.func, "id", getattr(c.func, "attr", None)) == "scan" for c in calls):
                continue
            found += [(f.name, fn.name, c.lineno) for c in calls if isinstance(c.func, ast.Attribute)
                      and c.func.attr == "split" and c.args and isinstance(c.args[0], ast.Constant)
                      and c.args[0].value == ","]
    assert found == []


def test_only_the_home_block_check_numbers_records():
    # coset-support (extra) and block-support (discrete) share one
    # home-block check, the one caller of the block-numbering rule
    callers = []
    for f in sorted((ROOT / "src" / "sisfit").glob("*.py")):
        for fn in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                callers += [(f.name, fn.name) for node in ast.walk(fn) if isinstance(node, ast.Call)
                            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_misnumbered"]
    assert callers == [("verify.py", "_check_homes")]


def _functions():
    """(file name, function node) of every function of ``src/sisfit``."""
    for f in sorted((ROOT / "src" / "sisfit").glob("*.py")):
        for fn in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                yield f.name, fn


def test_the_table_readers_take_a_fixed_layout():
    # no reader of a table lets its first line set the dimension: that
    # rule belongs to the sequence table that needs it
    readers = {fn.name: fn for name, fn in _functions() if name == "table.py"
               and fn.name in ("read_table", "_loadtxt_table", "_scan_table")}
    assert len(readers) == 3
    loose = []
    for fn in readers.values():
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        defaults = fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]
        loose += [(fn.name, ast.unparse(d)) for d in defaults if isinstance(d, ast.Constant) and d.value is None]
        loose += [(fn.name, a.arg) for a in args if a.annotation is not None
                  and re.search(r"\b(None|Optional)\b", ast.unparse(a.annotation))]
    assert loose == []


def test_one_function_builds_every_explicit_partition():
    # the duplicate-position rule and the label order have one owner,
    # which both explicit constructors call
    builders = []
    for name, fn in _functions():
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("DiscretePartition", "cls")
                    and (any(k.arg == "mapping" for k in node.keywords) or len(node.args) >= 4)):
                builders.append((name, fn.name))
    assert builders == [("discrete.py", "_explicit")]


def _loadtxt_calls(tree) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "loadtxt"]


def test_only_the_plain_table_reader_calls_loadtxt():
    # text parsing has one owner: every other table goes through the
    # located line scanner
    files = sorted((ROOT / "src" / "sisfit").glob("*.py"))
    calls = sum(len(_loadtxt_calls(ast.parse(f.read_text(encoding="utf-8")))) for f in files)
    owners = [(name, fn.name) for name, fn in _functions() for _ in _loadtxt_calls(fn)]
    assert calls == 1 and owners == [("table.py", "_loadtxt_table")]


def _reads(expr, names: set) -> bool:
    """Whether ``expr`` reads a ``.samples`` attribute or one of ``names``."""
    return any(isinstance(n, ast.Attribute) and n.attr == "samples" or isinstance(n, ast.Name) and n.id in names
               for n in ast.walk(expr))


def _sample_squares(tree) -> set:
    """The functions of ``tree`` that square the samples of a dataset:
    ``x ** 2`` or ``square(x)`` where x reads ``.samples``, directly or
    through names bound to what does."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        binds = [(t.id, node.value) for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)]
        aliases, size = set(), -1
        while len(aliases) != size:
            size = len(aliases)
            aliases |= {name for name, value in binds if _reads(value, aliases)}
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and ast.unparse(node.right) == "2":
                squared = [node.left]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "square":
                squared = node.args[:1]
            else:
                squared = []
            if any(_reads(x, aliases) for x in squared):
                found.add(fn.name)
    return found


def test_only_spectral_squares_the_samples():
    # the sample squares have one spelling, which every energy and weight
    # reduces; the lint sees the spellings it replaced
    spelled = {"s = ds.samples\nw = (s.real**2 + s.imag**2).sum(axis=0)", "e = (np.abs(ds.samples) ** 2).sum()",
               "t = ds.samples.transpose(1, 0, 2)\nsq = np.square(t.imag)"}
    for body in spelled:
        assert _sample_squares(ast.parse("def f(ds):\n" + "".join(f"    {ln}\n" for ln in body.splitlines()))) == {"f"}
    owners = {(f.name, name) for f in sorted((ROOT / "src" / "sisfit").glob("*.py"))
              for name in _sample_squares(ast.parse(f.read_text(encoding="utf-8")))}
    assert owners == {("spectral.py", "_squares")}


def test_verify_forms_the_sample_squares_once_per_check():
    # a check takes its energy and its cell or translation weights from one
    # _squares, not from total_energy and multitile._weights, which square anew
    tree = ast.parse((ROOT / "src" / "sisfit" / "verify.py").read_text(encoding="utf-8"))
    names = [getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))]
    assert "total_energy" not in names and "_weights" not in names
    calls = {fn.name: sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_squares" for n in ast.walk(fn))
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert {name: n for name, n in calls.items() if n} == {"_check_spectral": 1, "_check_pw": 1}


def _flat_key_calls(tree) -> set:
    """(function, callee) of each ``ravel_multi_index`` or ``bincount``
    call in the functions of ``tree``."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            callees = {getattr(node.func, "attr", getattr(node.func, "id", None))
                       for node in ast.walk(fn) if isinstance(node, ast.Call)}
            found |= {(fn.name, callee) for callee in callees & {"ravel_multi_index", "bincount"}}
    return found


def test_only_one_row_per_key_builds_a_flat_key_index():
    # the keyed-table rule has one owner, whose in-order check runs first:
    # a second reader that built its own flat key index would bypass it
    planted = {"flat = np.ravel_multi_index(keys, sizes)", "counts = np.bincount(ints[:, 0], minlength=n)"}
    for body in planted:
        assert _flat_key_calls(ast.parse(f"def _cell_rows(path, ints, keys, sizes, n):\n    {body}\n")) != set()
    calls = {(f.name, *call) for f in sorted((ROOT / "src" / "sisfit").glob("*.py"))
             for call in _flat_key_calls(ast.parse(f.read_text(encoding="utf-8")))}
    assert calls == {
        ("table.py", "one_row_per_key", "ravel_multi_index"),
        ("table.py", "one_row_per_key", "bincount"),
        # the repeat finder of one_row_per_key and of the discrete sequence
        # table, whose rows are any subset of its keys
        ("table.py", "repeats", "bincount"),
        # the record count of each home block: no table key
        ("discrete.py", "fit_discrete", "bincount"),
        ("verify.py", "_check_discrete", "bincount"),
    }
