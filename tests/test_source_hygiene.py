"""Static checks on the package source.

``assert`` statements vanish under ``python -O``, so no output may depend on
one; every name the package exports must still exist; dense matrices exist
only as text in the file format, so the tests' dense converters
(``helpers.py``) appear nowhere in the package, ``fileio.py`` included; no
module uses another object's private attributes; every public function,
class and method is called from the package or the benchmark, or is listed
with its reason in ``KEPT``, and every method name that such a call cannot
tell apart is listed with its reason in ``SHARED_NAMES``; every private
top-level function and method is called from elsewhere in the package;
every module but ``__init__.py`` uses every name it imports; only the
modules in ``CHARACTERISTIC_READERS`` tell F_p from Q by reading a field's
``characteristic``; and only ``fields.py`` reads a scalar's numerator or
denominator, so scaling rationals to ints happens in one place.
"""

import ast
import functools
import pathlib
import re

import nilrep

SRC = pathlib.Path(nilrep.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# Public definitions that nothing in the package or the benchmark calls, kept
# on purpose; each value says what needs the name.
KEPT = {
    "LieAlgebra.betti2": "acceptance criterion 6d checks b2(f_n) = 2",
    "LieAlgebra.quotient": "the structural tool that generates quotient algebras",
    "abelian_algebra": "the public constructor of an abelian algebra",
    "regular_unpruned": "acceptance criterion 1 checks the unpruned module dimension",
    "nu": "acceptance criterion 2 checks the closed-form dimension bound",
    "enumerate_monomials": "acceptance criterion 2 counts the monomials with it",
    "pfaff_check": "acceptance criterion 6c checks the Pfaff identities of f_n",
    "is_homomorphism": "the README's library example checks a result with it",
}

# Public method names that more than one class defines, or that are also a
# data attribute (a slot, a dataclass field or a ``self.x =`` target): the
# caller check counts every ``x.name`` as a call of each, so a new clash must
# be reviewed and listed here; each value says why the callers are real.
SHARED_NAMES = {
    "dim": "the properties Subspace.dim, PrunedModule.dim and Representation.dim "
           "are each read (basis.dim, module.dim, rep.dim); LieAlgebra.dim is a slot",
    "field": "the property Representation.field is read (rep.field in fileio, quotient "
             "and representation); LieAlgebra, Subspace, SparseMatrix and TruncatedUEA "
             "store a field",
}

# The modules that read ``Field.characteristic``; each value says why.  Any
# other difference between F_p and Q belongs in a ``Field`` method.
CHARACTERISTIC_READERS = {
    "fields.py": "the field arithmetic itself",
    "fileio.py": "the field descriptor of the file format",
    "cli.py": "the summary names the field",
}


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_every_exported_name_resolves():
    missing = [name for name in nilrep.__all__ if not hasattr(nilrep, name)]
    assert missing == []
    assert len(set(nilrep.__all__)) == len(nilrep.__all__)


def test_dense_converters_only_in_fileio():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\b(to_dense|from_dense)\b", line):
                found.append("%s:%d" % (path.name, lineno))
    assert found == []


def test_no_private_attribute_used_from_outside():
    # ``x._name`` with x other than self or cls reaches into another object's
    # storage; dunders such as ``__class__`` are public protocol
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            if not own and not node.attr.endswith("__"):
                found.append("%s:%d %s" % (path.name, node.lineno, node.attr))
    assert found == []


def test_no_unused_imports_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # imports there are the exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in imported.items() if name not in used]
    assert sorted(found) == []


@functools.cache
def _tree(path: pathlib.Path) -> ast.Module:
    """The parsed source of ``path``, one tree per file, so that a definition
    found in it is the same node that owns the references inside it."""
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(private: bool = False):
    """(qualified name, node) of every top-level def/class and method whose
    name is public, or with ``private`` private; dunders are neither."""
    def wanted(name):
        if private:
            return name.startswith("_") and not name.endswith("__")
        return not name.startswith("_")

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if wanted(node.name):
                found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and wanted(sub.name):
                        found.append(("%s.%s" % (node.name, sub.name), sub))
    return found


def _references(bench: bool = True):
    """(names, attributes): name -> the definitions (or modules) whose code
    mentions it as a bare Name, and as an Attribute (``x.name``), in the
    package and, with ``bench``, the benchmark; imports, string literals and
    docstrings are not references."""
    names, attrs = {}, {}

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                names.setdefault(child.id, set()).add(owner)
            elif isinstance(child, ast.Attribute):
                attrs.setdefault(child.attr, set()).add(owner)
            walk(child, child if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner)

    paths = sorted(SRC.glob("*.py"))
    if bench:
        bench_paths = [p for p in sorted(PERFBENCH.glob("*.py")) if not p.name.startswith("test_")]
        assert bench_paths, PERFBENCH
        paths += bench_paths
    for path in paths:
        tree = _tree(path)
        walk(tree, tree)
    return names, attrs


def _uncalled(definitions, references) -> set:
    """The qualified names among ``definitions`` that no reference reaches."""
    names, attrs = references
    uncalled = set()
    for qualname, node in definitions:
        owner, _, name = qualname.rpartition(".")
        # a method is called only as ``x.name``: a bare name of the same
        # spelling is some local variable
        refs = attrs.get(name, set())
        if not owner:
            refs = refs | names.get(name, set())
        # a recursive call from inside the definition itself does not count
        if not refs - {node}:
            uncalled.add(qualname)
    return uncalled


def test_every_public_definition_has_a_caller():
    uncalled = _uncalled(_definitions(), _references())
    assert sorted(uncalled - set(KEPT)) == []
    # an entry that is gone or has gained a caller no longer needs keeping
    assert sorted(set(KEPT) - uncalled) == []


def test_every_private_definition_has_a_caller():
    # a private name is called from inside the package only
    private = _definitions(private=True)
    assert private
    assert sorted(_uncalled(private, _references(bench=False))) == []


def test_only_the_listed_modules_read_the_characteristic():
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Attribute) and node.attr == "characteristic"
               for node in ast.walk(tree)):
            readers.add(path.name)
    assert sorted(readers - set(CHARACTERISTIC_READERS)) == []
    # an entry whose module no longer reads it no longer needs keeping
    assert sorted(set(CHARACTERISTIC_READERS) - readers) == []


def _data_attributes():
    """Slots, dataclass fields and ``self.x =`` targets of every class."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                        found.add(sub.target.id)
                    elif (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                          and isinstance(sub.targets[0], ast.Name)
                          and sub.targets[0].id == "__slots__"):
                        found.update(ast.literal_eval(sub.value))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.add(node.attr)
    return found


def test_every_shared_method_name_is_listed():
    owners = {}
    for qualname, _node in _definitions():
        owner, _, name = qualname.rpartition(".")
        if owner:
            owners.setdefault(name, set()).add(owner)
    data = _data_attributes()
    shared = {name for name, classes in owners.items() if len(classes) > 1 or name in data}
    assert sorted(shared) == sorted(SHARED_NAMES)


def test_only_fields_reads_numerators_and_denominators():
    readers, lcm = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
                readers.add(path.name)
            if (isinstance(node, ast.Attribute) and node.attr == "denominator_lcm"
                    or isinstance(node, ast.Name) and node.id == "denominator_lcm"
                    or isinstance(node, ast.FunctionDef) and node.name == "denominator_lcm"):
                lcm.append("%s:%d" % (path.name, node.lineno))
    assert sorted(readers) == ["fields.py"]
    assert lcm == []
