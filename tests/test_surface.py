"""Every public module-level function or class in `src/monocube`, and
every public method or property of its classes, is reached from the
program, or has an entry in `ALLOWED` that says why it stays.  A name is
reached when a top-level statement that is not a definition
(``__main__``'s call of `cli.main`, a module constant) names it, or when
a reached definition's body does.  A member ``Class.name`` is reached
when such a statement or body names it as an attribute (``x.name``).
Code that only tests call belongs beside its tests
(`tests/poset_oracles.py`, `tests/proof_checks.py`)."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "monocube")

ALLOWED = {
    # names the benchmark (perfbench/) wraps or runs
    "canonical_rank": "perfbench's tracer wraps it by name",
    "pair_tester": "perfbench's tracer wraps it by name",
    "profile_dump": "perfbench runs it as the profile_dump job",
    "anti_dictator": "perfbench's workloads build the anti-dictator input with it",
    # names an open ROADMAP item gives a caller
    "worst_coloring": "ROADMAP item 6: --coloring worst",
    "edge_tester": "ROADMAP item 4: rejection against queries for the edge tester",
    "witness_matching": "ROADMAP item 4: the hard instance's ground truth",
    "witness_matching_size": "ROADMAP item 4: epsilon >= |M| / 2^d in closed form",
    "cap_set": "ROADMAP item 4: the query-capture bound",
    "violation_witness_count": "ROADMAP item 4: exposed family members against w|Q|/d",
    "weight_function": "ROADMAP items 4 and 10: the weight-threshold inputs",
    "PosetDomain.sweeping_graph": "perfbench's tracer wraps it by name, and it is the "
                                  "tests' reference for the merge's graphs (ROADMAP item 1)",
    # other reasons
    "pair_draws": "the one-trial form of Schedule.draw's pair picks, which the tests "
                  "check against D_pair exactly",
    "capture": "the paper's capture event at one vertex, which mu_exact and "
               "mu_estimate count in bulk",
}


def parsed_modules():
    """Each module of `src/monocube`, by name, with its syntax tree."""
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename)) as fh:
                yield filename[:-3], ast.parse(fh.read(), filename)


def read_definitions():
    """Each top-level def or class of `src/monocube` with its module, the
    names its body mentions and the attribute names among them; the same
    two sets for the other top-level statements (the program's entry
    points); and each class's public methods and properties as
    ``Class.name``, with their module.  Imports mention nothing: an
    imported name counts once it is used."""
    definitions, entry, members = {}, (set(), set()), {}
    for module, tree in parsed_modules():
        for node in tree.body:
            subs = list(ast.walk(node))
            attributes = {sub.attr for sub in subs if isinstance(sub, ast.Attribute)}
            mentioned = attributes | {sub.id for sub in subs if isinstance(sub, ast.Name)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name] = (module, mentioned - {node.name}, attributes)
            else:
                entry[0].update(mentioned)
                entry[1].update(attributes)
            if isinstance(node, ast.ClassDef):
                members.update((f"{node.name}.{item.name}", module)
                               for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
    return definitions, entry, members


def reachable(definitions, roots):
    """The names reachable from ``roots`` through the definitions' bodies."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(definitions.get(name, ("", ()))[1])
    return seen


def unreached(definitions, entry, members, allowed):
    """The public definitions and members that neither the entry points nor
    the ``allowed`` names reach, each with its module."""
    live = reachable(definitions, entry[0] | allowed)
    named = entry[1].union(*(definitions[name][2] for name in live if name in definitions))
    found = {name: module for name, (module, *_) in definitions.items()
             if not name.startswith("_") and name not in live}
    found.update((member, module) for member, module in members.items()
                 if member not in allowed and member.rpartition(".")[2] not in named)
    return found


def test_every_public_name_is_reached_from_the_program():
    unused = [f"{module}.{name}" for name, module
              in unreached(*read_definitions(), ALLOWED.keys()).items()]
    assert unused == [], f"not reached from the program and no reason in ALLOWED: {unused}"


def test_every_allowed_name_is_defined_and_otherwise_unreached():
    definitions, entry, members = read_definitions()
    stale = sorted(name for name in ALLOWED if name not in definitions.keys() | members.keys()
                   or name not in unreached(definitions, entry, members,
                                            ALLOWED.keys() - {name}))
    assert stale == [], f"ALLOWED names that are gone or now reached: {stale}"


def private_reads():
    """Each ``x._name`` in `src/monocube` whose object is not ``self`` or
    ``cls``, as ``module:line: source``; dunder names are not private."""
    found = []
    for module, tree in parsed_modules():
        found += [f"{module}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not node.attr.startswith("__")
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    return found


def test_no_module_reads_another_objects_private_attributes():
    # a class's private state is read only by its own methods; other
    # modules go through its public names
    assert private_reads() == []


def imported_modules(node):
    """The modules an import statement names, a relative import's as
    ``monocube.<name>``; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"monocube.{node.module or ''}" if node.level else node.module or ""]
    return []


def nested_package_imports():
    """Each ``from .x import`` or ``import monocube...`` in `src/monocube`
    that is not a statement of its module's body (it sits in a function,
    a class or an ``if``), as ``module:line: source``."""
    found = []
    for module, tree in parsed_modules():
        found += [f"{module}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree) if node not in tree.body
                  and any(name.partition(".")[0] == "monocube"
                          for name in imported_modules(node))]
    return found


def test_package_imports_sit_at_module_top_level():
    # a module's dependencies on the package are read off its first lines,
    # and they run one way: poset <- funcs <- {isoperimetry, oracles} <- ...
    assert nested_package_imports() == []


def random_module_imports():
    """Each import of Python's `random` module in `src/monocube`, anywhere
    in a module, as ``module:line: source``."""
    found = []
    for module, tree in parsed_modules():
        found += [f"{module}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if any(name.partition(".")[0] == "random" for name in imported_modules(node))]
    return found


def test_no_module_imports_the_random_module():
    # every random draw comes from a numpy Generator seeded through
    # seeds.derive_seed, so the package has one kind of random stream
    assert random_module_imports() == []
