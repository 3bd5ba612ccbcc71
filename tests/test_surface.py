"""Every public module-level function or class in `src/monocube` is
reached from the program, or has an entry in `ALLOWED` that says why it
stays.  A name is reached when a top-level statement that is not a
definition (``__main__``'s call of `cli.main`, a module constant) names
it, or when a reached definition's body does.  Code that only tests call
belongs beside its tests (`tests/poset_oracles.py`,
`tests/proof_checks.py`)."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "monocube")

ALLOWED = {
    # names the benchmark (perfbench/) wraps or runs
    "canonical_rank": "perfbench's tracer wraps it by name",
    "colored_counts": "perfbench's tracer wraps it by name",
    "profile_dump": "perfbench runs it as the profile_dump job",
    "anti_dictator": "perfbench's workloads build the anti-dictator input with it",
    # names an open ROADMAP item gives a caller
    "worst_coloring": "ROADMAP item 6: --coloring worst",
    "edge_tester": "ROADMAP item 4: rejection against queries for the edge tester",
    "witness_matching": "ROADMAP item 4: the hard instance's ground truth",
    "witness_matching_size": "ROADMAP item 4: epsilon >= |M| / 2^(d+1) in closed form",
    "cap_set": "ROADMAP item 4: the query-capture bound",
    "violation_witness_count": "ROADMAP item 4: exposed family members against w|Q|/d",
    "weight_function": "ROADMAP items 4 and 10: the weight-threshold inputs",
    # other reasons
    "capture": "the paper's capture event at one vertex, which mu_exact and "
               "mu_estimate count in bulk",
}


def read_definitions():
    """Each top-level def or class of `src/monocube` with its module and
    the names its body mentions, and the names the other top-level
    statements mention (the program's entry points).  Imports mention
    nothing: an imported name counts once it is used."""
    definitions, entry = {}, set()
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(SRC, filename)) as fh:
            tree = ast.parse(fh.read(), filename)
        for node in tree.body:
            mentioned = {sub.id if isinstance(sub, ast.Name) else sub.attr
                         for sub in ast.walk(node)
                         if isinstance(sub, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name] = (filename[:-3], mentioned - {node.name})
            else:
                entry |= mentioned
    return definitions, entry


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


def test_every_public_name_is_reached_from_the_program():
    definitions, entry = read_definitions()
    live = reachable(definitions, entry | ALLOWED.keys())
    unused = [f"{module}.{name}" for name, (module, _) in definitions.items()
              if not name.startswith("_") and name not in live]
    assert unused == [], f"not reached from the program and no reason in ALLOWED: {unused}"


def test_every_allowed_name_is_defined_and_otherwise_unreached():
    definitions, entry = read_definitions()
    stale = sorted(name for name in ALLOWED if name not in definitions
                   or name in reachable(definitions, entry | (ALLOWED.keys() - {name})))
    assert stale == [], f"ALLOWED names that are gone or now reached: {stale}"
