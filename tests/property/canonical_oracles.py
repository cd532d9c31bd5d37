"""Reference implementations of the canonical-query machinery.

These are the straightforward versions the library used before type
generators were memoised by shape: ``canonical_query`` scans every fact
of the structure for every subset, connected subsets read adjacency
through :meth:`Structure.facts_about`, and ``canonical`` renames by
repeated :meth:`ConjunctiveQuery.substitute` calls.  The property tests
in ``test_generator_table.py`` check the library against them.
"""

from typing import Dict, List, Set

from repro.lf import Atom, ConjunctiveQuery, Constant, Variable
from repro.lf.canonical import FREE_VARIABLE


def oracle_canonical(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """``ConjunctiveQuery.canonical`` by iterated substitution."""

    def renaming(current: ConjunctiveQuery) -> Dict[Variable, Variable]:
        mapping: Dict[Variable, Variable] = {}
        for index, var in enumerate(current.free):
            mapping[var] = Variable(f"f{index}")
        counter = 0
        for item in current.atoms:
            for arg in item.args:
                if isinstance(arg, Variable) and arg not in mapping:
                    mapping[arg] = Variable(f"v{counter}")
                    counter += 1
        return mapping

    current = query.substitute(renaming(query))
    for _ in range(3):
        renamed = current.substitute(renaming(current))
        if renamed == current:
            break
        current = renamed
    return current


def oracle_canonical_query(
    structure, elements, distinguished, relation_names=None, skip_constant_only=False
) -> ConjunctiveQuery:
    """``canonical_query`` by a scan of every fact."""
    chosen = set(elements)
    if distinguished not in chosen:
        raise ValueError("distinguished element must belong to the subset")
    allowed = set(relation_names) if relation_names is not None else None
    table: Dict[object, object] = {}
    counter = 0
    for element in sorted(chosen, key=str):
        if element == distinguished:
            table[element] = FREE_VARIABLE
        elif isinstance(element, Constant):
            table[element] = element
        else:
            table[element] = Variable(f"x{counter}")
            counter += 1
    atoms: List[Atom] = []
    for fact in structure.facts():
        if allowed is not None and fact.pred not in allowed:
            continue
        if not all(arg in chosen for arg in fact.args):
            continue
        if skip_constant_only and all(
            isinstance(arg, Constant) and arg != distinguished for arg in fact.args
        ):
            continue
        atoms.append(Atom(fact.pred, tuple(table[arg] for arg in fact.args)))
    if isinstance(distinguished, Constant):
        atoms.append(Atom("=", (FREE_VARIABLE, distinguished)))
    if not any(FREE_VARIABLE in a.variable_set() for a in atoms):
        atoms.append(Atom("=", (FREE_VARIABLE, FREE_VARIABLE)))
    return ConjunctiveQuery(atoms, (FREE_VARIABLE,))


def oracle_connected_subsets(structure, anchor, max_size, relation_names=None):
    """``connected_subsets_containing`` with adjacency from ``facts_about``."""
    allowed = frozenset(relation_names) if relation_names is not None else None

    def neighbours(element):
        found = set()
        for fact in structure.facts_about(element):
            if allowed is not None and fact.pred not in allowed:
                continue
            for arg in fact.args:
                if arg != element and not isinstance(arg, Constant):
                    found.add(arg)
        return sorted(found, key=str)

    chosen = [anchor]
    banned: Set[object] = {anchor}

    def frontier():
        found = set()
        for member in chosen:
            for neighbour in neighbours(member):
                if neighbour not in banned:
                    found.add(neighbour)
        return sorted(found, key=str)

    def walk(remaining):
        yield frozenset(chosen)
        if remaining == 0:
            return
        declined = []
        for candidate in frontier():
            chosen.append(candidate)
            banned.add(candidate)
            yield from walk(remaining - 1)
            chosen.pop()
            declined.append(candidate)
        for candidate in declined:
            banned.discard(candidate)

    yield from walk(max_size - 1)


def oracle_type_queries(structure, element, n, relation_names=None):
    """``type_queries`` from the oracles above, deduplicated by
    ``oracle_canonical``."""
    names = frozenset(relation_names) if relation_names is not None else None
    constants = structure.constant_elements()
    queries, seen = [], set()
    for subset in oracle_connected_subsets(structure, element, n, names):
        query = oracle_canonical_query(
            structure, set(subset) | set(constants), element, names, True
        )
        marker = oracle_canonical(query)
        if marker not in seen:
            seen.add(marker)
            queries.append(query)
    return queries


def oracle_boolean_type_queries(structure, max_variables, relation_names=None):
    """``boolean_type_queries`` from the oracles above."""
    if max_variables < 1:
        return []
    names = frozenset(relation_names) if relation_names is not None else None
    constants = structure.constant_elements()
    queries, seen = [], set()
    for anchor in sorted(structure.domain(), key=str):
        for subset in oracle_connected_subsets(structure, anchor, max_variables, names):
            query = oracle_canonical_query(
                structure, set(subset) | set(constants), anchor, names, True
            ).boolean()
            marker = oracle_canonical(query)
            if marker not in seen:
                seen.add(marker)
                queries.append(query)
    return queries
