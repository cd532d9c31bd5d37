"""The shape-keyed generator table agrees with the reference oracles.

Type generators are built through a :class:`~repro.ptypes.GeneratorTable`
keyed by subquery shape, with each structure's facts read through one
:class:`~repro.lf.canonical.Incidence`, and ``ConjunctiveQuery.canonical``
renames in one pass over plain tuples.  Each of these must give exactly
what the straightforward versions in :mod:`.canonical_oracles` give:

* ``type_queries`` / ``boolean_type_queries`` return the oracle's lists
  in the same order, with a fresh table and with one table shared
  across two different structures;
* ``canonical()`` equals the oracle on atoms (in order), free tuple and
  hash — constants, equality atoms and constants spelled like the
  canonical variable names included.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lf import Atom, ConjunctiveQuery, Constant, Variable, canonical_query
from repro.ptypes import GeneratorTable, boolean_type_queries, type_queries

from .canonical_oracles import (
    oracle_boolean_type_queries,
    oracle_canonical,
    oracle_canonical_query,
    oracle_type_queries,
)
from .strategies import binary_preds, structures, unary_preds

RELAXED = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
SIZES = st.integers(min_value=1, max_value=3)


def _anchors(structure):
    return sorted(structure.domain(), key=str)[:5]


class TestTypeQueriesMatchOracle:
    @RELAXED
    @given(structures(min_facts=1, max_facts=10), SIZES)
    def test_fresh_table(self, structure, n):
        for element in _anchors(structure):
            assert type_queries(structure, element, n) == oracle_type_queries(
                structure, element, n
            )

    @RELAXED
    @given(structures(min_facts=1, max_facts=10), SIZES, st.sampled_from(["E", "U"]))
    def test_sub_signature(self, structure, n, dropped):
        names = {"E", "R", "S", "U", "V"} - {dropped}
        for element in _anchors(structure):
            assert type_queries(structure, element, n, names) == oracle_type_queries(
                structure, element, n, names
            )

    @RELAXED
    @given(
        structures(min_facts=1, max_facts=10),
        structures(min_facts=1, max_facts=10),
        SIZES,
    )
    def test_table_shared_across_structures(self, first, second, n):
        table = GeneratorTable()

        def check(structure):
            for element in _anchors(structure):
                assert type_queries(
                    structure, element, n, table=table
                ) == oracle_type_queries(structure, element, n)
            assert boolean_type_queries(
                structure, n, table=table
            ) == oracle_boolean_type_queries(structure, n)

        check(first)
        check(second)
        built = len(table)
        check(first)
        assert len(table) == built  # a repeated structure builds nothing new


class TestBooleanTypeQueriesMatchOracle:
    @RELAXED
    @given(structures(min_facts=1, max_facts=10), SIZES)
    def test_fresh_table(self, structure, n):
        assert boolean_type_queries(structure, n) == oracle_boolean_type_queries(
            structure, n
        )


class TestCanonicalQueryMatchesOracle:
    @RELAXED
    @given(structures(min_facts=1, max_facts=10), st.data())
    def test_every_subset_choice(self, structure, data):
        domain = sorted(structure.domain(), key=str)
        anchor = data.draw(st.sampled_from(domain))
        others = data.draw(st.sets(st.sampled_from(domain), max_size=4))
        skip = data.draw(st.booleans())
        chosen = others | {anchor}
        assert canonical_query(
            structure, chosen, anchor, skip_constant_only=skip
        ) == oracle_canonical_query(structure, chosen, anchor, skip_constant_only=skip)


# Constants include names the renaming itself produces (v0, f0), so atoms
# whose sort keys tie (a variable and a constant spelled alike) occur.
_terms = st.one_of(
    st.builds(Variable, st.sampled_from(["x", "y", "z", "u", "v0", "f0"])),
    st.builds(Constant, st.sampled_from(["a", "b", "v0", "f0"])),
)


@st.composite
def _atoms(draw):
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return Atom(draw(binary_preds), (draw(_terms), draw(_terms)))
    if kind == 1:
        return Atom(draw(unary_preds), (draw(_terms),))
    return Atom("=", (draw(_terms), draw(_terms)))


@st.composite
def _queries(draw):
    atoms = draw(st.lists(_atoms(), min_size=1, max_size=5))
    pool = sorted({v for a in atoms for v in a.variable_set()})
    free = ()
    if pool:
        shuffled = draw(st.permutations(pool))
        free = tuple(shuffled[: draw(st.integers(min_value=0, max_value=len(pool)))])
    return ConjunctiveQuery(atoms, free)


class TestCanonicalMatchesOracle:
    @settings(
        max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None
    )
    @given(_queries())
    def test_atoms_free_and_hash(self, query):
        mine, theirs = query.canonical(), oracle_canonical(query)
        assert mine.atoms == theirs.atoms
        assert mine.free == theirs.free
        assert hash(mine) == hash(theirs)
        assert mine == theirs
