"""Conservativity (Definitions 8 and 9) and the (♠2)/(♠3) distinction.

A coloring C̄ of C is *n-conservative up to size m* when the quotient
``q_n : C̄ → M_n^{Σ̄}(C̄)`` preserves every element's positive m-type
over the base signature Σ:

    (♠2)   ptp_m(C, e, Σ) = ptp_m(M_n^{Σ̄}(C̄), q_n(e), Σ)   for all e.

The "⊆" direction is automatic: ``q_n`` is a homomorphism fixing the
constants, and conjunctive queries are preserved under such maps.  The
checker therefore verifies only the "⊇" direction — every type query of
the quotient image must already hold at the source element.

Remark 3 separates (♠2) from the weaker

    (♠3)   C ⊨ Ψ ⟺ M_n^{Σ̄}(C̄) ⊨ Ψ   for every Boolean CQ with ≤ m
           variables,

which :func:`spade3_holds` checks independently (experiment E06).

A structure is *ptp-conservative* (Definition 9) when for every m some
coloring and some n witness conservativity; :func:`find_conservative`
performs the search with natural colorings and increasing n — the exact
shape of the paper's proof of the Main Lemma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConservativityError
from ..lf.canonical import Incidence
from ..lf.homomorphism import satisfies
from ..lf.queries import ConjunctiveQuery
from ..lf.structures import Structure
from ..lf.terms import Element
from ..ptypes.ptype import GeneratorTable, boolean_type_queries, type_queries
from ..ptypes.quotient import Quotient, quotient
from ..runtime.guard import NULL_GUARD, RuntimeGuard
from .colors import ColoredStructure
from .natural import natural_coloring


@dataclass
class ConservativityReport:
    """Outcome of a conservativity check.

    Attributes
    ----------
    conservative:
        The verdict for the given (coloring, n, m).
    witness_element:
        On failure: an element whose type grew under the quotient.
    witness_query:
        On failure: a query true at ``q_n(e)`` in the quotient but not
        at ``e`` in the source (the Ψ of Remark 2).
    quotient:
        The quotient that was inspected (reusable by the caller).
    """

    conservative: bool
    quotient: Quotient
    witness_element: "Optional[Element]" = None
    witness_query: "Optional[ConjunctiveQuery]" = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.conservative


def conservativity_report(
    colored: ColoredStructure,
    n: int,
    m: int,
    prebuilt: "Optional[Quotient]" = None,
    table: "Optional[GeneratorTable]" = None,
    guard: RuntimeGuard = NULL_GUARD,
) -> ConservativityReport:
    """Check whether *colored* is n-conservative up to size *m* (Def. 8).

    Types in the quotient are computed over the **base** signature Σ
    (colors are only the glue that keeps the quotient fine enough);
    types used to *build* the quotient are over the full Σ̄.  *table*
    shares generators with the caller's other type computations (see
    :class:`~repro.ptypes.ptype.GeneratorTable`).  *guard* is polled
    once per sentence, image and source element; a trip raises
    :class:`~repro.runtime.GuardTripped` for the caller to translate.
    """
    quotiented = prebuilt or quotient(colored.structure, n)
    base_names = colored.base_relations
    source = colored.structure  # queries over Σ see through the colors
    table = table if table is not None else GeneratorTable()
    incidence = Incidence(quotiented.structure)

    # Boolean components first: every connected sentence of the quotient
    # with at most m-1 variables must already hold in the source (this
    # is the (♠3) part of a full m-variable query whose y-component is
    # checked per element below).
    for sentence in boolean_type_queries(
        quotiented.structure, m - 1, base_names, table, incidence
    ):
        guard.checkpoint()
        if not satisfies(source, sentence):
            return ConservativityReport(
                conservative=False,
                quotient=quotiented,
                witness_element=None,
                witness_query=sentence,
            )

    # Group source elements by their image to compute each image's type
    # queries once.
    fibers: Dict[Element, List[Element]] = {}
    for element in source.domain():
        if element not in quotiented.projection:
            continue  # outside a restricted (interior) quotient
        fibers.setdefault(quotiented.project(element), []).append(element)

    for image in sorted(fibers, key=str):
        guard.checkpoint()
        image_queries = type_queries(
            quotiented.structure, image, m, base_names, table, incidence
        )
        for element in sorted(fibers[image], key=str):
            guard.checkpoint()
            for query in image_queries:
                if not satisfies(source, query, {query.free[0]: element}):
                    return ConservativityReport(
                        conservative=False,
                        quotient=quotiented,
                        witness_element=element,
                        witness_query=query,
                    )
    return ConservativityReport(conservative=True, quotient=quotiented)


def is_conservative(colored: ColoredStructure, n: int, m: int) -> bool:
    """Boolean form of :func:`conservativity_report`."""
    return conservativity_report(colored, n, m).conservative


@dataclass
class ConservativeWitness:
    """A successful conservativity search.

    Attributes
    ----------
    colored:
        The coloring C̄ used (a natural coloring unless overridden).
    n:
        The quotient parameter that worked.
    m:
        The preserved type size.
    quotient:
        The finite structure ``M_n^{Σ̄}(C̄)`` with its projection.
    attempts:
        The values of n that were tried (diagnostics).
    """

    colored: ColoredStructure
    n: int
    m: int
    quotient: Quotient
    attempts: List[int] = field(default_factory=list)


def find_conservative(
    structure: Structure,
    m: int,
    n_start: "Optional[int]" = None,
    n_max: "Optional[int]" = None,
    coloring: "Optional[ColoredStructure]" = None,
) -> ConservativeWitness:
    """Search for n making a (natural) coloring n-conservative up to m.

    This executes Definition 9 / the Main Lemma constructively: fix the
    natural coloring, try ``n = n_start, n_start+1, …, n_max``.

    Raises
    ------
    ConservativityError
        When no n in the range works — for VTDAGs this means the range
        was too small (Lemma 2 guarantees success eventually); for
        non-VTDAGs it may be a genuine impossibility (Example 6).
    """
    colored = coloring if coloring is not None else natural_coloring(structure, m)
    first = n_start if n_start is not None else m
    last = n_max if n_max is not None else m + 4
    attempts: List[int] = []
    for n in range(first, last + 1):
        attempts.append(n)
        report = conservativity_report(colored, n, m)
        if report.conservative:
            return ConservativeWitness(
                colored=colored,
                n=n,
                m=m,
                quotient=report.quotient,
                attempts=attempts,
            )
    raise ConservativityError(
        f"no n in [{first}, {last}] makes the coloring conservative up to "
        f"size {m} (structure with {structure.domain_size} elements)"
    )


def spade3_holds(
    colored: ColoredStructure,
    n: int,
    m: int,
    prebuilt: "Optional[Quotient]" = None,
) -> Tuple[bool, "Optional[ConjunctiveQuery]"]:
    """Check the weaker condition (♠3) of Remark 3.

    Every Boolean CQ over Σ with at most *m* variables true in the
    quotient must be true in C (the converse is automatic).  Returns
    ``(verdict, counterexample_query)``.
    """
    quotiented = prebuilt or quotient(colored.structure, n)
    base_names = colored.base_relations
    source = colored.structure
    for sentence in boolean_type_queries(
        quotiented.structure, m, relation_names=base_names
    ):
        if not satisfies(source, sentence):
            return False, sentence
    return True, None
