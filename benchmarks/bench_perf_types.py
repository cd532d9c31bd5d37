"""P02 — positive-type machinery scaling: ``≡_n`` in |C| and n.

Partitioning chains and trees; the canonical-subquery reduction with
connected-subset enumeration should stay polynomial on these shapes.
The last case runs the Theorem-2 pipeline's type phases on one colored
skeleton, with one generator table shared across η (the pipeline's
pattern) and, for contrast, a fresh table per phase.
"""

import pytest

from repro.chase import ChaseConfig, chase
from repro.coloring import conservativity_report, natural_coloring
from repro.core import build_finite_counter_model, prepare
from repro.core.finite_model import _interior_elements, _level_gap
from repro.ptypes import GeneratorTable, TypePartition, quotient
from repro.skeleton import skeleton_of_chase
from repro.zoo import binary_tree_structure, chain_structure, theorem2_corpus


@pytest.mark.parametrize("length", [25, 50, 100])
def test_partition_scaling_in_size(benchmark, length):
    structure = chain_structure(length)

    def run():
        return TypePartition(structure, 3).classes()

    classes = benchmark(run)
    benchmark.extra_info["length"] = length
    benchmark.extra_info["classes"] = len(classes)
    assert len(classes) == 5  # boundary effects only


@pytest.mark.parametrize("n", [2, 3, 4])
def test_partition_scaling_in_n(benchmark, n):
    structure = chain_structure(40)

    def run():
        return TypePartition(structure, n).classes()

    classes = benchmark(run)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["classes"] = len(classes)
    assert len(classes) == 2 * n - 1


@pytest.mark.parametrize("depth", [4, 5, 6])
def test_quotient_on_trees(benchmark, depth):
    tree = binary_tree_structure(depth)

    def run():
        return quotient(tree, 2)

    quotiented = benchmark(run)
    benchmark.extra_info["tree_elements"] = tree.domain_size
    benchmark.extra_info["quotient_size"] = quotiented.size
    assert quotiented.size < tree.domain_size


@pytest.fixture(scope="module")
def colored_skeleton():
    """The colored skeleton, interior and κ of the pipeline's final depth
    on the ``example7/foreign-pred`` corpus entry."""
    entry = {name: rest for name, *rest in theorem2_corpus()}["example7/foreign-pred"]
    theory, database, query = entry
    result = build_finite_counter_model(theory, database, query)
    prepared = prepare(theory, query)
    chased = chase(
        database,
        prepared.theory,
        ChaseConfig(max_depth=result.depth, max_facts=100_000, max_elements=None),
    )
    skeleton = skeleton_of_chase(chased, database, prepared.theory).structure
    kappa = result.kappa
    colored = natural_coloring(skeleton, kappa)
    gap = _level_gap(skeleton)
    interiors = {
        eta: _interior_elements(skeleton, result.depth, max(eta, kappa) * gap)
        for eta in range(kappa, kappa + 3)
    }
    return colored, interiors, kappa


@pytest.mark.parametrize("shared", [True, False], ids=["shared-table", "fresh-tables"])
def test_type_phases_across_eta(benchmark, colored_skeleton, shared):
    colored, interiors, kappa = colored_skeleton

    def run():
        table = GeneratorTable() if shared else None
        verdicts = []
        for eta, interior in interiors.items():
            partition = TypePartition(
                colored.structure, eta, elements=interior, table=table
            )
            quotiented = quotient(colored.structure, eta, partition=partition)
            report = conservativity_report(
                colored, eta, kappa, prebuilt=quotiented, table=table
            )
            verdicts.append(report.conservative)
        return verdicts, table

    verdicts, table = benchmark(run)
    benchmark.extra_info["skeleton_elements"] = colored.structure.domain_size
    benchmark.extra_info["verdicts"] = verdicts
    if table is not None:
        benchmark.extra_info["generators"] = len(table)
        benchmark.extra_info["lookups"] = table.lookups
    assert any(verdicts)
