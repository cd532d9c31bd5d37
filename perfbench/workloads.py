"""Seeded request sequences, their in-process expectations, and answer checks.

Every workload is a fixed list of request templates per connection (one
*pass*), built from ``--seed``.  The expected answer of every template is
computed here, in the benchmark's own process, by calling the engines
directly — never through :mod:`repro.payloads` or :mod:`repro.serve` — so
the layers under test cannot agree with themselves by construction.

Input sizes are fixed, and generated inputs come from pools drawn once
(``select_pools``) inside bands of deterministic work counts.  Rewriting
cost can change by orders of magnitude between similar-looking theories,
and drawing them freely would make one seed's run incomparable with
another's.

The module imports :mod:`repro`; the caller puts ``src`` on ``sys.path``.
"""

from __future__ import annotations

import random
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chase import ChaseConfig, certain_report, chase
from repro.chase.engine import is_model
from repro.classes import classify
from repro.config import OnBudget
from repro.core import PipelineConfig, build_finite_counter_model
from repro.fc import SearchConfig, search_finite_model
from repro.lf import Structure, parse_query, parse_structure, parse_theory
from repro.lf.homomorphism import all_answers, satisfies
from repro.lf.io import atom_to_text, query_to_text, theory_to_text
from repro.lf.plan import PLAN_CACHE
from repro.lf.queries import UnionOfConjunctiveQueries
from repro.rewriting import RewriteConfig, rewrite
from repro.rewriting import subsume
from repro.rewriting.subsume import ucq_equivalent
from repro.zoo import theorem2_corpus
from repro.zoo.generators import random_linear_theory

WORKLOADS = ("warm-mix", "cold-compile", "view-churn", "model-search")

#: Chase depth sent with every corpus ``chase``/``certain`` request.
CHASE_DEPTH = 6
#: Seeded linear theories per pass (warm-mix and cold-compile).
GENERATED_THEORIES = 8
#: Pool bands for a generated theory (see ``select_pools``): rewrite
#: candidates (about 6-12 ms of cold rewriting on one core of a 2-vCPU x86
#: VM) and chase facts at ``CHASE_DEPTH``.
CANDIDATE_BAND = (45, 80)
CHASE_FACT_BAND = (40, 60)
#: Corpus entries whose countermodel takes about 50-200 ms.
COUNTERMODEL_ENTRIES = (
    "example1/triangle-query",
    "example7/foreign-pred",
    "two-chains/merge-query",
)
#: The deadline-probe entry (about 15 s per countermodel when unbounded).
PROBE_ENTRY = "binary-tree/F-G-join"
PROBE_WALL_MS = 500
#: Section 5.5's exhaustive fc-search instance and the generated ones.
SECTION55_MAX_ELEMENTS = 11
FC_GENERATED = 4
#: 63 search nodes for every member of the family and any predicate names.
FC_MAX_ELEMENTS = 10
#: view-churn sizes: vertices, live base edges, forward swap batches,
#: edges swapped per batch, queries after each update.
VIEW_VERTICES = 40
VIEW_EDGES = 70
VIEW_BATCHES = 10
VIEW_SWAP = 2
VIEW_QUERIES = 3
#: Pool bands for a view stream (see ``select_pools``): mean closure size
#: over a pass, and facts overdeleted plus facts added by a pass's updates.
VIEW_CLOSURE_BAND = (180, 200)
VIEW_WORK_BAND = (320, 380)
VIEW_DEPTH = 16
#: Generated-theory specs ``(predicates, rules, theory seed, first and
#: second query predicate, database predicate)`` inside the bands above,
#: and view-stream seeds inside the view bands; drawn by ``select_pools``.
LINEAR_POOL = (
    (5, 10, 1827937087, 3, 1, 3),
    (5, 10, 2089061108, 4, 1, 1),
    (5, 12, 1053270404, 0, 1, 3),
    (4, 9, 965318997, 1, 3, 1),
    (4, 11, 386454932, 1, 0, 2),
    (4, 11, 127081321, 0, 2, 0),
    (5, 11, 1748590954, 2, 4, 1),
    (5, 9, 453692499, 0, 3, 2),
    (4, 12, 1198385380, 2, 1, 0),
    (5, 12, 1446006710, 0, 2, 3),
    (4, 9, 438102563, 0, 1, 2),
    (4, 11, 1961818928, 1, 3, 3),
    (5, 12, 758023462, 4, 2, 0),
    (4, 11, 1995245305, 0, 2, 2),
    (5, 12, 2042692784, 3, 1, 4),
    (5, 11, 865783890, 0, 4, 1),
    (4, 11, 1015279463, 1, 2, 3),
    (4, 11, 652150470, 0, 3, 3),
    (5, 11, 1764033768, 4, 0, 3),
    (5, 10, 216449822, 2, 4, 2),
    (4, 9, 2003878191, 2, 1, 3),
    (5, 10, 959875587, 3, 4, 1),
    (4, 12, 1727721106, 1, 0, 2),
    (5, 12, 1318393005, 2, 4, 3),
)
VIEW_POOL = (20, 23, 24, 27, 31, 32, 37, 39, 41, 51, 57, 65)
#: Process-wide cache bounds in the server (``PlanCache`` and the
#: subsume memo clear wholesale at this size; sessions are LRU at 64).
CACHE_CLEAR_AT = 8192
MAX_SESSIONS = 64

_PREDICATE = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)\(")
_NULL = re.compile(r"_:(\d+)")


class Template:
    """One request of a pass: protocol fields plus its expectation key."""

    __slots__ = ("op", "fields", "key", "klass")

    def __init__(self, op: str, fields: Dict[str, Any], key: str, klass: str):
        self.op = op
        self.fields = fields
        self.key = key
        self.klass = klass


class Workload:
    """Templates, expectations and checks for one workload.

    ``passes[c]`` is connection ``c``'s template list; ``setup`` the
    requests that each boot must answer correctly before it counts as up.
    ``fresh`` is true when every request goes to a first-time tenant with
    fresh predicate names (cold-compile).
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.passes: List[List[Template]] = []
        self.setup: List[Template] = []
        self.tenants: List[str] = []
        self.offset = 0
        self.fresh = False
        self.priming_passes = 1
        self.expected: Dict[str, Dict[str, Any]] = {}
        self._verdicts: Dict[Tuple[str, Any], Optional[str]] = {}
        self._counter = 0

    # -- request construction ------------------------------------------

    def request(self, conn: int, template: Template) -> Dict[str, Any]:
        """The protocol fields (without ``id``) for one send of *template*."""
        fields = dict(template.fields)
        fields["op"] = template.op
        if self.fresh:
            self._counter += 1
            prefix = f"s{self.seed}k{self._counter:07d}_"
            for name in ("theory", "database", "query"):
                if name in fields:
                    fields[name] = _PREDICATE.sub(
                        lambda m: prefix + m.group(1) + "(", fields[name]
                    )
            fields["tenant"] = "cold-" + prefix
            fields["_prefix"] = prefix
        else:
            fields["tenant"] = self.tenants[conn]
        return fields

    # -- checking --------------------------------------------------------

    def check(self, template: Template, response: Dict[str, Any],
              prefix: Optional[str] = None) -> Optional[str]:
        """``None`` when *response* is a correct answer, else the reason."""
        if not response.get("ok") or response.get("status") in ("error", "shed"):
            return f"{template.op}: not ok: {response.get('error') or response.get('status')}"
        expected = self.expected[template.key]
        want_stop = expected.get("stopped_reason")
        if want_stop is not None and response.get("stopped_reason") != want_stop:
            return (f"{template.op}: stopped_reason "
                    f"{response.get('stopped_reason')!r} != {want_stop!r}")
        try:
            summary = _SUMMARIES[template.op](response)
        except (KeyError, TypeError) as error:
            return f"{template.op}: malformed response: missing {error}"
        if prefix is not None:
            summary = _strip(summary, prefix)
        memo = (template.key, summary)
        if memo not in self._verdicts:
            self._verdicts[memo] = _COMPARE[template.op](expected, summary)
        return self._verdicts[memo]


def _strip(value, prefix: str):
    if isinstance(value, str):
        return value.replace(prefix, "")
    if isinstance(value, tuple):
        return tuple(_strip(item, prefix) for item in value)
    return value


# ----------------------------------------------------------------------
# Response summaries (hashable) and comparisons against expectations
# ----------------------------------------------------------------------

def _rows(response) -> Tuple[Tuple[str, ...], ...]:
    return tuple(sorted(tuple(row) for row in response.get("answers", [])))


_SUMMARIES: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "rewrite": lambda r: (r.get("status"), tuple(r.get("disjuncts", []))),
    "chase": lambda r: (r.get("status"), r["counts"]["facts"],
                        r["counts"]["elements"]),
    "certain": lambda r: (r.get("status"), _rows(r)),
    "classify": lambda r: tuple(sorted(r.get("profile", {}).items())),
    "countermodel": lambda r: (r.get("status"), tuple(r.get("facts", []))),
    "fc-search": lambda r: r.get("status"),
    "view-create": lambda r: (r.get("status"), r["counts"]["facts"],
                              r["counts"]["base_facts"]),
    "view-update": lambda r: (r.get("status"), r["counts"]["facts"],
                              r["counts"]["base_facts"]),
    "view-query": lambda r: (r.get("status"), _rows(r)),
}


def _differs(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _compare_rewrite(expected, summary) -> Optional[str]:
    status, disjuncts = summary
    if status != "saturated":
        return f"rewrite: status {status!r}"
    try:
        got = UnionOfConjunctiveQueries([_parse_disjunct(t) for t in disjuncts])
    except Exception as error:  # a malformed disjunct is a wrong answer
        return f"rewrite: unparsable disjunct: {error}"
    if not ucq_equivalent(got, expected["ucq"]):
        return "rewrite: UCQ not equivalent to the in-process rewriting"
    return None


def _parse_disjunct(text: str):
    """A payload disjunct: ``body`` or ``(f0, f1) <- body``."""
    free: List[str] = []
    if text.startswith("(") and ") <- " in text:
        head, text = text[1:].split(") <- ", 1)
        free = [name.strip() for name in head.split(",")]
    return parse_query(text, free=free)


def _model_from_facts(facts) -> Structure:
    text = "\n".join(_NULL.sub(r"'_n\1'", fact) for fact in facts)
    return parse_structure(text)


def _compare_countermodel(expected, summary) -> Optional[str]:
    status, facts = summary
    if status != "model-found":
        return f"countermodel: status {status!r}"
    try:
        model = _model_from_facts(facts)
    except Exception as error:
        return f"countermodel: unparsable model: {error}"
    present = set(model.facts())
    if not all(fact in present for fact in expected["database"].facts()):
        return "countermodel: model does not contain D"
    if not is_model(model, expected["theory"]):
        return "countermodel: model violates T"
    if satisfies(model, expected["query"]):
        return "countermodel: model satisfies Q"
    return None


_COMPARE: Dict[str, Callable[[Dict[str, Any], Any], Optional[str]]] = {
    "rewrite": _compare_rewrite,
    "chase": lambda e, s: _differs("chase", s, e["summary"]),
    "certain": lambda e, s: _differs("certain", s, e["summary"]),
    "classify": lambda e, s: _differs("classify", s, e["summary"]),
    "countermodel": _compare_countermodel,
    "fc-search": lambda e, s: _differs("fc-search", s, e["summary"]),
    "view-create": lambda e, s: _differs("view-create", s, e["summary"]),
    "view-update": lambda e, s: _differs("view-update", s, e["summary"]),
    "view-query": lambda e, s: _differs("view-query", s, e["summary"]),
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def _stop(value) -> str:
    return getattr(value, "value", value)


def _database_text(structure: Structure) -> str:
    return "\n".join(atom_to_text(f) for f in sorted(structure.facts(), key=str))


def corpus_entries() -> List[Dict[str, Any]]:
    """The Theorem-2 corpus as protocol texts plus parsed objects."""
    entries = []
    for name, theory, database, query in theorem2_corpus():
        entries.append({
            "name": name,
            "theory": theory_to_text(theory),
            "database": _database_text(database),
            "query": query_to_text(query),
            "free": [str(v) for v in query.free],
        })
    return entries


def _rewrite_expectation(theory, query, free):
    result = rewrite(query, theory, RewriteConfig(
        max_steps=20_000, max_queries=2_000, on_budget=OnBudget.RETURN))
    return result, {"ucq": result.ucq, "free": free,
                    "stopped_reason": _stop(result.stopped_reason)}


def _entry_expectations(entry) -> Tuple[Dict[str, Dict[str, Any]], Any, Any]:
    """Expectations of the four warm-mix ops for one (T, D, Q) entry."""
    theory = parse_theory(entry["theory"])
    database = parse_structure(entry["database"])
    query = parse_query(entry["query"], free=list(entry["free"]))
    rewritten, rewrite_exp = _rewrite_expectation(theory, query, entry["free"])
    chased = chase(database, theory, ChaseConfig(max_depth=CHASE_DEPTH))
    report = certain_report(database, theory, query, config=ChaseConfig(
        max_depth=CHASE_DEPTH, max_facts=200_000, max_elements=None))
    verdict = {True: "certain", False: "not-certain", None: "unknown"}[report.verdict]
    out = {
        "rewrite": rewrite_exp,
        "chase": {
            "summary": ("saturated" if chased.saturated else "truncated",
                        len(chased.structure), chased.structure.domain_size),
            "stopped_reason": _stop(chased.stopped_reason),
        },
        "certain": {
            "summary": (verdict, tuple(sorted(
                tuple(str(v) for v in row) for row in report.answers))),
            "stopped_reason": _stop(report.result.stopped_reason),
        },
        "classify": {"summary": tuple(sorted(
            (k, bool(v)) for k, v in classify(theory).items()))},
    }
    return out, rewritten, chased


def _linear_entry(spec: Tuple[int, int, int, int, int, int]) -> Dict[str, Any]:
    """A linear theory, database and 2-atom path query from a pool spec
    ``(predicates, rules, theory seed, first, second, database predicate)``."""
    preds, rules, theory_seed, first, second, fact_pred = spec
    theory = random_linear_theory(preds, rules, seed=theory_seed)
    return {
        "name": f"linear-{preds}p{rules}r-{theory_seed}",
        "theory": theory_to_text(theory),
        "database": f"P{fact_pred}('a', 'b')",
        "query": f"P{first}(x, y), P{second}(y, z)",
        "free": ["x"],
    }


def _draw_linear_spec(rng: random.Random) -> Tuple[int, int, int, int, int, int]:
    preds = rng.choice((4, 5))
    first, second = rng.sample(range(preds), 2)
    return (preds, rng.randint(8, 12), rng.randrange(2**31), first, second,
            rng.randrange(preds))


def generated_entries(rng: random.Random, count: int) -> List[Dict[str, Any]]:
    """*count* linear theories drawn from ``LINEAR_POOL``."""
    entries = []
    for spec in rng.sample(LINEAR_POOL, count):
        entry = _linear_entry(spec)
        entry["expectations"] = _entry_expectations(entry)[0]
        entries.append(entry)
    return entries


_OPS = ("rewrite", "chase", "certain", "classify")


def _mix_templates(entries) -> Tuple[List[Template], Dict[str, Dict[str, Any]]]:
    templates, expected = [], {}
    for index, entry in enumerate(entries):
        for op in _OPS:
            key = f"{op}:{index}"
            fields: Dict[str, Any] = {"theory": entry["theory"]}
            if op in ("chase", "certain"):
                fields["database"] = entry["database"]
                fields["params"] = {"depth": CHASE_DEPTH}
            if op in ("rewrite", "certain"):
                fields["query"] = entry["query"]
                fields["free"] = entry["free"]
            klass = "corpus" if "/" in entry["name"] else "generated"
            templates.append(Template(op, fields, key, f"{op}/{klass}"))
            expected[key] = entry["expectations"][op]
    return templates, expected


def _mix(workload: Workload, rng: random.Random) -> None:
    corpus = corpus_entries()
    for entry in corpus:
        entry["expectations"] = _entry_expectations(entry)[0]
    entries = corpus + generated_entries(rng, GENERATED_THEORIES)
    templates, workload.expected = _mix_templates(entries)
    # The setup requests are the first corpus entry's four ops, so set-up
    # cost does not depend on the seed.
    workload.setup = templates[: len(_OPS)]
    for _conn in range(2):
        order = list(templates)
        rng.shuffle(order)
        workload.passes.append(order)


def _cold_priming(workload: Workload) -> int:
    """Passes needed to carry the server past the first wholesale clear
    of ``PlanCache`` and the subsume memo, and past session eviction.

    One pass of the same requests is run in this process under fresh
    names and the cache growth it causes is measured; the server's caches
    grow the same way, since they are the same code.
    """
    requests = [t for conn in workload.passes for t in conn]
    caches = (PLAN_CACHE, subsume._NORMALIZE_CACHE, subsume._FREEZE_CACHE)
    before = [len(cache) for cache in caches]
    for template in requests:
        _run_in_process(template.op, workload.request(0, template))
    growth = [len(cache) - size for cache, size in zip(caches, before)]
    passes = max(
        [-(-CACHE_CLEAR_AT // max(1, grown)) for grown in growth]
        + [-(-MAX_SESSIONS // len(requests))]
    )
    return passes + 1


def _run_in_process(op: str, fields: Dict[str, Any]) -> None:
    theory = parse_theory(fields["theory"])
    if op == "rewrite":
        query = parse_query(fields["query"], free=list(fields["free"]))
        _rewrite_expectation(theory, query, fields["free"])
    elif op == "chase":
        chase(parse_structure(fields["database"]), theory,
              ChaseConfig(max_depth=CHASE_DEPTH))
    elif op == "certain":
        query = parse_query(fields["query"], free=list(fields["free"]))
        certain_report(parse_structure(fields["database"]), theory, query,
                       config=ChaseConfig(max_depth=CHASE_DEPTH,
                                          max_facts=200_000, max_elements=None))
    else:
        classify(theory)


_TC_THEORY = "E(x, y), E(y, z) -> E(x, z)"


def _edge(pair: Tuple[str, str]) -> str:
    return f"E('{pair[0]}', '{pair[1]}')"


def _closure(edges) -> Structure:
    """A fresh chase of the transitive-closure theory over *edges*."""
    database = parse_structure("\n".join(_edge(p) for p in sorted(edges)))
    result = chase(database, parse_theory(_TC_THEORY), ChaseConfig(
        max_depth=VIEW_DEPTH, max_facts=200_000, max_elements=None))
    if not result.saturated:
        raise ValueError("the transitive closure must saturate")
    return result.structure


def _view_stream(stream_seed: int):
    """A random DAG base and its swap cycle: ``VIEW_BATCHES`` batches
    forward, then their inverses in reverse order, so the base returns to
    its start after every pass and keeps its size throughout."""
    rng = random.Random(stream_seed)
    vertices = [f"v{i}" for i in range(VIEW_VERTICES)]
    pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]
    base = set(rng.sample(pairs, VIEW_EDGES))
    live = set(base)
    forward = []
    for _ in range(VIEW_BATCHES):
        removes = rng.sample(sorted(live), VIEW_SWAP)
        adds = rng.sample(sorted(set(pairs) - live), VIEW_SWAP)
        live.difference_update(removes)
        live.update(adds)
        forward.append((adds, removes))
    batches = forward + [(r, a) for a, r in reversed(forward)]
    closures = []
    live = set(base)
    for adds, removes in batches:
        live.difference_update(removes)
        live.update(adds)
        closures.append(_closure(live))
    return vertices, base, batches, closures


def _view_churn(workload: Workload, rng: random.Random) -> None:
    """A transitive-closure view over one stream of ``VIEW_POOL``, with
    ``VIEW_QUERIES`` view-queries after every update, each checked
    against a fresh chase of the base at that point."""
    vertices, base, batches, closures = _view_stream(rng.choice(VIEW_POOL))

    def answer(closure: Structure, query_text: str):
        query = parse_query(query_text, free=["x"])
        rows = tuple(sorted((str(row[0]),) for row in all_answers(closure, query)))
        return ("certain" if rows else "not-certain", rows)

    view = "tc"
    workload.expected["view-create"] = {
        "summary": ("saturated", len(_closure(base)), len(base))}
    create = Template("view-create", {
        "view": view, "theory": _TC_THEORY,
        "database": "\n".join(_edge(p) for p in sorted(base)),
        "params": {"depth": VIEW_DEPTH}}, "view-create", "view-create")
    templates: List[Template] = []
    for position, ((adds, removes), closure) in enumerate(zip(batches, closures)):
        update_key = f"view-update:{position}"
        workload.expected[update_key] = {
            "summary": ("saturated", len(closure), len(base))}
        templates.append(Template("view-update", {
            "view": view, "adds": [_edge(p) for p in adds],
            "removes": [_edge(p) for p in removes]}, update_key, "view-update"))
        for number in range(VIEW_QUERIES):
            source = vertices[rng.randrange(VIEW_VERTICES // 2)]
            query_text = f"E('{source}', x)"
            query_key = f"view-query:{position}:{number}"
            workload.expected[query_key] = {"summary": answer(closure, query_text)}
            templates.append(Template("view-query", {
                "view": view, "query": query_text, "free": ["x"]},
                query_key, "view-query"))
    workload.setup = [create] + templates[:2]
    # The kept server already ran the first update and query in set-up,
    # so its passes are rotations of the cycle starting after them.
    workload.offset = 2
    workload.passes = [templates]


def _walk_theory(k: int, edge: str, reach: str) -> str:
    """Section 5.5's family: ``reach`` advances ``k`` steps along ``edge``
    for every one step (``k = 2`` is the paper's theory)."""
    chain = ["y"] + [f"z{i}" for i in range(1, k)] + ["w"]
    walk = ", ".join(f"{edge}({a}, {b})" for a, b in zip(chain, chain[1:]))
    return (f"{edge}(x, y) -> exists z. {edge}(y, z)\n"
            f"{reach}(x, y), {edge}(x, u), {walk} -> {reach}(u, w)")


def _fc_expectation(theory_text, database_text, query_text, max_elements):
    outcome = search_finite_model(
        parse_structure(database_text), parse_theory(theory_text),
        forbidden=parse_query(query_text),
        config=SearchConfig(max_elements=max_elements, max_nodes=50_000))
    if outcome.found:
        status = "model-found"
    elif outcome.stats.exhausted:
        status = "exhausted-no-model"
    else:
        status = "budget-exhausted"
    return {"summary": status, "stopped_reason": _stop(outcome.stopped_reason)}


def _model_search(workload: Workload, rng: random.Random) -> None:
    corpus = {entry["name"]: entry for entry in corpus_entries()}
    templates: List[Template] = []
    for name in COUNTERMODEL_ENTRIES:
        entry = corpus[name]
        key = f"countermodel:{name}"
        result = build_finite_counter_model(
            parse_theory(entry["theory"]), parse_structure(entry["database"]),
            parse_query(entry["query"], free=list(entry["free"])),
            PipelineConfig())
        workload.expected[key] = {
            "theory": parse_theory(entry["theory"]),
            "database": parse_structure(entry["database"]),
            "query": parse_query(entry["query"], free=list(entry["free"])),
            "stopped_reason": _stop(result.stopped_reason),
        }
        templates.append(Template("countermodel", {
            "theory": entry["theory"], "database": entry["database"],
            "query": entry["query"], "free": entry["free"]}, key,
            "countermodel"))
    instances = [("section55", _walk_theory(2, "E", "R"), "E", "R",
                  SECTION55_MAX_ELEMENTS)]
    letters = "ABCDFGHJKLMNPQSTUVWXYZ"
    for index in range(FC_GENERATED):
        k = rng.choice((2, 3))
        edge, reach = rng.sample(letters, 2)
        instances.append((f"walk{k}-{index}", _walk_theory(k, edge, reach),
                          edge, reach, FC_MAX_ELEMENTS))
    for name, theory_text, edge, reach, max_elements in instances:
        database_text = f"{edge}('a0', 'a1')\n{reach}('a0', 'a0')"
        query_text = f"{edge}(x, y), {reach}(y, y)"
        key = f"fc-search:{name}"
        workload.expected[key] = _fc_expectation(
            theory_text, database_text, query_text, max_elements)
        templates.append(Template("fc-search", {
            "theory": theory_text, "database": database_text,
            "query": query_text,
            "params": {"max_elements": max_elements, "max_nodes": 50_000}},
            key, "fc-search"))
    # Set-up: the cheapest countermodel and the Section 5.5 instance.
    workload.setup = [templates[2], templates[3]]
    # One connection: with two, the connections' 60-170 ms requests overlap
    # under the server's interpreter lock differently from run to run, which
    # moved CPU per request between 82 and 120 ms on identical inputs.
    order = list(templates)
    rng.shuffle(order)
    workload.passes.append(order)


def probe_request(entry_name: str = PROBE_ENTRY) -> Dict[str, Any]:
    """A ``countermodel`` request that cannot finish within the probe's
    ``wall_ms`` — the deadline probe sent after a traced timed phase."""
    entry = {e["name"]: e for e in corpus_entries()}[entry_name]
    return {"op": "countermodel", "tenant": "probe", "theory": entry["theory"],
            "database": entry["database"], "query": entry["query"],
            "free": entry["free"], "params": {"wall_ms": PROBE_WALL_MS}}


def _view_work(base, batches) -> int:
    """Facts overdeleted plus facts added by one pass of updates."""
    from repro.chase import ChaseView, IncrementalConfig
    from repro.lf import parse_facts

    view = ChaseView(parse_structure("\n".join(_edge(p) for p in sorted(base))),
                     parse_theory(_TC_THEORY), IncrementalConfig(max_depth=VIEW_DEPTH))
    work = 0
    for adds, removes in batches:
        stats = view.update(
            adds=[f for p in adds for f in parse_facts(_edge(p))],
            removes=[f for p in removes for f in parse_facts(_edge(p))]).stats
        work += stats.overdeleted + stats.facts_added
    return work


def select_pools(linear: int = 24, streams: int = 12):
    """Draw ``LINEAR_POOL`` and ``VIEW_POOL``.

    The bands use work counts of the engines under test, so the pools are
    drawn once and written into this file: a change to an engine must not
    change which inputs a seed selects.  Regenerate them only together with
    the benchmark's baseline:  ``PYTHONPATH=src python3 perfbench/workloads.py``.
    """
    rng = random.Random("linear-pool")
    specs = []
    while len(specs) < linear:
        spec = _draw_linear_spec(rng)
        _, rewritten, chased = _entry_expectations(_linear_entry(spec))
        if (rewritten.saturated
                and CANDIDATE_BAND[0] <= rewritten.stats.candidates <= CANDIDATE_BAND[1]
                and CHASE_FACT_BAND[0] <= len(chased.structure) <= CHASE_FACT_BAND[1]):
            specs.append(spec)
    seeds: List[int] = []
    stream_seed = 0
    while len(seeds) < streams:
        stream_seed += 1
        _, base, batches, closures = _view_stream(stream_seed)
        mean = sum(len(c) for c in closures) / len(closures)
        if (VIEW_CLOSURE_BAND[0] <= mean <= VIEW_CLOSURE_BAND[1]
                and VIEW_WORK_BAND[0] <= _view_work(base, batches) <= VIEW_WORK_BAND[1]):
            seeds.append(stream_seed)
    return tuple(specs), tuple(seeds)


def plant_wrong_expectation(workload: Workload, op: str) -> None:
    """Self-test hook: make the expectation of the first *op* template in
    the timed passes wrong, so every answer to it must fail its check."""
    for template in workload.passes[0]:
        if template.op == op:
            expected = workload.expected[template.key]
            if "summary" not in expected:
                raise ValueError(f"cannot plant a wrong expectation for {op!r}")
            expected["summary"] = ("planted-wrong-expectation",)
            return
    raise ValueError(f"workload {workload.name!r} sends no {op!r} request")


def build(name: str, seed: int) -> Workload:
    """The workload *name* for *seed*, with every expectation computed."""
    rng = random.Random(f"{name}/{seed}")
    workload = Workload(name, seed)
    if name in ("warm-mix", "cold-compile"):
        _mix(workload, rng)
        workload.tenants = ["warm-a", "warm-b"]
        if name == "cold-compile":
            workload.fresh = True
            workload.priming_passes = _cold_priming(workload)
    elif name == "view-churn":
        _view_churn(workload, rng)
        workload.tenants = ["churn"]
    elif name == "model-search":
        _model_search(workload, rng)
        workload.tenants = ["model"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return workload


if __name__ == "__main__":
    linear_pool, view_pool = select_pools()
    print("LINEAR_POOL = (")
    for spec in linear_pool:
        print(f"    {spec!r},")
    print(")")
    print(f"VIEW_POOL = {view_pool!r}")
