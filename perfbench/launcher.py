"""Start ``repro serve`` with spans recorded around each layer's entry points.

    python perfbench/launcher.py SPANS.json MIN_ID serve --json --port 0 ...

The launcher times ``import repro``, then wraps the public entry points of
every layer the benchmark attributes time to — where their callers look
them up: module globals bound by ``from … import`` and class attributes
for methods — and runs the ordinary CLI.  Nothing in ``src/`` changes.

Spans are kept in memory, one list per thread, as ``[name, request id,
start, end, parent index, counts]`` and written to SPANS.json when the
server exits.  Only requests whose integer id is at least MIN_ID are
recorded (the harness numbers its timed requests from there), so set-up
and priming traffic costs one attribute lookup per wrapped call.
``perfbench/layers.py`` turns the spans into per-layer metrics.
"""

import functools
import json
import sys
import threading
import time

perf_counter = time.perf_counter
_started = perf_counter()
import repro  # noqa: E402  (the import is what is being timed)
IMPORT_MS = (perf_counter() - _started) * 1000.0

import repro.cli  # noqa: E402
import repro.core.finite_model  # noqa: E402
import repro.payloads  # noqa: E402
import repro.serve.admission  # noqa: E402
import repro.serve.jobs  # noqa: E402
import repro.serve.server  # noqa: E402
import repro.serve.session  # noqa: E402
from repro.chase.view import ChaseView  # noqa: E402
from repro.lf.plan import PlanCache  # noqa: E402
from repro.lf.structures import Structure  # noqa: E402
from repro.serve.admission import AdmissionController  # noqa: E402

_local = threading.local()
_threads = []
_threads_lock = threading.Lock()
_admitted = {}
MIN_ID = None


class _Thread:
    __slots__ = ("spans", "stack", "rid", "counters", "in_plan_for")

    def __init__(self):
        self.spans = []
        self.stack = []
        self.rid = None
        self.counters = None
        self.in_plan_for = 0


def _thread():
    state = getattr(_local, "state", None)
    if state is None:
        state = _local.state = _Thread()
        with _threads_lock:
            _threads.append((threading.current_thread().name, state.spans))
    return state


def _timed_id(rid):
    return isinstance(rid, int) and not isinstance(rid, bool) and rid >= MIN_ID


def spanned(fn, name, counts=None):
    """*fn* recording a span *name* while a timed request runs."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = getattr(_local, "state", None)
        if state is None or state.rid is None:
            return fn(*args, **kwargs)
        spans = state.spans
        record = [name, state.rid, 0.0, 0.0,
                  state.stack[-1] if state.stack else -1, None]
        spans.append(record)
        state.stack.append(len(spans) - 1)
        record[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = perf_counter()
            state.stack.pop()
        if counts is not None:
            record[5] = counts(result)
        return result
    return wrapper


def _execute(fn):
    """The per-request root span: ``serve.jobs.execute_request``."""
    @functools.wraps(fn)
    def wrapper(registry, request, *args, **kwargs):
        rid = request.get("id") if isinstance(request, dict) else None
        if not _timed_id(rid):
            return fn(registry, request, *args, **kwargs)
        state = _thread()
        state.rid = rid
        state.counters = {"plan_for": 0, "plan_miss": 0,
                          "admitted": _admitted.pop(rid, None)}
        record = ["serve.jobs.execute", rid, 0.0, 0.0, -1, state.counters]
        state.spans.append(record)
        state.stack = [len(state.spans) - 1]
        record[2] = perf_counter()
        try:
            return fn(registry, request, *args, **kwargs)
        finally:
            record[3] = perf_counter()
            state.stack = []
            state.rid = None
    return wrapper


def _try_admit(fn):
    @functools.wraps(fn)
    def wrapper(self, entry):
        if _timed_id(entry.rid):
            _admitted[entry.rid] = perf_counter()
        return fn(self, entry)
    return wrapper


def _plan_for(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = getattr(_local, "state", None)
        if state is None or state.rid is None:
            return fn(*args, **kwargs)
        state.counters["plan_for"] += 1
        state.in_plan_for += 1
        try:
            return fn(*args, **kwargs)
        finally:
            state.in_plan_for -= 1
    return wrapper


def _compile_plan(fn):
    inner = spanned(fn, "lf.plan.compile")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = getattr(_local, "state", None)
        if state is not None and state.rid is not None and state.in_plan_for:
            state.counters["plan_miss"] += 1
        return inner(*args, **kwargs)
    return wrapper


def _chase_counts(result):
    stats = result.stats
    return {"triggers": stats.triggers_evaluated, "fired": stats.triggers_fired}


def _certain_counts(report):
    return _chase_counts(report.result)


def _rewrite_counts(result):
    return {"candidates": result.stats.candidates}


def _search_counts(outcome):
    stats = outcome.stats
    return {"nodes": stats.nodes, "created": stats.states_created,
            "materialised": stats.states_materialised}


def _update_counts(result):
    return {"overdeleted": result.stats.overdeleted,
            "rederived": result.stats.rederived}


def _replace_everywhere(original, wrapper):
    """Rebind every ``repro`` module global that is *original*."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)


def install():
    """Wrap every layer entry point the per-layer metrics name."""
    fm = sys.modules["repro.core.finite_model"]
    # The pipeline's phases, as build_finite_counter_model looks them up.
    for attr, name in (("bdd_profile", "bdd"), ("chase", "chase"),
                       ("skeleton_of_chase", "skeleton"),
                       ("natural_coloring", "coloring"),
                       ("conservativity_report", "coloring"),
                       ("quotient", "quotient"), ("is_model", "verify")):
        setattr(fm, attr, spanned(getattr(fm, attr),
                                  f"core.finite_model.{name}"))
    everywhere = [
        (fm.build_finite_counter_model,
         spanned(fm.build_finite_counter_model, "core.finite_model.pipeline")),
        (repro.serve.server.execute_request,
         _execute(repro.serve.server.execute_request)),
    ]
    from repro.lf import parser
    for attr in ("parse_theory", "parse_structure", "parse_query", "parse_facts"):
        original = getattr(parser, attr)
        everywhere.append((original, spanned(original, "lf.parser.parse")))
    from repro.lf import plan
    everywhere.append((plan.compile_plan, _compile_plan(plan.compile_plan)))
    from repro.rewriting import rewriter, subsume
    everywhere.append((rewriter.rewrite, spanned(
        rewriter.rewrite, "rewriting.rewrite", _rewrite_counts)))
    everywhere.append((subsume.cq_subsumes, spanned(
        subsume.cq_subsumes, "rewriting.subsume")))
    from repro.chase import certain, engine, seminaive
    everywhere.append((engine.chase, spanned(
        engine.chase, "chase.engine.chase", _chase_counts)))
    everywhere.append((certain.certain_report, spanned(
        certain.certain_report, "chase.engine.chase", _certain_counts)))
    everywhere.append((seminaive.incremental_datalog_saturate, spanned(
        seminaive.incremental_datalog_saturate, "chase.seminaive.saturate")))
    from repro.fc import search
    everywhere.append((search.search_finite_model, spanned(
        search.search_finite_model, "fc.search.search", _search_counts)))
    from repro.lf import canonical
    everywhere.append((canonical.canonical_key, spanned(
        canonical.canonical_key, "lf.canonical.key")))
    payloads = repro.payloads
    for attr in dir(payloads):
        if attr.endswith("_payload"):
            original = getattr(payloads, attr)
            everywhere.append((original, spanned(original, "payloads.build")))
    for original, wrapper in everywhere:
        _replace_everywhere(original, wrapper)

    Structure.copy = spanned(Structure.copy, "lf.structures.copy")
    ChaseView.update = spanned(ChaseView.update, "chase.view.update",
                               _update_counts)
    ChaseView.certain = spanned(ChaseView.certain, "chase.view.query")
    PlanCache.plan_for = _plan_for(PlanCache.plan_for)
    AdmissionController.try_admit = _try_admit(AdmissionController.try_admit)


def dump(path):
    with _threads_lock:
        threads = [{"name": name, "spans": spans} for name, spans in _threads]
    with open(path, "w") as handle:
        json.dump({"import_ms": IMPORT_MS, "threads": threads}, handle)


def main(argv):
    global MIN_ID
    spans_path, MIN_ID, cli_argv = argv[0], int(argv[1]), argv[2:]
    install()
    code = repro.cli.main(cli_argv)
    dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
