"""Per-layer metrics of a traced timed phase.

Inputs: the spans ``perfbench/launcher.py`` wrote when the traced server
exited, the client's record of the same timed phase, the server's
``stats`` op before and after it, the deadline-probe overshoots, and
the CPU per request of a plain (untraced) phase of the same run.

A layer's *self time* is its spans' durations minus the parts covered
by their direct child spans.  Every ``_ms`` metric below is a self time
summed over the timed requests and divided by their number, except
``serve.jobs.execute_ms`` (the whole ``execute_request`` span),
``serve.transport_ms`` (client latency minus that span) and
``serve.admission.wait_ms`` (``try_admit`` to the start of that span).
Counts are per timed request unless named per update; a ratio whose
denominator is 0 is reported as 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List

PER_LAYER_UNITS = {
    "serve.boot.import_ms": "ms",
    "serve.transport_ms": "ms",
    "serve.admission.wait_ms": "ms",
    "serve.session.parse_hit_ratio": "ratio",
    "serve.session.rewrite_hit_ratio": "ratio",
    "serve.jobs.execute_ms": "ms",
    "payloads.build_ms": "ms",
    "payloads.bytes_per_req": "bytes",
    "lf.parser.parse_ms": "ms",
    "lf.parser.calls_per_req": "count",
    "lf.plan.compile_ms": "ms",
    "lf.plan.compiles_per_req": "count",
    "lf.plan.hit_ratio": "ratio",
    "rewriting.rewrite_ms": "ms",
    "rewriting.subsume_ms": "ms",
    "rewriting.candidates_per_req": "count",
    "chase.engine.chase_ms": "ms",
    "chase.engine.triggers_per_req": "count",
    "chase.engine.fired_ratio": "ratio",
    "chase.view.update_ms": "ms",
    "chase.view.query_ms": "ms",
    "chase.view.overdeleted_per_update": "count",
    "chase.view.rederive_ratio": "ratio",
    "core.finite_model.pipeline_ms": "ms",
    "core.finite_model.bdd_ms": "ms",
    "core.finite_model.chase_ms": "ms",
    "core.finite_model.skeleton_ms": "ms",
    "core.finite_model.coloring_ms": "ms",
    "core.finite_model.quotient_ms": "ms",
    "core.finite_model.verify_ms": "ms",
    "fc.search.search_ms": "ms",
    "fc.search.nodes_per_req": "count",
    "fc.search.materialised_ratio": "ratio",
    "chase.seminaive.saturate_ms": "ms",
    "lf.canonical.key_ms": "ms",
    "lf.structures.copy_ms": "ms",
    "lf.structures.copies_per_req": "count",
    "runtime.guard.overshoot_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_ms": "ms",
}

#: Span name -> metric holding its self time.
SELF_TIME = {
    "payloads.build": "payloads.build_ms",
    "lf.parser.parse": "lf.parser.parse_ms",
    "lf.plan.compile": "lf.plan.compile_ms",
    "rewriting.rewrite": "rewriting.rewrite_ms",
    "rewriting.subsume": "rewriting.subsume_ms",
    "chase.engine.chase": "chase.engine.chase_ms",
    "chase.view.update": "chase.view.update_ms",
    "chase.view.query": "chase.view.query_ms",
    "core.finite_model.pipeline": "core.finite_model.pipeline_ms",
    "core.finite_model.bdd": "core.finite_model.bdd_ms",
    "core.finite_model.chase": "core.finite_model.chase_ms",
    "core.finite_model.skeleton": "core.finite_model.skeleton_ms",
    "core.finite_model.coloring": "core.finite_model.coloring_ms",
    "core.finite_model.quotient": "core.finite_model.quotient_ms",
    "core.finite_model.verify": "core.finite_model.verify_ms",
    "fc.search.search": "fc.search.search_ms",
    "chase.seminaive.saturate": "chase.seminaive.saturate_ms",
    "lf.canonical.key": "lf.canonical.key_ms",
    "lf.structures.copy": "lf.structures.copy_ms",
    "serve.jobs.execute": "trace.unattributed_ms",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _session_totals(before: Dict[str, Any], after: Dict[str, Any],
                    tenant_ops: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """Parse and rewrite hits over the timed phase, from the ``stats`` op.

    Tenants evicted during the phase are gone from *after*; the ratios are
    taken over the tenants still registered, with the rewrite requests
    the client sent to those same tenants."""
    totals = defaultdict(float)
    for tenant, now in after.items():
        then = before.get(tenant, {})
        for key in ("parse_hits", "parse_misses", "rewriting_hits"):
            totals[key] += now.get(key, 0) - then.get(key, 0)
        totals["rewrites"] += tenant_ops.get(tenant, {}).get("rewrite", 0)
    return totals


def per_layer(trace: Dict[str, Any], phase, before, after,
              overshoots: List[float], plain_cpu_per_req: float
              ) -> Dict[str, float]:
    timed = phase.by_id
    requests = len(timed)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    transport, waits, execute = [], [], []
    for thread in trace["threads"]:
        spans = thread["spans"]
        covered = [0.0] * len(spans)
        for name, rid, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, rid, start, end, parent, extra) in enumerate(spans):
            if rid not in timed:
                continue
            self_ms[name] += (end - start - covered[index]) * 1000.0
            # Calls and counts from the outermost span of each name only,
            # so nested calls (parse_structure -> parse_facts) count once.
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][4]
            if ancestor >= 0:
                continue
            calls[name] += 1
            if name == "serve.jobs.execute":
                duration = (end - start) * 1000.0
                execute.append(duration)
                transport.append(timed[rid][0] - duration)
                if extra.get("admitted") is not None:
                    waits.append((start - extra["admitted"]) * 1000.0)
                counts["plan_for"] += extra["plan_for"]
                counts["plan_miss"] += extra["plan_miss"]
            elif extra:
                for key, value in extra.items():
                    counts[f"{name}:{key}"] += value
    if len(execute) != requests:
        raise ValueError(f"{len(execute)} execute spans for {requests} timed requests")
    session = _session_totals(before, after, phase.tenant_ops)
    traced_cpu = phase.cpu_ms / len(phase.latencies)
    metrics = {
        "serve.boot.import_ms": trace["import_ms"],
        "serve.transport_ms": statistics.fmean(transport),
        "serve.admission.wait_ms": statistics.fmean(waits) if waits else 0.0,
        "serve.session.parse_hit_ratio": _ratio(
            session["parse_hits"],
            session["parse_hits"] + session["parse_misses"]),
        "serve.session.rewrite_hit_ratio": _ratio(
            session["rewriting_hits"], session["rewrites"]),
        "serve.jobs.execute_ms": statistics.fmean(execute),
        "payloads.bytes_per_req": statistics.fmean(b for _, b in timed.values()),
        "lf.parser.calls_per_req": calls["lf.parser.parse"] / requests,
        "lf.plan.compiles_per_req": calls["lf.plan.compile"] / requests,
        "lf.plan.hit_ratio": 1.0 - _ratio(counts["plan_miss"], counts["plan_for"])
        if counts["plan_for"] else 0.0,
        "rewriting.candidates_per_req":
            counts["rewriting.rewrite:candidates"] / requests,
        "chase.engine.triggers_per_req":
            counts["chase.engine.chase:triggers"] / requests,
        "chase.engine.fired_ratio": _ratio(
            counts["chase.engine.chase:fired"],
            counts["chase.engine.chase:triggers"]),
        "chase.view.overdeleted_per_update": _ratio(
            counts["chase.view.update:overdeleted"], calls["chase.view.update"]),
        "chase.view.rederive_ratio": _ratio(
            counts["chase.view.update:rederived"],
            counts["chase.view.update:overdeleted"]),
        "fc.search.nodes_per_req": counts["fc.search.search:nodes"] / requests,
        "fc.search.materialised_ratio": _ratio(
            counts["fc.search.search:materialised"],
            counts["fc.search.search:created"]),
        "lf.structures.copies_per_req": calls["lf.structures.copy"] / requests,
        "runtime.guard.overshoot_ms": statistics.median(overshoots),
        "trace.overhead_pct": (traced_cpu / plain_cpu_per_req - 1.0) * 100.0,
    }
    for span, metric in SELF_TIME.items():
        metrics[metric] = self_ms[span] / requests
    return metrics
