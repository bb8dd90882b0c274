"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans and counts they record.

Every `.s` metric is self time in seconds summed over calls, except
`pipeline.stage.<stage>.s`, which is the stage's whole wall time.
"""

from __future__ import annotations

from collections import Counter

import clinnote.cohort
import clinnote.extraction
import clinnote.gateway
import clinnote.mock_llm
import clinnote.normalize
import clinnote.pipeline
import clinnote.predict
import clinnote.stats
import clinnote.summarize
from clinnote.errors import JudgeFailed
from clinnote.pipeline import STAGES

from spans import nearest_ancestor, self_times

# (name, unit, better): the traced run reports exactly these
METRICS = (
    [(f"pipeline.stage.{stage}.s", "s", "lower") for stage in STAGES]
    + [
        ("pipeline.self_s", "s", "lower"),
        ("gateway.chat.s", "s", "lower"),
        ("gateway.chat.calls", "count", "lower"),
        ("gateway.embed.s", "s", "lower"),
        ("gateway.cache.get.s", "s", "lower"),
        ("gateway.cache.put.s", "s", "lower"),
        ("gateway.cache.put.calls", "count", "lower"),
        ("gateway.cache.lookups", "count", "lower"),
        ("gateway.cache.hit_ratio", "ratio", "higher"),
        ("gateway.cache.file_mb", "MB", "lower"),
        ("gateway.backend.calls", "count", "lower"),
        ("gateway.backend.wait_s", "s", "lower"),
        ("gateway.backend.max_inflight", "count", "higher"),
        ("normalize.normalize_variable.s", "s", "lower"),
        ("normalize.cluster_entries.s", "s", "lower"),
        ("normalize.pam.n_max", "count", "lower"),
        ("normalize.pam.swaps", "count", "lower"),
        ("normalize.synthesize_scheme.s", "s", "lower"),
        ("normalize.label_entries.s", "s", "lower"),
        ("normalize.label.calls", "count", "lower"),
        ("normalize.label.entries", "count", "lower"),
        ("normalize.label.distinct_ratio", "ratio", "lower"),
        ("normalize.fallback_ratio", "ratio", "lower"),
        ("predict.evaluate_cv.s", "s", "lower"),
        ("predict.fit_vectorizer.s", "s", "lower"),
        ("predict.transform.s", "s", "lower"),
        ("predict.train_classifier.s", "s", "lower"),
        ("predict.train_classifier.calls", "count", "lower"),
        ("predict.converged_ratio", "ratio", "higher"),
        ("predict.vocab_max", "count", "lower"),
        ("extraction.extract.s", "s", "lower"),
        ("extraction.parse.s", "s", "lower"),
        ("extraction.calls_per_note", "ratio", "lower"),
        ("extraction.quarantined", "count", "lower"),
        ("summarize.summarize.s", "s", "lower"),
        ("summarize.calls_per_summary", "ratio", "lower"),
        ("summarize.contains_numbers", "count", "lower"),
        ("fidelity.judge_diagnoses.s", "s", "lower"),
        ("fidelity.judge.calls_per_patient", "ratio", "lower"),
        ("fidelity.judge_failed", "count", "lower"),
        ("stats.fit_univariate_logistic.s", "s", "lower"),
        ("stats.irls_iters", "count", "lower"),
        ("stats.chi_square_test.s", "s", "lower"),
        ("cohort.load_tables.s", "s", "lower"),
        ("vitals.canonicalize_record.s", "s", "lower"),
        ("mock_llm.reply.s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

# span name -> per-layer metric holding its summed self time
SELF_TIME_METRICS = {
    "gateway.chat": "gateway.chat.s",
    "gateway.embed": "gateway.embed.s",
    "gateway.cache.get": "gateway.cache.get.s",
    "gateway.cache.put": "gateway.cache.put.s",
    "gateway.backend": "gateway.backend.wait_s",
    "normalize.normalize_variable": "normalize.normalize_variable.s",
    "normalize.cluster_entries": "normalize.cluster_entries.s",
    "normalize.synthesize_scheme": "normalize.synthesize_scheme.s",
    "normalize.label_entries": "normalize.label_entries.s",
    "predict.evaluate_cv": "predict.evaluate_cv.s",
    "predict.fit_vectorizer": "predict.fit_vectorizer.s",
    "predict.transform": "predict.transform.s",
    "predict.train_classifier": "predict.train_classifier.s",
    "extraction.extract": "extraction.extract.s",
    "extraction.parse": "extraction.parse.s",
    "summarize.summarize": "summarize.summarize.s",
    "fidelity.judge_diagnoses": "fidelity.judge_diagnoses.s",
    "stats.fit_univariate_logistic": "stats.fit_univariate_logistic.s",
    "stats.chi_square_test": "stats.chi_square_test.s",
    "cohort.load_tables": "cohort.load_tables.s",
    "vitals.canonicalize_record": "vitals.canonicalize_record.s",
    "mock_llm.reply": "mock_llm.reply.s",
}

# callers whose gateway.chat requests are counted per call
_CHAT_CALLERS = ("extraction.extract", "summarize.summarize",
                 "fidelity.judge_diagnoses", "normalize.label_entries")


def instrument(tracer, backend):
    """Wrap every traced layer function; returns the counts the hooks fill."""
    counts = Counter()
    pipeline, predict = clinnote.pipeline, clinnote.predict

    def cache_get(result, args, kwargs):
        counts["cache.hits"] += result is not None

    def clustered(result, args, kwargs):
        counts["pam.n_max"] = max(counts["pam.n_max"], len(args[0]))
        counts["pam.swaps"] += len(result.cost_path) - 1

    def labeled(result, args, kwargs):
        entries = args[2]
        counts["label.entries"] += len(entries)
        counts["label.distinct"] += len({text for _, text in entries})
        counts["label.fallback"] += sum(e.status == "fallback" for e in result)

    def trained(result, args, kwargs):
        counts["train.converged"] += bool(result[1]["converged"])

    def vectorized(result, args, kwargs):
        counts["vocab_max"] = max(counts["vocab_max"], len(result.vocabulary))

    def extracted(result, args, kwargs):
        counts["quarantined"] += isinstance(result, clinnote.extraction.QuarantinedExtraction)

    def summarized(result, args, kwargs):
        counts["contains_numbers"] += result.status == "contains_numbers"

    def judge_error(exc):
        counts["judge_failed"] += isinstance(exc, JudgeFailed)

    def fitted(result, args, kwargs):
        counts["irls_iters"] += result.n_iter

    wrap = tracer.wrap
    wrap(pipeline.Runner, "run_stage", lambda self, stage: f"pipeline.stage.{stage}")
    wrap(clinnote.cohort, "load_tables", "cohort.load_tables")
    wrap(clinnote.extraction.Extractor, "extract", "extraction.extract", on_call=extracted)
    wrap(clinnote.extraction, "parse_structured_output", "extraction.parse")
    wrap(pipeline, "canonicalize_record", "vitals.canonicalize_record")
    wrap(pipeline, "normalize_variable", "normalize.normalize_variable")
    wrap(clinnote.normalize, "cluster_entries", "normalize.cluster_entries", on_call=clustered)
    wrap(clinnote.normalize, "synthesize_scheme", "normalize.synthesize_scheme")
    wrap(clinnote.normalize, "label_entries", "normalize.label_entries", on_call=labeled)
    wrap(pipeline, "judge_diagnoses", "fidelity.judge_diagnoses", on_error=judge_error)
    wrap(clinnote.stats, "fit_univariate_logistic", "stats.fit_univariate_logistic",
         on_call=fitted)
    wrap(clinnote.stats, "chi_square_test", "stats.chi_square_test")
    wrap(clinnote.summarize.Summarizer, "summarize", "summarize.summarize", on_call=summarized)
    wrap(pipeline, "evaluate_cv", "predict.evaluate_cv")
    wrap(predict, "fit_vectorizer", "predict.fit_vectorizer", on_call=vectorized)
    wrap(predict.Vectorizer, "transform", "predict.transform")
    wrap(predict, "train_classifier", "predict.train_classifier", on_call=trained)
    wrap(clinnote.gateway.LLMGateway, "chat", "gateway.chat")
    wrap(clinnote.gateway.LLMGateway, "chat_many", "gateway.chat_many")
    wrap(clinnote.gateway.LLMGateway, "embed", "gateway.embed")
    wrap(clinnote.gateway.JsonlCache, "get", "gateway.cache.get", on_call=cache_get)
    wrap(clinnote.gateway.JsonlCache, "put", "gateway.cache.put")
    wrap(clinnote.mock_llm.MockResponder, "reply", "mock_llm.reply")
    tracer.wrap_endpoint(backend)
    return counts


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, counts, cache_bytes):
    """Per-layer metric values from one traced run (all but trace.overhead_s)."""
    spans = tracer.spans
    own = self_times(spans)
    calls = Counter(s.name for s in spans)
    out = {name: 0.0 for name, _, _ in METRICS if name != "trace.overhead_s"}
    for s in spans:
        if s.name.startswith("pipeline.stage."):
            out[s.name + ".s"] += s.end - s.start
            out["pipeline.self_s"] += own[s.id]
        elif s.name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[s.name]] += own[s.id]

    caller_of = nearest_ancestor(spans, _CHAT_CALLERS)
    by_id = {s.id: s for s in spans}
    chats_by_caller = Counter(
        by_id[caller_of[s.id]].name for s in spans
        if s.name == "gateway.chat" and caller_of[s.id] is not None
    )
    out.update({
        "gateway.chat.calls": calls["gateway.chat"],
        "gateway.cache.put.calls": calls["gateway.cache.put"],
        "gateway.cache.lookups": calls["gateway.cache.get"],
        "gateway.cache.hit_ratio": _ratio(counts["cache.hits"], calls["gateway.cache.get"]),
        "gateway.cache.file_mb": cache_bytes / 1e6,
        "gateway.backend.calls": calls["gateway.backend"],
        "gateway.backend.max_inflight": tracer.max_inflight,
        "normalize.pam.n_max": counts["pam.n_max"],
        "normalize.pam.swaps": counts["pam.swaps"],
        "normalize.label.calls": chats_by_caller["normalize.label_entries"],
        "normalize.label.entries": counts["label.entries"],
        "normalize.label.distinct_ratio": _ratio(counts["label.distinct"],
                                                 counts["label.entries"]),
        "normalize.fallback_ratio": _ratio(counts["label.fallback"], counts["label.entries"]),
        "predict.train_classifier.calls": calls["predict.train_classifier"],
        "predict.converged_ratio": _ratio(counts["train.converged"],
                                          calls["predict.train_classifier"]),
        "predict.vocab_max": counts["vocab_max"],
        "extraction.calls_per_note": _ratio(chats_by_caller["extraction.extract"],
                                            calls["extraction.extract"]),
        "extraction.quarantined": counts["quarantined"],
        "summarize.calls_per_summary": _ratio(chats_by_caller["summarize.summarize"],
                                              calls["summarize.summarize"]),
        "summarize.contains_numbers": counts["contains_numbers"],
        "fidelity.judge.calls_per_patient": _ratio(chats_by_caller["fidelity.judge_diagnoses"],
                                                   calls["fidelity.judge_diagnoses"]),
        "fidelity.judge_failed": counts["judge_failed"],
        "stats.irls_iters": counts["irls_iters"],
    })
    return {k: float(v) for k, v in out.items()}
