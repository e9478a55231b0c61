"""Traced runs: spans around termbench's layer boundaries, set from outside.

`Tracer.install()` wraps the helpers that `termbench.pipeline` imports by
name, a few methods on their classes and `termbench.manifest.sha256_file`.
Each call records one span (id, parent, name, start, end) in memory; spans
opened in eval's worker threads take the main thread's innermost open span
as parent. Row counts come from what the `read_*` functions return (a
list) and what the `write_*` functions return (a count). `per_layer()`
turns spans and counts into the per-layer metrics; `write_spans()` saves
every span, all sharing one run id, when the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import threading
import time
import uuid
from collections import defaultdict
from pathlib import Path

import termbench.manifest
import termbench.pipeline
from termbench.embeddings import FileEmbeddingStore, HttpEmbeddingProvider
from termbench.pmc import PmcClient, QueryCache
from termbench.providers import HttpCompletionProvider, ReplayProvider, TranscriptWriter
from termbench.ratelimit import TokenBucket

STAGES = termbench.pipeline.STAGES

# span name -> helpers in the termbench.pipeline namespace that it covers
PIPELINE_HELPERS = {
    "ontology.parse": ("parse_obo_document", "parse_gene_map"),
    "ontology.records_write": ("write_records_jsonl",),
    "ontology.records_read": ("read_records_jsonl",),
    "popularity.annotations": ("load_annotation_counts",),
    "popularity.rank_frequency": ("rank_frequency",),
    "popularity.csv_write": ("write_popularity_csv",),
    "popularity.csv_read": ("read_popularity_csv",),
    "sampling.draw": ("stratify", "sample_bins", "make_split"),
    "sampling.split_write": ("write_split_jsonl",),
    "sampling.split_read": ("read_split_jsonl",),
    "prompts.expand": ("expand_prompts",),
    "prompts.write": ("write_prompts_jsonl", "emit_finetune_file"),
    "prompts.read": ("read_prompts_jsonl",),
    "evaluate.run_eval": ("run_eval",),
    "evaluate.results_write": ("write_results_jsonl",),
    "evaluate.results_read": ("read_results_jsonl",),
    "outcomes.build": ("build_outcomes",),
    "outcomes.table_report": ("table_report",),
    "outcomes.write": ("write_outcomes_jsonl",),
    "outcomes.read": ("read_outcomes_jsonl",),
    "alignment.rowwise": ("rowwise_alignment",),
    "alignment.pca": ("pca_project",),
    "alignment.distance": ("paired_distance_analysis",),
    "stats.anova": ("two_way_anova",),
    "stats.games_howell": ("games_howell",),
}
# span name -> (class, method); both completion providers share one span name
METHODS = {
    "providers.complete": ((ReplayProvider, "complete"), (HttpCompletionProvider, "complete")),
    "providers.transcript_write": ((TranscriptWriter, "record"),),
    "providers.transcript_load": ((ReplayProvider, "from_transcript"),),
    "pmc.cache_load": ((QueryCache, "__init__"),),
    "ratelimit.acquire": ((TokenBucket, "acquire"),),
    "embeddings.store_load": ((FileEmbeddingStore, "from_path"),),
    "embeddings.embed": ((HttpEmbeddingProvider, "embed_many"),),
}
ROWS_READ = {"ontology.records_read", "sampling.split_read", "evaluate.results_read",
             "outcomes.read"}
ROWS_WRITTEN = {"sampling.split_write", "evaluate.results_write", "outcomes.write"}


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))
        if name in ROWS_READ:
            self.counts[name + ".rows"] += len(result)
        elif name in ROWS_WRITTEN:
            self.counts[name + ".rows"] += result
        return result

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, helpers in PIPELINE_HELPERS.items():
            for helper in helpers:
                fn = getattr(termbench.pipeline, helper)
                setattr(termbench.pipeline, helper, self._wrap(name, fn))
        for name, targets in METHODS.items():
            for cls, attr in targets:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, raw))

        fetch_count = PmcClient.fetch_count

        def traced_fetch(client, query, db="pmc"):
            if client.cache.get(query, db) is not None:
                self.counts["pmc.cache_hits"] += 1
            return self.call("pmc.fetch", fetch_count, client, query, db)
        PmcClient.fetch_count = traced_fetch

        sha256_file = termbench.manifest.sha256_file

        def traced_sha(path):
            self.counts["manifest.hash_bytes"] += os.path.getsize(path)
            return self.call("manifest.hash", sha256_file, path)
        termbench.manifest.sha256_file = traced_sha

    def run_stage(self, cfg, stage: str) -> None:
        self.call(f"pipeline.{stage}", termbench.pipeline.run_stage, cfg, stage)

    def _self_time(self, name: str) -> float:
        """Summed duration of `name` spans minus the time their children cover."""
        children = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        total = 0.0
        for span_id, _, n, start, end in self.spans:
            if n != name:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += (end - start) - covered
        return total

    def per_layer(self, setup: dict, remote: dict | None) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as {name: (value, unit)}; `remote` is the fakes' report."""
        remote = remote or {"requests": {}, "busy_s": {}, "texts": 0}
        requests = remote["requests"]
        busy = remote["busy_s"]

        durations: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for _, _, name, start, end in self.spans:
            durations[name] += end - start
            calls[name] += 1

        def ratio(num, den):
            return num / den if den else 0.0

        m = {f"pipeline.{s}.wall_s": (durations[f"pipeline.{s}"], "s") for s in STAGES}
        m["cli.import_s"] = (setup["import_s"], "s")
        m["config.load_s"] = (setup["config_s"], "s")
        m["manifest.hash_s"] = (durations["manifest.hash"], "s")
        m["manifest.hash_mb"] = (self.counts["manifest.hash_bytes"] / 1e6, "MB")
        for name in ("parse", "records_write", "records_read"):
            m[f"ontology.{name}_s"] = (durations[f"ontology.{name}"], "s")
        m["ontology.records_read_rows"] = (self.counts["ontology.records_read.rows"], "count")
        for name in ("annotations", "rank_frequency", "csv_write", "csv_read"):
            m[f"popularity.{name}_s"] = (durations[f"popularity.{name}"], "s")
        fetches = calls["pmc.fetch"]
        m["pmc.cache_load_s"] = (durations["pmc.cache_load"], "s")
        m["pmc.fetch.calls"] = (fetches, "count")
        m["pmc.fetch_s"] = (durations["pmc.fetch"], "s")
        m["pmc.cache_hit_ratio"] = (ratio(self.counts["pmc.cache_hits"], fetches), "ratio")
        m["pmc.requests"] = (requests.get("esearch", 0), "count")
        m["pmc.remote_wait_s"] = (busy.get("esearch", 0.0), "s")
        m["ratelimit.acquire.calls"] = (calls["ratelimit.acquire"], "count")
        m["ratelimit.wait_s"] = (durations["ratelimit.acquire"], "s")
        for name in ("draw", "split_write", "split_read"):
            m[f"sampling.{name}_s"] = (durations[f"sampling.{name}"], "s")
        m["sampling.split_reads_per_write"] = (ratio(
            self.counts["sampling.split_read.rows"],
            self.counts["sampling.split_write.rows"]), "ratio")
        for name in ("expand", "write", "read"):
            m[f"prompts.{name}_s"] = (durations[f"prompts.{name}"], "s")
        m["providers.transcript_load_s"] = (durations["providers.transcript_load"], "s")
        m["providers.complete.calls"] = (calls["providers.complete"], "count")
        m["providers.complete_s"] = (durations["providers.complete"], "s")
        m["providers.requests"] = (requests.get("completion", 0), "count")
        m["providers.remote_wait_s"] = (busy.get("completion", 0.0), "s")
        m["providers.transcript_write_s"] = (durations["providers.transcript_write"], "s")
        m["evaluate.run_eval_self_s"] = (self._self_time("evaluate.run_eval"), "s")
        m["evaluate.results_write_s"] = (durations["evaluate.results_write"], "s")
        m["evaluate.results_read_s"] = (durations["evaluate.results_read"], "s")
        m["evaluate.results_reads_per_write"] = (ratio(
            self.counts["evaluate.results_read.rows"],
            self.counts["evaluate.results_write.rows"]), "ratio")
        for name in ("build", "table_report", "write", "read"):
            m[f"outcomes.{name}_s"] = (durations[f"outcomes.{name}"], "s")
        m["outcomes.reads_per_write"] = (ratio(
            self.counts["outcomes.read.rows"], self.counts["outcomes.write.rows"]), "ratio")
        embed_requests = requests.get("embedding", 0)
        m["embeddings.store_load_s"] = (durations["embeddings.store_load"], "s")
        m["embeddings.embed.calls"] = (calls["embeddings.embed"], "count")
        m["embeddings.requests"] = (embed_requests, "count")
        m["embeddings.texts_per_request"] = (ratio(remote["texts"], embed_requests), "ratio")
        m["embeddings.remote_wait_s"] = (busy.get("embedding", 0.0), "s")
        for name in ("rowwise", "pca", "distance"):
            m[f"alignment.{name}_s"] = (durations[f"alignment.{name}"], "s")
        m["stats.anova_s"] = (durations["stats.anova"], "s")
        m["stats.games_howell_s"] = (durations["stats.games_howell"], "s")
        return m

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run_id": self.run_id, "span_id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
