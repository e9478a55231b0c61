"""Pipeline stages over a run directory.

`_STAGE_TABLE` declares, in run order, each stage's function, the earlier
stages' artifacts it reads and the files it may write under
`<run>/<stage>/`; `_store_files` names the stores it opens under a given
config. A stage is called as `stage(cfg, files)` and reaches its
run only through `files`, a `StageFiles`, which refuses an undeclared name,
opens the stores and hashes each file once as it records it. `run_stage`
checks every declared input before the stage writes anything, and alone
writes the manifest, in one `RunManifest.record_stage` call once the stage
has returned. Outputs are deterministic given the config and seeds;
only the manifest carries timestamps. Every file is opened with
`newline=""`, so its reader sees each "\r" and lines end at "\n" only.

    ingest      parse terminologies into canonical record files
    popularity  popularity proxies per identifier + rank-frequency points
    sample      stratified bins, per-bin draws, train/validation split
    prompts     evaluation prompt set + fine-tuning files
    eval        drive baseline and fine-tuned providers, score hits@1
    classify    outcome categories, derived metrics, sankey edges
    lexicalize  embedding alignment, PCA projection, paired distances
    stats       two-way ANOVA and Games-Howell per popularity proxy
    report      summary tables (accuracy, categories, derived metrics) from outcomes

Within one process, a stage hands the rows of a file it wrote or read to
the stage right after it in `STAGES`, when that stage reads the file too:
`StageFiles.write` hands on the data it writes, which for such a file are
the list of rows its reader would return, and `StageFiles.read` returns
them in place of decoding the file while its SHA-256 is the one recorded
with them. `_HELD` keeps them between
`run_stage` calls; before a stage starts, `run_stage` drops every held file
that the stage does not read, and a stage that raises leaves nothing held.

A stage reaches a remote service only through `StageFiles.endpoint`, one
per service and stage, built from `StageFiles.ENDPOINTS` (esearch and
completions are rate-limited at `limits.rate_per_second`, so both eval
phases share one bucket; embeddings are not) over the one
`remote.HttpTransport` the stage opens at its first endpoint, which
`run_stage` closes when the stage returns or raises. The live stages send
only what their stores lack. `StageFiles.store` records each store once it
is closed, so each digest is that of its final bytes.

`run_stage` runs the stage function with Python's cyclic garbage collector
paused. The rows a stage builds (records, pairs, prompts, eval items,
outcomes) and the tables around them form no reference cycles, so
reference counting frees each as soon as it is dropped; at release size the
collector would otherwise rescan some 200k live rows thousands of times and
find no garbage among them. The caller's collector setting is restored when
the stage returns or raises, so between stages, and around the input checks
and the manifest write, the collector runs under its usual thresholds.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
from contextlib import closing, contextmanager
from pathlib import Path

from . import manifest as run_manifest
from .alignment import (
    paired_distance_analysis,
    pca_project,
    rowwise_alignment,
    write_alignment_json,
    write_distance_summary_csv,
    write_pca_points_csv,
    write_pca_variance_csv,
)
from .config import (
    BLAS_THREADS_ENV,
    COMPLETION_KEY_ENV,
    EMBEDDING_KEY_ENV,
    EUTILS_KEY_ENV,
    GO_CC_NAMESPACE,
    RunConfig,
)
from .embeddings import EmbeddingCache, FileEmbeddingStore, HttpEmbeddingProvider
from .errors import DomainError, ValidationError, utf8_named
from .evaluate import (
    Phase,
    expected_answers,
    read_results_jsonl,
    run_eval,
    run_summary,
    write_results_jsonl,
)
from .jsonl import write_document
from .ontology import (
    Terminology,
    build_index,
    filter_namespace,
    parse_gene_map,
    parse_obo_document,
    read_records_jsonl,
    write_records_jsonl,
)
from .outcomes import (
    DERIVED_COLUMNS,
    PairOutcome,
    build_outcomes,
    derived_row,
    read_outcomes_jsonl,
    sankey_edges,
    split_counts,
    table_report,
    write_categories_csv,
    write_derived_csv,
    write_outcomes_jsonl,
    write_performance_csv,
    write_sankey_csv,
)
from .pmc import ESEARCH_URL, PmcClient, QueryCache, identifier_query, term_query
from .popularity import (
    PROXIES,
    PopularityRecord,
    laplace_log,
    load_annotation_counts,
    log_log_points,
    rank_frequency,
    read_popularity_csv,
    write_popularity_csv,
)
from .prompts import (
    TEMPLATE_IDS,
    Direction,
    emit_finetune_file,
    expand_prompts,
    finetune_manifest,
    read_prompts_jsonl,
    write_prompts_jsonl,
)
from .providers import HttpCompletionProvider, ReplayProvider, TranscriptWriter
from .ratelimit import TokenBucket
from .remote import Endpoint, HttpTransport
from .sampling import (
    SampledPair,
    Split,
    make_split,
    pair_id,
    read_split_jsonl,
    sample_bins,
    stratify,
    write_split_jsonl,
)
from .stats import (
    Observation,
    games_howell,
    two_way_anova,
    write_anova_csv,
    write_games_howell_csv,
    write_observations_csv,
)
from .tables import write_table

class StageFiles:
    """A stage's one way into its run: every file it reads, writes or appends.

    `inputs` and `outputs` map each file the stage reached through here to
    its SHA-256, taken once, and `run_stage` stores them in `manifest` as
    they are: a file under the run directory by its name there, any other
    by its path. `reads` and `writes` are the stage's declarations in
    `_STAGE_TABLE`: artifact names relative to the run directory
    (`sample/split.jsonl`, the stage that writes one being its first part),
    and names under `<run>/<stage>/`; `next_reads` are the artifacts that
    the next stage in `STAGES` reads; `stores` are the stores the stage
    opens under this config (`_store_files`). Any other name is a KeyError,
    a fault in the code and never in the input. `endpoint` reaches the
    remote services, and `close` closes the transport they share.
    """

    # service -> (its URL under a config, the variable holding its key, the request field,
    # entry and form its key is sent as when set, whether it is rate-limited)
    BEARER = ("headers", "Authorization", "Bearer {}")
    ENDPOINTS = {
        "esearch": (lambda cfg: ESEARCH_URL, EUTILS_KEY_ENV, ("params", "api_key", "{}"), True),
        "completion": (lambda cfg: cfg.completion_url, COMPLETION_KEY_ENV, BEARER, True),
        "embedding": (lambda cfg: cfg.embedding_url, EMBEDDING_KEY_ENV, BEARER, False),
    }

    def __init__(self, cfg: RunConfig, stage: str):
        self.cfg = cfg
        self.stage = stage
        self.run_dir = cfg.run_dir
        self.out_dir = cfg.run_dir / stage
        _, self.reads, self.writes = _STAGE_TABLE[stage]
        self.next_reads = _NEXT_READS[stage]
        self.stores = _store_files(cfg, stage)
        self.manifest = run_manifest.RunManifest(cfg.run_dir)
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self._transport: HttpTransport | None = None
        self._endpoints: dict[str, Endpoint] = {}

    def _record(self, path: Path, output: bool = False) -> None:
        name = (path.relative_to(self.run_dir).as_posix() if path.is_relative_to(self.run_dir)
                else str(path))
        recorded = self.outputs if output else self.inputs
        if name not in recorded:
            recorded[name] = run_manifest.sha256_file(path)

    def artifact(self, name: str) -> Path:
        """The earlier stage's file `<run>/<name>`, which must be declared and exist."""
        if name not in self.reads:
            raise KeyError(f"stage {self.stage!r} does not declare the input {name!r}")
        path = self.run_dir / name
        if not path.exists():
            raise DomainError(f"missing {path}; run the {name.split('/')[0]!r} stage first")
        self._record(path)
        return path

    def source(self, path: Path | None, key: str) -> Path:
        """The file that config key `key` names, which must exist."""
        if path is None:
            raise ValidationError(f"config does not set {key}")
        if not path.exists():
            raise ValidationError(f"{key} not found: {path}")
        self._record(path)
        return path

    def read(self, name: str, reader, *args):
        """`reader(stream, *args)` over the artifact `<run>/<name>`.

        The file is hashed as always. When `_HELD` has rows under that
        digest, which the stage before this one wrote or read, they are
        returned in place of decoding the file again; otherwise the reader
        decodes it. The rows are held on only if the next stage in `STAGES`
        reads this artifact too, and every caller gets its own list.
        """
        path = self.artifact(name)
        digest = self.inputs[name]
        held_digest, rows = _HELD.pop(name, (None, None))
        if held_digest != digest:
            with open(path, encoding="utf-8", newline="") as fh, utf8_named(path):
                rows = reader(fh, *args)
        if name not in self.next_reads:
            return rows
        _HELD[name] = (digest, rows)
        return list(rows)

    def write(self, name: str, writer, data) -> None:
        """`writer(data, stream)` into this stage's declared file `<run>/<stage>/<name>`.

        When the next stage in `STAGES` reads this file, `list(data)` is
        held in `_HELD` under the file's digest, for `read` to hand over:
        the data of such a file are a list of the rows its reader returns.
        """
        if name not in self.writes:
            raise KeyError(f"stage {self.stage!r} does not declare the output {name!r}")
        path = self.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer(data, fh)
        self._record(path, output=True)
        artifact = f"{self.stage}/{name}"
        if artifact in self.next_reads:
            _HELD[artifact] = (self.outputs[artifact], list(data))

    @contextmanager
    def store(self, store_type, name: str):
        """The `jsonl.KeyedStore` `store_type` over the file of the store `name`.

        It is closed as the block exits and, if the block ends, recorded: an
        output under `<run>/<stage>/`, else an input.
        """
        store = store_type(self.stores[name])
        try:
            yield store
        finally:
            store.close()
        if store.path.exists():
            self._record(store.path, output=store.path.is_relative_to(self.out_dir))

    def endpoint(self, name: str) -> Endpoint:
        """The stage's one `remote.Endpoint` for the service `name`, with its token bucket
        if limited, built at the first call for that name.

        The first call of all opens the `HttpTransport`, pooling `concurrency`
        connections, that every endpoint of the stage sends through.
        """
        if name not in self._endpoints:
            url, key_env, (field, entry, form), limited = self.ENDPOINTS[name]
            if self._transport is None:
                self._transport = HttpTransport(self.cfg.concurrency)
            key = os.environ.get(key_env)
            self._endpoints[name] = Endpoint(
                name, url(self.cfg), self._transport,
                TokenBucket(self.cfg.rate_per_second) if limited else None,
                {field: {entry: form.format(key)}} if key else None)
        return self._endpoints[name]

    def close(self) -> None:
        """Close the transport, if an endpoint opened one."""
        if self._transport is not None:
            self._transport.close()


def _store_files(cfg: RunConfig, stage: str) -> dict[str, Path]:
    """Each store `stage` opens under `cfg`, by its name, and the file it grows.

    `popularity` grows the PMC cache that `paths.pmc_cache` names, else
    its own. `eval` keeps the transcript of each phase that no config-named
    transcript replays, and `lexicalize` the cache of an embedding source
    that no config-named store stands in for, under `<run>/<stage>/`, when
    the config names the endpoint.
    """
    out_dir = cfg.run_dir / stage
    if stage == "popularity":
        return {"pmc_cache.jsonl": cfg.pmc_cache or out_dir / "pmc_cache.jsonl"}
    names = []
    if stage == "eval" and cfg.completion_url:
        names = [f"transcript_{phase.value}.jsonl" for phase in Phase
                 if phase.value not in cfg.transcripts]
    elif stage == "lexicalize" and cfg.embedding_url:
        names = ["embeddings.jsonl"]
    return {name: out_dir / name for name in names}


def _run_stem(phase: Phase, t: Terminology, d: Direction) -> str:
    """Names one eval run's files: eval/results_<stem>.jsonl, eval/summary_<stem>.json."""
    return f"{phase.value}_{t.key}_{d.value}"


def _write_rank_points(ranked, sink) -> None:
    points = zip(ranked, log_log_points(ranked))
    write_table(["identifier", "count", "rank", "log10_rank", "log10_count_plus1"],
                ((*entry, lx, ly) for entry, (lx, ly) in points), sink)


# ---------------------------------------------------------------------------
# Stages


def stage_ingest(cfg: RunConfig, files: StageFiles) -> dict:
    hpo_path = files.source(cfg.hpo_obo, "paths.hpo_obo")
    go_path = files.source(cfg.go_obo, "paths.go_obo")
    gene_path = files.source(cfg.gene_map, "paths.gene_map")

    with open(hpo_path, encoding="utf-8", newline="") as fh, utf8_named(hpo_path):
        hpo_doc = parse_obo_document(fh, Terminology.HPO)
    with open(go_path, encoding="utf-8", newline="") as fh, utf8_named(go_path):
        go_doc = parse_obo_document(fh, Terminology.GO_CC)
    go_records = filter_namespace(go_doc.records, GO_CC_NAMESPACE)
    with open(gene_path, encoding="utf-8", newline="") as fh, utf8_named(gene_path):
        gene_records = parse_gene_map(fh)

    for t, records in (
        (Terminology.HPO, hpo_doc.records),
        (Terminology.GO_CC, go_records),
        (Terminology.GENE, gene_records),
    ):
        build_index(records)  # fail loudly on duplicate identifiers or labels
        files.write(f"records_{t.key}.jsonl", write_records_jsonl, records)
    return {"release_tags": {"HPO": hpo_doc.header.get("data-version"),
                             "GO_CC": go_doc.header.get("data-version")}}


def stage_popularity(cfg: RunConfig, files: StageFiles) -> None:
    records_by_t = {t: files.read(f"ingest/records_{t.key}.jsonl", read_records_jsonl)
                    for t in Terminology}

    annotations_by_t: dict[Terminology, dict[str, int]] = {t: {} for t in Terminology}
    for t, ann_path in cfg.annotations.items():
        files.source(ann_path, f"paths.annotations_{t.key}")
        with open(ann_path, encoding="utf-8", newline="") as fh, utf8_named(ann_path):
            annotations_by_t[t] = load_annotation_counts(fh, t)

    queries = [
        query
        for t in Terminology for record in records_by_t[t]
        for query in (identifier_query(record.identifier), term_query(record.label))
    ]
    with files.store(QueryCache, "pmc_cache.jsonl") as cache:
        client = PmcClient(cache, None if cfg.offline else files.endpoint("esearch"))
        counts = dict(zip(queries, client.fetch_counts(queries, cfg.concurrency)))

    all_records: list[PopularityRecord] = []
    per_terminology: dict[Terminology, list[PopularityRecord]] = {}
    for t in Terminology:
        per_terminology[t] = [
            PopularityRecord(
                terminology=t,
                identifier=record.identifier,
                label=record.label,
                id_count_pmc=counts[identifier_query(record.identifier)],
                term_count_pmc=counts[term_query(record.label)],
                annotation_count=annotations_by_t[t].get(record.identifier, 0),
            )
            for record in records_by_t[t]
        ]
        all_records.extend(per_terminology[t])

    files.write("popularity.csv", write_popularity_csv, all_records)
    for t in Terminology:
        files.write(f"rank_points_{t.key}.csv", _write_rank_points,
                    rank_frequency(per_terminology[t], cfg.ranking_proxy))


def stage_sample(cfg: RunConfig, files: StageFiles) -> dict:
    pop_records = files.read("popularity/popularity.csv", read_popularity_csv)
    pairs: list[SampledPair] = []
    for t in Terminology:
        records = [r for r in pop_records if r.terminology is t]
        index = build_index(records)
        bins = stratify(rank_frequency(records, cfg.ranking_proxy), cfg.n_bins)
        sampled = sample_bins(bins, index, cfg.sampling_seed, cfg.per_bin)
        pairs.extend(make_split(index, sampled, bins, cfg.validation_cap, cfg.cap_seed))
    files.write("split.jsonl", write_split_jsonl, pairs)
    return {"seeds": {"sampling": cfg.sampling_seed, "validation_cap": cfg.cap_seed}}


def _split_seed(cfg: RunConfig, files: StageFiles) -> int:
    """The sampling seed that drew the split this stage read: the one the sample
    stage recorded with it, or the config's for a split that no recorded sample
    stage wrote (one copied into the run directory)."""
    sample = files.manifest.data["stages"].get("sample", {})
    if "seeds" in sample and sample["outputs"].get(_SPLIT) == files.inputs[_SPLIT]:
        return sample["seeds"]["sampling"]
    return cfg.sampling_seed


def stage_prompts(cfg: RunConfig, files: StageFiles) -> None:
    pairs = files.read(_SPLIT, read_split_jsonl)
    seed = _split_seed(cfg, files)

    eval_templates = TEMPLATE_IDS if cfg.all_templates else (1,)
    eval_prompts = []
    for direction in Direction:
        for pair in pairs:
            eval_prompts.extend(expand_prompts(pair, direction, eval_templates))
    files.write("prompts.jsonl", write_prompts_jsonl, eval_prompts)

    train_by_terminology: dict[Terminology, list[SampledPair]] = {}
    for pair in pairs:
        if pair.split is Split.TRAIN:
            train_by_terminology.setdefault(pair.terminology, []).append(pair)
    for t in Terminology:
        train_pairs = train_by_terminology.get(t, [])
        if not train_pairs:
            continue
        for direction in Direction:
            ft_prompts = []
            for pair in train_pairs:
                ft_prompts.extend(expand_prompts(pair, direction))
            base = f"finetune_{t.key}_{direction.value}"
            files.write(f"{base}.jsonl", emit_finetune_file, ft_prompts)
            files.write(f"{base}.manifest.json", write_document,
                        finetune_manifest(t, direction, seed, len(train_pairs), len(ft_prompts)))


@contextmanager
def _completion_provider(cfg: RunConfig, phase: Phase, files: StageFiles):
    """The phase's provider, for the block; a live one's transcript is a store."""
    transcript_path = cfg.transcripts.get(phase.value)
    name = f"transcript_{phase.value}.jsonl"
    if transcript_path is not None:
        yield ReplayProvider.from_transcript(
            files.source(transcript_path, f"paths.transcript_{phase.value}"))
    elif name in files.stores:
        with files.store(TranscriptWriter, name) as transcript:
            yield HttpCompletionProvider(files.endpoint("completion"), transcript)
    else:
        raise ValidationError(
            f"no completion source for phase {phase.value}: set "
            f"paths.transcript_{phase.value} or endpoints.completion_url"
        )


def stage_eval(cfg: RunConfig, files: StageFiles) -> None:
    pairs = files.read(_SPLIT, read_split_jsonl)
    prompts = files.read("prompts/prompts.jsonl", read_prompts_jsonl, pairs)

    grouped: dict[tuple[Terminology, Direction], list] = {}
    for p in prompts:
        grouped.setdefault((p.pair.terminology, p.direction), []).append(p)
    # (terminology, direction, prompts, normalized expected answers): both phases score these
    groups = [(t, d, grouped[(t, d)], expected_answers(grouped[(t, d)], cfg.extract_mode))
              for t in Terminology for d in Direction if grouped.get((t, d))]

    for phase, model_id in ((Phase.BASELINE, cfg.baseline_model),
                            (Phase.FINETUNED, cfg.finetuned_model)):
        with _completion_provider(cfg, phase, files) as provider:
            for t, d, group, expected in groups:
                items = run_eval(
                    provider, group, expected, model_id,
                    concurrency_limit=cfg.concurrency,
                    extract=cfg.extract_mode,
                )
                stem = _run_stem(phase, t, d)
                files.write(f"results_{stem}.jsonl", write_results_jsonl, items)
                files.write(f"summary_{stem}.json", write_document,
                            run_summary(items, model_id, t, d, phase))
        # drop the provider, with its transcript, and the last run's items, so
        # the next phase's transcript loads with no other one in memory
        provider = items = None


def stage_classify(cfg: RunConfig, files: StageFiles) -> None:
    split_by_pair = {pair_id(p): p.split
                     for p in files.read(_SPLIT, read_split_jsonl)}

    all_outcomes: list[PairOutcome] = []
    metrics_payload = {}
    for t in Terminology:
        for d in Direction:
            baseline, finetuned = (
                files.read(f"eval/results_{_run_stem(phase, t, d)}.jsonl", read_results_jsonl)
                for phase in (Phase.BASELINE, Phase.FINETUNED))
            outcomes = build_outcomes(baseline, finetuned, t, d, split_by_pair)
            all_outcomes.extend(outcomes)
            counts = split_counts(outcomes)
            metrics_payload[f"{t.value}:{d.value}"] = dict(zip(DERIVED_COLUMNS,
                                                               derived_row(*counts)))
            for split, split_count in zip(Split, counts):
                files.write(f"sankey_{t.key}_{d.value}_{split.value}.csv", write_sankey_csv,
                            sankey_edges(split_count))

    files.write("outcomes.jsonl", write_outcomes_jsonl, all_outcomes)
    files.write("metrics.json", write_document, metrics_payload)


@contextmanager
def _embedding_provider(cfg: RunConfig, files: StageFiles):
    """The embedding source, for the block; an HTTP one's cache is a store."""
    if cfg.embedding_store is not None:
        yield FileEmbeddingStore.from_path(
            files.source(cfg.embedding_store, "paths.embedding_store"))
    elif "embeddings.jsonl" in files.stores:
        with files.store(EmbeddingCache, "embeddings.jsonl") as cache:
            yield HttpEmbeddingProvider(files.endpoint("embedding"), cache)
    else:
        raise ValidationError(
            "no embedding source: set paths.embedding_store or endpoints.embedding_url")


def stage_lexicalize(cfg: RunConfig, files: StageFiles) -> None:
    pairs = [p for p in files.read(_SPLIT, read_split_jsonl)
             if p.split is Split.TRAIN]
    if not pairs:
        raise DomainError("no training pairs in the split")

    with _embedding_provider(cfg, files) as provider:
        vectors = []
        meta = []
        # terminology -> (first row, pairs): its terms, then its identifiers in pair order
        rows = {}
        alignment_results = {}
        for t in Terminology:
            t_pairs = [p for p in pairs if p.terminology is t]
            if not t_pairs:
                continue
            term_vecs = provider.embed_many([p.term for p in t_pairs])
            id_vecs = provider.embed_many([p.identifier for p in t_pairs])
            alignment_results[t.display] = rowwise_alignment(term_vecs, id_vecs)
            rows[t.display] = (len(vectors), len(t_pairs))
            vectors.extend(term_vecs)
            vectors.extend(id_vecs)
            meta.extend((p.term, "term", t.display) for p in t_pairs)
            meta.extend((p.identifier, "identifier", t.display) for p in t_pairs)

    projection = pca_project(vectors, k=2)
    scores = projection.scores
    summary = paired_distance_analysis({
        name: (scores[start:start + n], scores[start + n:start + 2 * n])
        for name, (start, n) in rows.items()
    })

    files.write("alignment.json", write_alignment_json, alignment_results)
    files.write("pca_points.csv", write_pca_points_csv,
                zip(meta, scores.tolist(), strict=True))
    files.write("pca_variance.csv", write_pca_variance_csv, projection.explained_variance)
    files.write("distance_summary.csv", write_distance_summary_csv, summary)


def stage_stats(cfg: RunConfig, files: StageFiles) -> None:
    pop_records = files.read("popularity/popularity.csv", read_popularity_csv)
    counts_by_pair = {pair_id(r): r for r in pop_records}
    outcomes = files.read("classify/outcomes.jsonl", read_outcomes_jsonl)

    direction = Direction(cfg.stats_direction)
    use_baseline = cfg.stats_phase == "baseline"
    train_outcomes = [
        o for o in outcomes
        if o.split is Split.TRAIN and o.direction is direction
    ]
    if not train_outcomes:
        raise DomainError("no training outcomes for the configured stats direction")

    for proxy in PROXIES:
        observations = []
        for o in train_outcomes:
            record = counts_by_pair.get(o.pair_id)
            if record is None:
                raise DomainError(f"no popularity record for pair {o.pair_id!r}")
            correct = o.baseline_correct if use_baseline else o.finetuned_correct
            observations.append(
                Observation(
                    terminology=o.terminology.display,
                    correctness=1 if correct else 0,
                    value=laplace_log(record.proxy(proxy)),
                )
            )
        files.write(f"observations_{proxy}.csv", write_observations_csv, observations)
        files.write(f"anova_{proxy}.csv", write_anova_csv, two_way_anova(observations))
        groups: dict[str, list[float]] = {}
        for obs in observations:
            groups.setdefault(obs.terminology, []).append(obs.value)
        files.write(f"games_howell_{proxy}.csv", write_games_howell_csv,
                    games_howell(sorted(groups.items())))


def stage_report(cfg: RunConfig, files: StageFiles) -> None:
    performance, categories, derived = table_report(
        files.read("classify/outcomes.jsonl", read_outcomes_jsonl))
    files.write("performance_summary.csv", write_performance_csv, performance)
    files.write("outcome_categories.csv", write_categories_csv, categories)
    files.write("derived_metrics.csv", write_derived_csv, derived)


_MAPPINGS = [f"{t.key}_{d.value}" for t in Terminology for d in Direction]
_RUN_STEMS = [_run_stem(phase, t, d)
              for t in Terminology for d in Direction for phase in Phase]
_SPLIT = "sample/split.jsonl"
# stage name -> (function, artifacts it reads, files it may write), in run order. Reads
# are checked in this order; config-named sources are recorded as the stage reaches
# them. Fine-tune files are written only for a terminology with training pairs, and
# the stores a stage opens (`_store_files`) are declared by the config, not here. A
# function takes (cfg, files) and returns None, or the facts its manifest entry
# records: `ingest`'s release tags, the seeds that drew `sample`'s split.
_STAGE_TABLE = {
    "ingest": (stage_ingest, [], [f"records_{t.key}.jsonl" for t in Terminology]),
    "popularity": (stage_popularity, [f"ingest/records_{t.key}.jsonl" for t in Terminology],
                   ["popularity.csv", *(f"rank_points_{t.key}.csv" for t in Terminology)]),
    "sample": (stage_sample, ["popularity/popularity.csv"], ["split.jsonl"]),
    "prompts": (stage_prompts, [_SPLIT], ["prompts.jsonl", *(
        f"finetune_{td}{ext}" for td in _MAPPINGS for ext in (".jsonl", ".manifest.json"))]),
    "eval": (stage_eval, ["prompts/prompts.jsonl", _SPLIT], [
        f"{kind}_{stem}{ext}" for stem in _RUN_STEMS
        for kind, ext in (("results", ".jsonl"), ("summary", ".json"))]),
    "classify": (stage_classify, [_SPLIT, *(f"eval/results_{stem}.jsonl" for stem in _RUN_STEMS)],
                 [*(f"sankey_{td}_{split.value}.csv" for td in _MAPPINGS for split in Split),
                  "outcomes.jsonl", "metrics.json"]),
    "lexicalize": (stage_lexicalize, [_SPLIT], ["alignment.json", "pca_points.csv",
                   "pca_variance.csv", "distance_summary.csv"]),
    "stats": (stage_stats, ["popularity/popularity.csv", "classify/outcomes.jsonl"], [
        f"{kind}_{proxy}.csv"
        for proxy in PROXIES for kind in ("observations", "anova", "games_howell")]),
    "report": (stage_report, ["classify/outcomes.jsonl"],
               ["performance_summary.csv", "outcome_categories.csv", "derived_metrics.csv"]),
}
STAGES = tuple(_STAGE_TABLE)
# stage name -> the artifacts that the stage after it reads: the ones whose rows it hands on
_NEXT_READS = {stage: frozenset(_STAGE_TABLE[after][1] if after else ())
               for stage, after in zip(STAGES, [*STAGES[1:], None])}
# artifact name -> (sha256, rows): the rows a stage wrote to the artifact, or read
# from it, held for the stage after it, which reads the file too. It lives at
# module level because it must outlive one `run_stage` call: `--stage all` and
# in-process callers run the stages one `run_stage` call at a time.
_HELD: dict[str, tuple[str, list]] = {}


def run_stage(cfg: RunConfig, stage: str, dry_run: bool = False) -> None:
    """Execute one stage; raises on any failure (callers map to exit codes)."""
    if stage not in _STAGE_TABLE:
        raise ValidationError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
    stage_func, reads, writes = _STAGE_TABLE[stage]
    if dry_run:
        out_dir = cfg.run_dir / stage
        stores = [name for name, path in _store_files(cfg, stage).items()
                  if path.is_relative_to(out_dir)]
        print(f"[dry-run] {stage}: would write {', '.join([*writes, *stores])} under {out_dir}")
        return
    # Rows are held only through an unbroken run of stages that read them, so a
    # stage starts with no rows held but those of its own inputs.
    for name in _HELD.keys() - set(reads):
        del _HELD[name]
    # A stage's data hold no reference cycles, so reference counting frees
    # them and the cyclic collector would only rescan live rows.
    was_enabled = gc.isenabled()
    try:
        files = StageFiles(cfg, stage)
        for name in reads:  # every input, before the stage writes anything
            files.artifact(name)
        gc.disable()
        start = time.perf_counter()
        with closing(files):  # the transport, if the stage reached an endpoint
            facts = stage_func(cfg, files)
    except BaseException:
        _HELD.clear()  # nothing is handed on past a stage that failed
        raise
    finally:
        if was_enabled:
            gc.enable()
    metrics = {
        "wall_s": time.perf_counter() - start,
        # ru_maxrss is in KiB on Linux
        "rss_high_water_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    files.manifest.record_stage(
        stage, cfg.raw, {"sampling": cfg.sampling_seed, "validation_cap": cfg.cap_seed},
        {name: os.environ.get(name) for name in BLAS_THREADS_ENV},
        files.inputs, files.outputs, metrics, facts)
    print(f"[{stage}] wrote {len(files.outputs)} file(s) under {files.out_dir}",
          file=sys.stderr)
