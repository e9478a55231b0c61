"""Pipeline stages over a run directory.

Stages run in a fixed order, each reading the previous stages' artifacts
and writing its own under `<run>/<stage>/`, all through `StageFiles`.
Outputs are deterministic given the config and seeds; only the manifest
carries timestamps.

    ingest      parse terminologies into canonical record files
    popularity  popularity proxies per identifier + rank-frequency points
    sample      stratified bins, per-bin draws, train/validation split
    prompts     evaluation prompt set + fine-tuning files
    eval        drive baseline and fine-tuned providers, score hits@1
    classify    outcome categories, derived metrics, sankey edges
    lexicalize  embedding alignment, PCA projection, paired distances
    stats       two-way ANOVA and Games-Howell per popularity proxy
    report      summary tables (accuracy, categories, derived metrics) from outcomes
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import GENERATOR_NAME
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
    COMPLETION_KEY_ENV,
    EMBEDDING_KEY_ENV,
    EUTILS_KEY_ENV,
    GO_CC_NAMESPACE,
    TERMINOLOGY_KEYS,
    RunConfig,
)
from .embeddings import FileEmbeddingStore, HttpEmbeddingProvider, write_store_jsonl
from .errors import DomainError, ValidationError
from .evaluate import (
    Phase,
    expected_answers,
    read_results_jsonl,
    run_eval,
    run_summary,
    write_results_jsonl,
)
from .manifest import RunManifest
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
    PairOutcome,
    build_outcomes,
    derive_metrics,
    read_outcomes_jsonl,
    sankey_edges,
    table_report,
    write_categories_csv,
    write_derived_csv,
    write_outcomes_jsonl,
    write_performance_csv,
    write_sankey_csv,
)
from .pmc import PmcClient, QueryCache, identifier_query, term_query
from .popularity import (
    PROXIES,
    PopularityRecord,
    laplace_log,
    load_annotation_counts,
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
from .remote import http_transport
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

STAGES = (
    "ingest", "popularity", "sample", "prompts", "eval",
    "classify", "lexicalize", "stats", "report",
)

TERMINOLOGIES = tuple(Terminology)
DIRECTIONS = (Direction.TERM_TO_ID, Direction.ID_TO_TERM)


class MissingArtifactError(DomainError):
    pass


def _newline(name: str) -> str | None:
    """CSV files are opened with newline="", as the csv module requires."""
    return "" if name.endswith(".csv") else None


class StageFiles:
    """Every file one stage reads or writes, checked and recorded as it is opened.

    `run_stage` hashes `inputs` and `outputs` into the manifest, so a file a
    stage reaches through here cannot be missing from it. Artifact names are
    relative to the run directory (`sample/split.jsonl`); the stage that
    writes one is its first part. `read` hashes the artifact before decoding
    it and keeps the digest in `digests`, so the manifest does not hash it
    again.
    """

    def __init__(self, cfg: RunConfig, stage: str):
        self.stage = stage
        self.run_dir = cfg.run_dir
        self.out_dir = cfg.run_dir / stage
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self.digests: dict[Path, str] = {}

    def _input(self, path: Path) -> Path:
        if path not in self.inputs:
            self.inputs.append(path)
        return path

    def artifact(self, name: str) -> Path:
        """The earlier stage's file `<run>/<name>`, which must exist."""
        path = self.run_dir / name
        if not path.exists():
            producer = name.split("/")[0]
            raise MissingArtifactError(f"missing {path}; run the {producer!r} stage first")
        return self._input(path)

    def source(self, path: Path | None, key: str) -> Path:
        """The file that config key `key` names, which must exist."""
        if path is None:
            raise ValidationError(f"config does not set {key}")
        if not path.exists():
            raise ValidationError(f"{key} not found: {path}")
        return self._input(path)

    def read(self, name: str, reader, *args):
        """`reader(stream, *args)` over the artifact `<run>/<name>`.

        An artifact in `_LAST_READER` is decoded once per process: what the
        reader returned is held, keyed by (path, sha256, reader), until the
        last stage that reads it takes it. Every caller gets its own list.
        """
        path = self.artifact(name)
        digest = self.digests[path] = run_manifest.sha256_file(path)
        key = (path, digest, reader)
        held_key, rows = _DECODED.pop(name, (None, None))
        if held_key != key:
            with open(path, encoding="utf-8", newline=_newline(name)) as fh:
                rows = reader(fh, *args)
        if name not in _LAST_READER:
            return rows
        if self.stage != _LAST_READER[name]:
            _DECODED[name] = (key, rows)
        return list(rows)

    def write(self, name: str, writer, *args) -> None:
        """`writer(*args, stream)` into this stage's file `<run>/<stage>/<name>`."""
        path = self.out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline=_newline(name)) as fh:
            writer(*args, fh)
        self.outputs.append(path)


def _tkey(t: Terminology) -> str:
    return TERMINOLOGY_KEYS[t]


def _records_name(t: Terminology) -> str:
    return f"ingest/records_{_tkey(t)}.jsonl"


# Each artifact that more than one stage reads, and the last stage that reads it.
_LAST_READER = {
    **{_records_name(t): "sample" for t in TERMINOLOGIES},
    "popularity/popularity.csv": "stats",
    "sample/split.jsonl": "lexicalize",
    "classify/outcomes.jsonl": "report",
}
# artifact name -> ((path, sha256, reader), rows): what `StageFiles.read` decoded
# from one of them, held for the stages that read it later. It lives at module
# level because it must outlive one `run_stage` call: `--stage all` and
# in-process callers run the stages one `run_stage` call at a time.
_DECODED: dict[str, tuple[tuple, list]] = {}


def _run_stem(phase: Phase, t: Terminology, d: Direction) -> str:
    """Names one eval run's files: eval/results_<stem>.jsonl, eval/summary_<stem>.json."""
    return f"{phase.value}_{_tkey(t)}_{d.value}"


def _dump_json(payload: dict, sink) -> None:
    sink.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_rank_points(dist, sink) -> None:
    sink.write("identifier,count,rank,log10_rank,log10_count_plus1\n")
    for (identifier, count, rank), (lx, ly) in zip(dist.entries, dist.log_log_points()):
        sink.write(f"{identifier},{count},{rank},{lx!r},{ly!r}\n")


# ---------------------------------------------------------------------------
# Stages


def stage_ingest(cfg: RunConfig, files: StageFiles, manifest: RunManifest) -> None:
    hpo_path = files.source(cfg.hpo_obo, "paths.hpo_obo")
    go_path = files.source(cfg.go_obo, "paths.go_obo")
    gene_path = files.source(cfg.gene_map, "paths.gene_map")

    with open(hpo_path, encoding="utf-8") as fh:
        hpo_doc = parse_obo_document(fh, Terminology.HPO)
    with open(go_path, encoding="utf-8") as fh:
        go_doc = parse_obo_document(fh, Terminology.GO_CC)
    go_records = filter_namespace(go_doc.records, GO_CC_NAMESPACE)
    with open(gene_path, encoding="utf-8") as fh:
        gene_records = parse_gene_map(fh)

    manifest.set_release_tag("HPO", hpo_doc.header.get("data-version"))
    manifest.set_release_tag("GO_CC", go_doc.header.get("data-version"))

    for t, records in (
        (Terminology.HPO, hpo_doc.records),
        (Terminology.GO_CC, go_records),
        (Terminology.GENE, gene_records),
    ):
        build_index(records)  # fail loudly on duplicate identifiers or labels
        files.write(f"records_{_tkey(t)}.jsonl", write_records_jsonl, records)


def stage_popularity(cfg: RunConfig, files: StageFiles, manifest: RunManifest) -> None:
    records_by_t = {t: files.read(_records_name(t), read_records_jsonl) for t in TERMINOLOGIES}

    cache_path = cfg.pmc_cache or (files.out_dir / "pmc_cache.jsonl")
    cache = QueryCache(cache_path)
    client = PmcClient(cache=cache, transport=None if cfg.offline else http_transport,
                       api_key=os.environ.get(EUTILS_KEY_ENV),
                       rate_limiter=TokenBucket(cfg.rate_per_second))

    annotations_by_t: dict[Terminology, dict[str, int]] = {}
    for t in TERMINOLOGIES:
        annotations_by_t[t] = {}
        ann_path = cfg.annotations.get(t)
        if ann_path is not None:
            with open(files.source(ann_path, f"paths.annotations_{_tkey(t)}"),
                      encoding="utf-8") as fh:
                annotations_by_t[t] = load_annotation_counts(fh, t)

    queries = [
        query
        for t in TERMINOLOGIES for record in records_by_t[t]
        for query in (identifier_query(record.identifier), term_query(record.label))
    ]
    counts = dict(zip(queries, client.fetch_counts(queries, cfg.concurrency)))

    all_records: list[PopularityRecord] = []
    per_terminology: dict[Terminology, list[PopularityRecord]] = {}
    for t in TERMINOLOGIES:
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

    # a configured cache is an input even when this run filled it; the default one is an output
    if cache_path.exists():
        (files.inputs if cfg.pmc_cache is not None else files.outputs).append(cache_path)
    files.write("popularity.csv", write_popularity_csv, all_records)
    for t in TERMINOLOGIES:
        files.write(f"rank_points_{_tkey(t)}.csv", _write_rank_points,
                    rank_frequency(per_terminology[t], cfg.ranking_proxy))


def stage_sample(cfg: RunConfig, files: StageFiles, manifest: RunManifest) -> None:
    pop_records = files.read("popularity/popularity.csv", read_popularity_csv)
    pairs: list[SampledPair] = []
    for t in TERMINOLOGIES:
        records = files.read(_records_name(t), read_records_jsonl)
        index = build_index(records)
        dist = rank_frequency([r for r in pop_records if r.terminology is t],
                              cfg.ranking_proxy)
        bins = stratify(dist, cfg.n_bins)
        sampled = sample_bins(bins, index, cfg.sampling_seed, cfg.per_bin)
        pairs.extend(
            make_split(records, sampled, bins,
                       validation_cap=cfg.validation_cap, cap_seed=cfg.cap_seed)
        )
    files.write("split.jsonl", write_split_jsonl, pairs)


def stage_prompts(cfg: RunConfig, files: StageFiles, manifest: RunManifest) -> None:
    pairs = files.read("sample/split.jsonl", read_split_jsonl)

    eval_templates = TEMPLATE_IDS if cfg.all_templates else (1,)
    eval_prompts = []
    for direction in DIRECTIONS:
        for pair in pairs:
            eval_prompts.extend(expand_prompts(pair, direction, eval_templates))
    files.write("prompts.jsonl", write_prompts_jsonl, eval_prompts)

    train_by_terminology: dict[Terminology, list[SampledPair]] = {}
    for pair in pairs:
        if pair.split is Split.TRAIN:
            train_by_terminology.setdefault(pair.terminology, []).append(pair)
    for t in TERMINOLOGIES:
        train_pairs = train_by_terminology.get(t, [])
        if not train_pairs:
            continue
        for direction in DIRECTIONS:
            ft_prompts = []
            for pair in train_pairs:
                ft_prompts.extend(expand_prompts(pair, direction))
            base = f"finetune_{_tkey(t)}_{direction.value}"
            files.write(f"{base}.jsonl", emit_finetune_file, ft_prompts)
            files.write(f"{base}.manifest.json", _dump_json,
                        finetune_manifest(t, direction, cfg.sampling_seed,
                                          len(train_pairs), len(ft_prompts), GENERATOR_NAME))


def _completion_provider(cfg: RunConfig, phase: Phase, files: StageFiles,
                         writers: list[TranscriptWriter]):
    """The phase's provider; a live one's transcript writer is appended to `writers`."""
    transcript_path = cfg.transcripts.get(phase.value)
    if transcript_path is not None:
        return ReplayProvider.from_transcript(
            files.source(transcript_path, f"paths.transcript_{phase.value}"))
    if cfg.completion_url:
        writers.append(TranscriptWriter(files.out_dir / f"transcript_{phase.value}.jsonl"))
        return HttpCompletionProvider(
            url=cfg.completion_url,
            api_key=os.environ.get(COMPLETION_KEY_ENV),
            transcript=writers[-1],
            rate_limiter=TokenBucket(cfg.rate_per_second),
        )
    raise ValidationError(
        f"no completion source for phase {phase.value}: set "
        f"paths.transcript_{phase.value} or endpoints.completion_url"
    )


def stage_eval(cfg: RunConfig, files: StageFiles, manifest: RunManifest) -> None:
    files.artifact("prompts/prompts.jsonl")  # named first when both are missing
    pairs = files.read("sample/split.jsonl", read_split_jsonl)
    prompts = files.read("prompts/prompts.jsonl", read_prompts_jsonl,
                         {pair_id(p): p for p in pairs})

    grouped: dict[tuple[Terminology, Direction], list] = {}
    for p in prompts:
        grouped.setdefault((p.pair.terminology, p.direction), []).append(p)
    # (terminology, direction, prompts, normalized expected answers): both phases score these
    groups = [(t, d, grouped[(t, d)], expected_answers(grouped[(t, d)], cfg.extract_mode))
              for t in TERMINOLOGIES for d in DIRECTIONS if grouped.get((t, d))]

    writers: list[TranscriptWriter] = []
    for phase, model_id in ((Phase.BASELINE, cfg.baseline_model),
                            (Phase.FINETUNED, cfg.finetuned_model)):
        provider = _completion_provider(cfg, phase, files, writers)
        for t, d, group, expected in groups:
            run = run_eval(
                provider, group, model_id, phase,
                concurrency_limit=cfg.concurrency,
                extract=cfg.extract_mode,
                expected=expected,
            )
            stem = _run_stem(phase, t, d)
            files.write(f"results_{stem}.jsonl", write_results_jsonl, run)
            files.write(f"summary_{stem}.json", _dump_json, run_summary(run))
    # only transcripts this run wrote: a stale one left in eval/ is not an output
    files.outputs.extend(w.path for w in writers if w.path.exists())


def stage_classify(cfg: RunConfig, files: StageFiles, manifest: RunManifest) -> None:
    split_by_pair = {pair_id(p): p.split
                     for p in files.read("sample/split.jsonl", read_split_jsonl)}

    all_outcomes: list[PairOutcome] = []
    metrics_payload = {}
    for t in TERMINOLOGIES:
        for d in DIRECTIONS:
            baseline, finetuned = (
                files.read(f"eval/results_{_run_stem(phase, t, d)}.jsonl", read_results_jsonl)
                for phase in (Phase.BASELINE, Phase.FINETUNED))
            outcomes = build_outcomes(baseline, finetuned, t, d, split_by_pair)
            all_outcomes.extend(outcomes)
            metrics_payload[f"{t.value}:{d.value}"] = asdict(derive_metrics(outcomes))
            for split in (Split.TRAIN, Split.VALIDATION):
                files.write(f"sankey_{_tkey(t)}_{d.value}_{split.value}.csv", write_sankey_csv,
                            sankey_edges([o for o in outcomes if o.split is split]))

    files.write("outcomes.jsonl", write_outcomes_jsonl, all_outcomes)
    files.write("metrics.json", _dump_json, metrics_payload)


def _embedding_provider(cfg: RunConfig, files: StageFiles):
    if cfg.embedding_store is not None:
        return FileEmbeddingStore.from_path(
            files.source(cfg.embedding_store, "paths.embedding_store")), False
    if cfg.embedding_url:
        return HttpEmbeddingProvider(
            cfg.embedding_url, api_key=os.environ.get(EMBEDDING_KEY_ENV)), True
    raise ValidationError(
        "no embedding source: set paths.embedding_store or endpoints.embedding_url"
    )


def stage_lexicalize(cfg: RunConfig, files: StageFiles, manifest: RunManifest) -> None:
    pairs = [p for p in files.read("sample/split.jsonl", read_split_jsonl)
             if p.split is Split.TRAIN]
    if not pairs:
        raise DomainError("no training pairs in the split")

    provider, is_http = _embedding_provider(cfg, files)

    vectors = []
    meta = []
    rows = {}  # terminology -> (first row, pairs): its terms, then its identifiers in pair order
    alignment_results = {}
    for t in TERMINOLOGIES:
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
    files.write("pca_points.csv", write_pca_points_csv, meta, scores)
    files.write("pca_variance.csv", write_pca_variance_csv, projection.explained_variance)
    files.write("distance_summary.csv", write_distance_summary_csv, summary)
    if is_http:
        files.write("embeddings.jsonl", write_store_jsonl, provider.cached_vectors())


def stage_stats(cfg: RunConfig, files: StageFiles, manifest: RunManifest) -> None:
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


def stage_report(cfg: RunConfig, files: StageFiles, manifest: RunManifest) -> None:
    bundle = table_report(files.read("classify/outcomes.jsonl", read_outcomes_jsonl))
    files.write("performance_summary.csv", write_performance_csv, bundle.performance)
    files.write("outcome_categories.csv", write_categories_csv, bundle.categories)
    files.write("derived_metrics.csv", write_derived_csv, bundle.derived)


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "popularity": stage_popularity,
    "sample": stage_sample,
    "prompts": stage_prompts,
    "eval": stage_eval,
    "classify": stage_classify,
    "lexicalize": stage_lexicalize,
    "stats": stage_stats,
    "report": stage_report,
}

_STAGE_PLANS = {
    "ingest": "parse terminology sources into ingest/records_*.jsonl",
    "popularity": "resolve popularity proxies into popularity/popularity.csv and rank_points_*.csv",
    "sample": "stratify and draw the split into sample/split.jsonl",
    "prompts": "render prompts/prompts.jsonl and fine-tune files",
    "eval": "evaluate both phases into eval/results_*.jsonl and summaries",
    "classify": "classify outcomes into classify/outcomes.jsonl, metrics.json, sankey CSVs",
    "lexicalize": ("embedding alignment into lexicalize/alignment.json, pca_points.csv, "
                   "pca_variance.csv, distance_summary.csv"),
    "stats": "ANOVA and Games-Howell per proxy into stats/*.csv",
    "report": "summary tables into report/*.csv",
}


def run_stage(cfg: RunConfig, stage: str, dry_run: bool = False) -> None:
    """Execute one stage; raises on any failure (callers map to exit codes)."""
    if stage not in _STAGE_FUNCS:
        raise ValidationError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
    if dry_run:
        print(f"[dry-run] {stage}: would {_STAGE_PLANS[stage]} under {cfg.run_dir}")
        return
    manifest = RunManifest(cfg.run_dir)
    manifest.set_config(
        cfg.raw,
        {
            "sampling": cfg.sampling_seed,
            "validation_cap": cfg.cap_seed,
            "synthetic": cfg.synthetic_seed,
        },
    )
    files = StageFiles(cfg, stage)
    _STAGE_FUNCS[stage](cfg, files, manifest)
    manifest.record_stage(stage, files.inputs, files.outputs, files.digests)
    print(f"[{stage}] wrote {len(files.outputs)} file(s) under {files.out_dir}",
          file=sys.stderr)
