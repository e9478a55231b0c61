"""Pipeline stages over a run directory.

Stages run in a fixed order, each reading the previous stages' artifacts
and writing its own under `<run>/<stage>/`. Outputs are deterministic
given the config and seeds; only the manifest carries timestamps.

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
from pathlib import Path

from . import GENERATOR_NAME
from .alignment import (
    paired_distance_analysis,
    pca_project,
    rowwise_alignment,
    write_alignment_json,
    write_distance_summary_csv,
    write_pca_points_csv,
)
from .config import (
    COMPLETION_KEY_ENV,
    EMBEDDING_KEY_ENV,
    GO_CC_NAMESPACE,
    TERMINOLOGY_KEYS,
    RunConfig,
)
from .embeddings import FileEmbeddingStore, HttpEmbeddingProvider, write_store_jsonl
from .errors import DomainError, ValidationError
from .evaluate import (
    EvalRun,
    Phase,
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
    metrics_to_dict,
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
    PopularityRecord,
    laplace_log,
    load_annotation_counts,
    rank_frequency,
    read_popularity_csv,
    write_popularity_csv,
)
from .prompts import (
    Direction,
    emit_finetune_file,
    expand_prompts,
    finetune_manifest,
    read_prompts_jsonl,
    write_prompts_jsonl,
)
from .providers import HttpCompletionProvider, ReplayProvider, TranscriptWriter
from .ratelimit import TokenBucket
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

TERMINOLOGIES = (Terminology.HPO, Terminology.GO_CC, Terminology.GENE)
DIRECTIONS = (Direction.TERM_TO_ID, Direction.ID_TO_TERM)


class MissingArtifactError(DomainError):
    pass


def _require(path: Path, producing_stage: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(
            f"missing {path}; run the {producing_stage!r} stage first"
        )
    return path


def _require_input(path: Path | None, what: str) -> Path:
    if path is None:
        raise ValidationError(f"config does not set {what}")
    if not path.exists():
        raise ValidationError(f"{what} not found: {path}")
    return path


def _stage_dir(cfg: RunConfig, stage: str) -> Path:
    d = cfg.run_dir / stage
    d.mkdir(parents=True, exist_ok=True)
    return d


def _tkey(t: Terminology) -> str:
    return TERMINOLOGY_KEYS[t]


def _records_path(cfg: RunConfig, t: Terminology) -> Path:
    return cfg.run_dir / "ingest" / f"records_{_tkey(t)}.jsonl"


def _run_stem(phase: Phase, t: Terminology, d: Direction) -> str:
    """Names one eval run's files: eval/results_<stem>.jsonl, eval/summary_<stem>.json."""
    return f"{phase.value}_{_tkey(t)}_{d.value}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# Stages


def stage_ingest(cfg: RunConfig, manifest: RunManifest) -> tuple[list[Path], list[Path]]:
    hpo_path = _require_input(cfg.hpo_obo, "paths.hpo_obo")
    go_path = _require_input(cfg.go_obo, "paths.go_obo")
    gene_path = _require_input(cfg.gene_map, "paths.gene_map")
    out_dir = _stage_dir(cfg, "ingest")

    with open(hpo_path, encoding="utf-8") as fh:
        hpo_doc = parse_obo_document(fh, Terminology.HPO)
    with open(go_path, encoding="utf-8") as fh:
        go_doc = parse_obo_document(fh, Terminology.GO_CC)
    go_records = filter_namespace(go_doc.records, GO_CC_NAMESPACE)
    with open(gene_path, encoding="utf-8") as fh:
        gene_records = parse_gene_map(fh)

    manifest.set_release_tag("HPO", hpo_doc.header.get("data-version"))
    manifest.set_release_tag("GO_CC", go_doc.header.get("data-version"))

    outputs = []
    for t, records in (
        (Terminology.HPO, hpo_doc.records),
        (Terminology.GO_CC, go_records),
        (Terminology.GENE, gene_records),
    ):
        build_index(records)  # fail loudly on duplicate identifiers or labels
        out = out_dir / f"records_{_tkey(t)}.jsonl"
        with open(out, "w", encoding="utf-8") as fh:
            write_records_jsonl(records, fh)
        outputs.append(out)
    return [hpo_path, go_path, gene_path], outputs


def stage_popularity(cfg: RunConfig, manifest: RunManifest) -> tuple[list[Path], list[Path]]:
    inputs = []
    for t in TERMINOLOGIES:
        inputs.append(_require(_records_path(cfg, t), "ingest"))
    out_dir = _stage_dir(cfg, "popularity")

    cache_path = cfg.pmc_cache or (out_dir / "pmc_cache.jsonl")
    cache = QueryCache(cache_path)
    limiter = TokenBucket(cfg.rate_per_second)
    if cfg.offline:
        client = PmcClient(cache=cache, transport=None, rate_limiter=limiter)
    else:
        client = PmcClient(cache=cache, rate_limiter=limiter)

    records_by_t: dict[Terminology, list] = {}
    annotations_by_t: dict[Terminology, dict[str, int]] = {}
    for t in TERMINOLOGIES:
        with open(_records_path(cfg, t), encoding="utf-8") as fh:
            records_by_t[t] = read_records_jsonl(fh)
        annotations_by_t[t] = {}
        ann_path = cfg.annotations.get(t)
        if ann_path is not None:
            with open(_require_input(ann_path, f"paths.annotations_{_tkey(t)}"),
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
        rows = []
        for record in records_by_t[t]:
            id_q = identifier_query(record.identifier)
            term_q = term_query(record.label)
            retrieved = max(
                cache.get(id_q, "pmc")["retrieved_at"],
                cache.get(term_q, "pmc")["retrieved_at"],
            )
            rows.append(
                PopularityRecord(
                    terminology=t,
                    identifier=record.identifier,
                    label=record.label,
                    id_count_pmc=counts[id_q],
                    term_count_pmc=counts[term_q],
                    annotation_count=annotations_by_t[t].get(record.identifier, 0),
                    retrieved_at=retrieved,
                )
            )
        per_terminology[t] = rows
        all_records.extend(rows)

    outputs = []
    if cfg.pmc_cache is not None and cache_path.exists():
        inputs.append(cache_path)
    elif cache_path.exists():
        outputs.append(cache_path)
    table_path = out_dir / "popularity.csv"
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        write_popularity_csv(all_records, fh)
    outputs.append(table_path)

    for t in TERMINOLOGIES:
        dist = rank_frequency(per_terminology[t], cfg.ranking_proxy)
        points = dist.log_log_points()
        path = out_dir / f"rank_points_{_tkey(t)}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("identifier,count,rank,log10_rank,log10_count_plus1\n")
            for (identifier, count, rank), (lx, ly) in zip(dist.entries, points):
                fh.write(f"{identifier},{count},{rank},{lx!r},{ly!r}\n")
        outputs.append(path)
    return inputs, outputs


def stage_sample(cfg: RunConfig, manifest: RunManifest) -> tuple[list[Path], list[Path]]:
    pop_path = _require(cfg.run_dir / "popularity" / "popularity.csv", "popularity")
    inputs = [pop_path] + [_require(_records_path(cfg, t), "ingest") for t in TERMINOLOGIES]
    out_dir = _stage_dir(cfg, "sample")

    with open(pop_path, encoding="utf-8", newline="") as fh:
        pop_records = read_popularity_csv(fh)
    pairs: list[SampledPair] = []
    for t in TERMINOLOGIES:
        with open(_records_path(cfg, t), encoding="utf-8") as fh:
            records = read_records_jsonl(fh)
        index = build_index(records)
        dist = rank_frequency([r for r in pop_records if r.terminology is t],
                              cfg.ranking_proxy)
        bins = stratify(dist, cfg.n_bins)
        sampled = sample_bins(bins, index, cfg.sampling_seed, cfg.per_bin)
        pairs.extend(
            make_split(records, sampled, bins,
                       validation_cap=cfg.validation_cap, cap_seed=cfg.cap_seed)
        )
    out = out_dir / "split.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        write_split_jsonl(pairs, fh)
    return inputs, [out]


def stage_prompts(cfg: RunConfig, manifest: RunManifest) -> tuple[list[Path], list[Path]]:
    split_path = _require(cfg.run_dir / "sample" / "split.jsonl", "sample")
    out_dir = _stage_dir(cfg, "prompts")
    with open(split_path, encoding="utf-8") as fh:
        pairs = read_split_jsonl(fh)

    eval_templates = (1, 2, 3, 4, 5) if cfg.all_templates else (1,)
    eval_prompts = []
    for direction in DIRECTIONS:
        for pair in pairs:
            eval_prompts.extend(
                p for p in expand_prompts(pair, direction)
                if p.template_id in eval_templates
            )
    outputs = []
    prompts_path = out_dir / "prompts.jsonl"
    with open(prompts_path, "w", encoding="utf-8") as fh:
        write_prompts_jsonl(eval_prompts, fh)
    outputs.append(prompts_path)

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
            base = out_dir / f"finetune_{_tkey(t)}_{direction.value}"
            data_path = base.with_suffix(".jsonl")
            with open(data_path, "w", encoding="utf-8") as fh:
                emit_finetune_file(ft_prompts, fh)
            meta_path = Path(str(base) + ".manifest.json")
            _write_json(
                meta_path,
                finetune_manifest(t, direction, cfg.sampling_seed,
                                  len(train_pairs), len(ft_prompts), GENERATOR_NAME),
            )
            outputs.extend([data_path, meta_path])
    return [split_path], outputs


def _completion_provider(cfg: RunConfig, phase: Phase, out_dir: Path):
    transcript_path = cfg.transcripts.get(phase.value)
    if transcript_path is not None:
        return ReplayProvider.from_transcript(_require_input(
            transcript_path, f"paths.transcript_{phase.value}"))
    if cfg.completion_url:
        return HttpCompletionProvider(
            url=cfg.completion_url,
            api_key=os.environ.get(COMPLETION_KEY_ENV),
            transcript=TranscriptWriter(out_dir / f"transcript_{phase.value}.jsonl"),
            rate_limiter=TokenBucket(cfg.rate_per_second),
        )
    raise ValidationError(
        f"no completion source for phase {phase.value}: set "
        f"paths.transcript_{phase.value} or endpoints.completion_url"
    )


def stage_eval(cfg: RunConfig, manifest: RunManifest) -> tuple[list[Path], list[Path]]:
    prompts_path = _require(cfg.run_dir / "prompts" / "prompts.jsonl", "prompts")
    split_path = _require(cfg.run_dir / "sample" / "split.jsonl", "sample")
    out_dir = _stage_dir(cfg, "eval")

    with open(split_path, encoding="utf-8") as fh:
        pairs = read_split_jsonl(fh)
    pairs_by_id = {pair_id(p): p for p in pairs}
    with open(prompts_path, encoding="utf-8") as fh:
        prompts = read_prompts_jsonl(fh, pairs_by_id)

    grouped: dict[tuple[Terminology, Direction], list] = {}
    for p in prompts:
        grouped.setdefault((p.pair.terminology, p.direction), []).append(p)

    outputs = []
    for phase, model_id in ((Phase.BASELINE, cfg.baseline_model),
                            (Phase.FINETUNED, cfg.finetuned_model)):
        provider = _completion_provider(cfg, phase, out_dir)
        for t in TERMINOLOGIES:
            for d in DIRECTIONS:
                group = grouped.get((t, d))
                if not group:
                    continue
                run = run_eval(
                    provider, group, model_id, phase,
                    concurrency_limit=cfg.concurrency,
                    extract=cfg.extract_mode,
                )
                stem = _run_stem(phase, t, d)
                results_path = out_dir / f"results_{stem}.jsonl"
                with open(results_path, "w", encoding="utf-8") as fh:
                    write_results_jsonl(run, fh)
                summary_path = out_dir / f"summary_{stem}.json"
                _write_json(summary_path, run_summary(run))
                outputs.extend([results_path, summary_path])
    transcripts = sorted(out_dir.glob("transcript_*.jsonl"))
    return [prompts_path, split_path], outputs + transcripts


def _load_run(cfg: RunConfig, phase: Phase, t: Terminology, d: Direction,
              inputs: list[Path]) -> EvalRun:
    """One eval run from its results file alone; the path goes onto `inputs`.

    Outcomes use only the run's items, so the summary is not read: the model
    id comes from the config.
    """
    results_path = _require(
        cfg.run_dir / "eval" / f"results_{_run_stem(phase, t, d)}.jsonl", "eval")
    inputs.append(results_path)
    with open(results_path, encoding="utf-8") as fh:
        items = read_results_jsonl(fh)
    model_id = cfg.baseline_model if phase is Phase.BASELINE else cfg.finetuned_model
    return EvalRun(
        model_id=model_id,
        terminology=t,
        direction=d,
        phase=phase,
        items=tuple(items),
    )


def stage_classify(cfg: RunConfig, manifest: RunManifest) -> tuple[list[Path], list[Path]]:
    split_path = _require(cfg.run_dir / "sample" / "split.jsonl", "sample")
    with open(split_path, encoding="utf-8") as fh:
        pairs = read_split_jsonl(fh)
    split_by_pair = {pair_id(p): p.split for p in pairs}

    out_dir = _stage_dir(cfg, "classify")
    inputs = [split_path]
    all_outcomes: list[PairOutcome] = []
    metrics_payload = {}
    outputs = []
    for t in TERMINOLOGIES:
        for d in DIRECTIONS:
            baseline = _load_run(cfg, Phase.BASELINE, t, d, inputs)
            finetuned = _load_run(cfg, Phase.FINETUNED, t, d, inputs)
            outcomes = build_outcomes(baseline, finetuned, split_by_pair)
            all_outcomes.extend(outcomes)
            metrics_payload[f"{t.value}:{d.value}"] = metrics_to_dict(derive_metrics(outcomes))
            for split in (Split.TRAIN, Split.VALIDATION):
                edges = sankey_edges([o for o in outcomes if o.split is split])
                path = out_dir / f"sankey_{_tkey(t)}_{d.value}_{split.value}.csv"
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    write_sankey_csv(edges, fh)
                outputs.append(path)

    outcomes_path = out_dir / "outcomes.jsonl"
    with open(outcomes_path, "w", encoding="utf-8") as fh:
        write_outcomes_jsonl(all_outcomes, fh)
    metrics_path = out_dir / "metrics.json"
    _write_json(metrics_path, metrics_payload)
    return inputs, [outcomes_path, metrics_path] + outputs


def _embedding_provider(cfg: RunConfig):
    if cfg.embedding_store is not None:
        return FileEmbeddingStore.from_path(
            _require_input(cfg.embedding_store, "paths.embedding_store")), False
    if cfg.embedding_url:
        return HttpEmbeddingProvider(
            cfg.embedding_url, api_key=os.environ.get(EMBEDDING_KEY_ENV)), True
    raise ValidationError(
        "no embedding source: set paths.embedding_store or endpoints.embedding_url"
    )


def stage_lexicalize(cfg: RunConfig, manifest: RunManifest) -> tuple[list[Path], list[Path]]:
    split_path = _require(cfg.run_dir / "sample" / "split.jsonl", "sample")
    out_dir = _stage_dir(cfg, "lexicalize")
    with open(split_path, encoding="utf-8") as fh:
        pairs = [p for p in read_split_jsonl(fh) if p.split is Split.TRAIN]
    if not pairs:
        raise DomainError("no training pairs in the split")

    provider, is_http = _embedding_provider(cfg)

    vectors = []
    meta = []
    label_pairs = []
    alignment_results = {}
    for t in TERMINOLOGIES:
        t_pairs = [p for p in pairs if p.terminology is t]
        if not t_pairs:
            continue
        term_vecs = provider.embed_many([p.term for p in t_pairs])
        id_vecs = provider.embed_many([p.identifier for p in t_pairs])
        alignment_results[t.display] = rowwise_alignment(term_vecs, id_vecs)
        for p, v in zip(t_pairs, term_vecs):
            vectors.append(v)
            meta.append((p.term, "term", t.display))
        for p, v in zip(t_pairs, id_vecs):
            vectors.append(v)
            meta.append((p.identifier, "identifier", t.display))
        label_pairs.extend((p.term, p.identifier) for p in t_pairs)

    projection = pca_project(vectors, k=2, point_meta=meta)
    summary = paired_distance_analysis(projection, label_pairs)

    outputs = []
    alignment_path = out_dir / "alignment.json"
    with open(alignment_path, "w", encoding="utf-8") as fh:
        write_alignment_json(alignment_results, fh)
    outputs.append(alignment_path)
    pca_path = out_dir / "pca_points.csv"
    with open(pca_path, "w", encoding="utf-8", newline="") as fh:
        write_pca_points_csv(projection, fh)
    outputs.append(pca_path)
    dist_path = out_dir / "distance_summary.csv"
    with open(dist_path, "w", encoding="utf-8", newline="") as fh:
        write_distance_summary_csv(summary, fh)
    outputs.append(dist_path)
    if is_http:
        store_path = out_dir / "embeddings.jsonl"
        with open(store_path, "w", encoding="utf-8") as fh:
            write_store_jsonl(provider.cached_vectors(), fh)
        outputs.append(store_path)
    return [split_path], outputs


def stage_stats(cfg: RunConfig, manifest: RunManifest) -> tuple[list[Path], list[Path]]:
    pop_path = _require(cfg.run_dir / "popularity" / "popularity.csv", "popularity")
    outcomes_path = _require(cfg.run_dir / "classify" / "outcomes.jsonl", "classify")
    out_dir = _stage_dir(cfg, "stats")

    with open(pop_path, encoding="utf-8", newline="") as fh:
        pop_records = read_popularity_csv(fh)
    counts_by_pair = {f"{r.terminology.value}:{r.identifier}": r for r in pop_records}
    with open(outcomes_path, encoding="utf-8") as fh:
        outcomes = read_outcomes_jsonl(fh)

    direction = Direction(cfg.stats_direction)
    use_baseline = cfg.stats_phase == "baseline"
    train_outcomes = [
        o for o in outcomes
        if o.split is Split.TRAIN and o.direction is direction
    ]
    if not train_outcomes:
        raise DomainError("no training outcomes for the configured stats direction")

    outputs = []
    from .popularity import PROXIES

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
        obs_path = out_dir / f"observations_{proxy}.csv"
        with open(obs_path, "w", encoding="utf-8", newline="") as fh:
            write_observations_csv(observations, fh)
        anova_path = out_dir / f"anova_{proxy}.csv"
        with open(anova_path, "w", encoding="utf-8", newline="") as fh:
            write_anova_csv(two_way_anova(observations), fh)
        groups: dict[str, list[float]] = {}
        for obs in observations:
            groups.setdefault(obs.terminology, []).append(obs.value)
        gh = games_howell(sorted(groups.items()))
        gh_path = out_dir / f"games_howell_{proxy}.csv"
        with open(gh_path, "w", encoding="utf-8", newline="") as fh:
            write_games_howell_csv(gh, fh)
        outputs.extend([obs_path, anova_path, gh_path])
    return [pop_path, outcomes_path], outputs


def stage_report(cfg: RunConfig, manifest: RunManifest) -> tuple[list[Path], list[Path]]:
    outcomes_path = _require(cfg.run_dir / "classify" / "outcomes.jsonl", "classify")
    out_dir = _stage_dir(cfg, "report")
    with open(outcomes_path, encoding="utf-8") as fh:
        bundle = table_report(read_outcomes_jsonl(fh))

    perf_path = out_dir / "performance_summary.csv"
    with open(perf_path, "w", encoding="utf-8", newline="") as fh:
        write_performance_csv(bundle.performance, fh)
    cats_path = out_dir / "outcome_categories.csv"
    with open(cats_path, "w", encoding="utf-8", newline="") as fh:
        write_categories_csv(bundle.categories, fh)
    derived_path = out_dir / "derived_metrics.csv"
    with open(derived_path, "w", encoding="utf-8", newline="") as fh:
        write_derived_csv(bundle.derived, fh)
    return [outcomes_path], [perf_path, cats_path, derived_path]


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
    "lexicalize": "embedding alignment into lexicalize/alignment.json, pca_points.csv, distance_summary.csv",
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
    inputs, outputs = _STAGE_FUNCS[stage](cfg, manifest)
    manifest.record_stage(stage, [p for p in inputs if p.exists()], outputs)
    print(f"[{stage}] wrote {len(outputs)} file(s) under {cfg.run_dir / stage}",
          file=sys.stderr)
