#!/usr/bin/env python3
"""Generate the bundled synthetic mini-corpus under tests/fixtures/mini/.

The corpus is 60 terms per terminology with planted popularity counts,
planted per-pair correctness for a mock baseline and fine-tuned model
(emitted as replay transcripts), and planted embeddings in which only the
gene/protein pairs are aligned. Every choice is a pure function of the
fixture seed, so regeneration is reproducible; the generated files are
committed and treated as frozen inputs.

Run from the repository root:

    python tools/make_mini_fixture.py
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from termbench.ontology import TermRecord, Terminology, build_index
from termbench.popularity import PopularityRecord, rank_frequency
from termbench.pmc import identifier_query, term_query
from termbench.prompts import Direction, expand_prompts
from termbench.providers import DecodingParams, prompt_hash, request_body
from termbench.sampling import Split, make_split, pair_id, sample_bins, stratify, write_split_jsonl

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "mini"
FIXTURE_SEED = 20240101
SAMPLING_SEED = 42
SWEEP_SEEDS = (1, 2, 3)  # further sampling seeds the embedding store covers
N_BINS = 10
PER_BIN = 3
TIMESTAMP = "2024-01-01T00:00:00+00:00"
BASELINE_MODEL = "mock-base-1"
FINETUNED_MODEL = "mock-base-1-ft"
EMBED_DIM = 16

ADJECTIVES = ["mild", "severe", "episodic", "progressive", "focal",
              "diffuse", "transient", "chronic", "juvenile", "recurrent"]
PHENOTYPES = ["tremor", "ataxia", "rigidity", "dystonia", "seizure", "myoclonus"]
GO_PREFIXES = ["outer", "inner", "apical", "basal", "cortical",
               "luminal", "perinuclear", "vesicular", "granular", "ciliary"]
GO_STRUCTURES = ["membrane", "vesicle", "granule", "filament", "pore complex", "matrix"]
GENE_FAMILIES = ["fusion", "exchange", "transport", "binding", "repair",
                 "assembly", "docking", "splicing", "capping", "sorting"]

# (baseline rate, gain rate given baseline-incorrect, loss rate given
# baseline-correct) per terminology, direction and split.
PLANT = {
    (Terminology.HPO, Direction.ID_TO_TERM): {
        Split.TRAIN: (0.05, 0.10, 0.50), Split.VALIDATION: (0.03, 0.02, 0.50),
    },
    (Terminology.HPO, Direction.TERM_TO_ID): {
        Split.TRAIN: (0.20, 0.30, 0.10), Split.VALIDATION: (0.10, 0.05, 0.20),
    },
    (Terminology.GO_CC, Direction.ID_TO_TERM): {
        Split.TRAIN: (0.10, 0.60, 0.00), Split.VALIDATION: (0.05, 0.05, 0.30),
    },
    (Terminology.GO_CC, Direction.TERM_TO_ID): {
        Split.TRAIN: (0.15, 0.80, 0.00), Split.VALIDATION: (0.10, 0.08, 0.25),
    },
    (Terminology.GENE, Direction.ID_TO_TERM): {
        Split.TRAIN: (0.50, 0.50, 0.10), Split.VALIDATION: (0.40, 0.20, 0.15),
    },
    (Terminology.GENE, Direction.TERM_TO_ID): {
        Split.TRAIN: (0.70, 0.60, 0.05), Split.VALIDATION: (0.60, 0.15, 0.10),
    },
}


def uniform(*parts) -> float:
    """Deterministic uniform draw in [0, 1) from a string key."""
    key = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def build_records():
    hpo = [
        TermRecord(Terminology.HPO, f"HP:{i + 1:07d}",
                   f"{ADJECTIVES[i // 6]} {PHENOTYPES[i % 6]}")
        for i in range(60)
    ]
    go = [
        TermRecord(Terminology.GO_CC, f"GO:{i + 1:07d}",
                   f"{GO_PREFIXES[i // 6]} {GO_STRUCTURES[i % 6]}",
                   namespace="cellular_component")
        for i in range(60)
    ]
    gene = []
    for i in range(60):
        family = GENE_FAMILIES[i // 6]
        j = i % 6 + 1
        gene.append(TermRecord(Terminology.GENE, f"{family[:2].upper()}F{j}",
                               f"{family} factor {j}"))
    return {Terminology.HPO: hpo, Terminology.GO_CC: go, Terminology.GENE: gene}


def write_obo(path: Path, records, decoys=()):
    lines = ["format-version: 1.2", "data-version: fixtures/mini-2024", ""]
    for r in list(records) + list(decoys):
        lines.append("[Term]")
        lines.append(f"id: {r.identifier}")
        lines.append(f"name: {r.label}")
        if r.namespace:
            lines.append(f"namespace: {r.namespace}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def planted_counts(t: Terminology, i: int) -> tuple[int, int, int]:
    """Zipf-style counts for the (i+1)-th identifier of a terminology."""
    rank = i + 1
    if t is Terminology.GENE:
        return 300_000 // rank, 150_000 // rank + 7, 900 // rank
    if t is Terminology.GO_CC:
        return 6_000 // rank, 90_000 // rank + 5, 45_000 // rank
    return 400 // rank, 120_000 // rank + 3, 2_500 // rank


def draw_split(records, pop_records, seed: int):
    """The split that the `sample` stage draws from the fixture with sampling seed `seed`."""
    pairs = []
    for t, recs in records.items():
        dist = rank_frequency(pop_records[t], "id_count_pmc")
        bins = stratify(dist, N_BINS)
        index = build_index(recs)
        pairs.extend(make_split(index, sample_bins(bins, index, seed, PER_BIN), bins))
    return pairs


def decorate(answer: str, u: float) -> str:
    styles = ("{}", '"{}"', "{}.", "  {}  ")
    return styles[int(u * len(styles))].format(answer)


def wrong_answer(records, idx: int, direction: Direction) -> str:
    other = records[(idx + 7) % len(records)]
    return other.identifier if direction is Direction.TERM_TO_ID else other.label


def main() -> None:
    out = FIXTURE_DIR
    (out / "transcripts").mkdir(parents=True, exist_ok=True)
    records = build_records()

    # 1. terminology sources
    write_obo(out / "hpo.obo", records[Terminology.HPO])
    bp_decoys = [
        TermRecord(Terminology.GO_CC, f"GO:{900 + i:07d}", f"signal cascade {i}",
                   namespace="biological_process")
        for i in range(1, 6)
    ]
    write_obo(out / "go.obo", records[Terminology.GO_CC], decoys=bp_decoys)
    gene_lines = ["gene_symbol\tprotein_name"]
    gene_lines += [f"{r.identifier}\t{r.label}" for r in records[Terminology.GENE]]
    (out / "gene_map.tsv").write_text("\n".join(gene_lines) + "\n", encoding="utf-8")

    # 2. popularity: annotation TSVs and a fully pre-seeded query cache
    tkeys = {Terminology.HPO: "hpo", Terminology.GO_CC: "go_cc", Terminology.GENE: "gene"}
    cache_rows = []
    pop_records = {}
    for t, recs in records.items():
        ann_lines = []
        pops = []
        for i, r in enumerate(recs):
            id_count, term_count, ann_count = planted_counts(t, i)
            ann_lines.append(f"{r.identifier}\t{ann_count}")
            cache_rows.append({"query": identifier_query(r.identifier), "db": "pmc",
                               "count": id_count, "retrieved_at": TIMESTAMP})
            cache_rows.append({"query": term_query(r.label), "db": "pmc",
                               "count": term_count, "retrieved_at": TIMESTAMP})
            pops.append(PopularityRecord(t, r.identifier, r.label,
                                         id_count, term_count, ann_count))
        (out / f"annotations_{tkeys[t]}.tsv").write_text(
            "\n".join(ann_lines) + "\n", encoding="utf-8")
        pop_records[t] = pops
    with open(out / "pmc_cache.jsonl", "w", encoding="utf-8") as fh:
        for row in cache_rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")

    # 3. the split (committed as the expected sampler output)
    split_pairs = draw_split(records, pop_records, SAMPLING_SEED)
    (out / "expected").mkdir(exist_ok=True)
    with open(out / "expected" / "split.jsonl", "w", encoding="utf-8") as fh:
        write_split_jsonl(split_pairs, fh)

    # 4. planted truth and replay transcripts
    truth = {}
    transcripts = {"baseline": [], "finetuned": []}
    by_terminology = {t: recs for t, recs in records.items()}
    for direction in (Direction.TERM_TO_ID, Direction.ID_TO_TERM):
        for pair in split_pairs:
            t = pair.terminology
            pid = pair_id(pair)
            base_rate, gain_rate, loss_rate = PLANT[(t, direction)][pair.split]
            recs = by_terminology[t]
            idx = next(i for i, r in enumerate(recs) if r.identifier == pair.identifier)
            # head-of-distribution pairs are a little easier at baseline
            pop_boost = 1.8 - 1.2 * idx / (len(recs) - 1)
            p_base = min(0.95, max(0.02, base_rate * pop_boost))
            base_ok = uniform("base", pid, direction.value) < p_base
            if base_ok:
                ft_ok = uniform("ft", pid, direction.value) >= loss_rate
            else:
                ft_ok = uniform("ft", pid, direction.value) < gain_rate
            truth[f"{pid}|{direction.value}"] = {
                "terminology": t.value,
                "direction": direction.value,
                "split": pair.split.value,
                "baseline_correct": base_ok,
                "finetuned_correct": ft_ok,
            }
            prompt = expand_prompts(pair, direction)[0]
            for phase, model, ok in (("baseline", BASELINE_MODEL, base_ok),
                                     ("finetuned", FINETUNED_MODEL, ft_ok)):
                if ok:
                    text = decorate(prompt.expected_answer,
                                    uniform("style", phase, pid, direction.value))
                else:
                    text = wrong_answer(recs, idx, direction)
                transcripts[phase].append({
                    "prompt_hash": prompt_hash(prompt.prompt_text),
                    "request": request_body(prompt.prompt_text, model, DecodingParams()),
                    "response": {"text": text},
                    "timestamp": TIMESTAMP,
                })
    for phase, rows in transcripts.items():
        with open(out / "transcripts" / f"{phase}.jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    (out / "planted_truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    # 5. embeddings for the training pairs; only GENE identifiers align. The
    # pairs that only the sweep seeds draw come after seed 42's, so seed 42's
    # rows do not depend on SWEEP_SEEDS.
    rng = np.random.default_rng(FIXTURE_SEED)
    vectors = {}
    for seed in (SAMPLING_SEED, *SWEEP_SEEDS):
        pairs = split_pairs if seed == SAMPLING_SEED else draw_split(records, pop_records, seed)
        for pair in pairs:
            if pair.split is not Split.TRAIN or pair.term in vectors:
                continue
            term_vec = rng.normal(size=EMBED_DIM)
            if pair.terminology is Terminology.GENE:
                id_vec = term_vec + 0.05 * rng.normal(size=EMBED_DIM)
            else:
                id_vec = rng.normal(size=EMBED_DIM)
            vectors[pair.term] = term_vec
            vectors[pair.identifier] = id_vec
    with open(out / "embeddings.jsonl", "w", encoding="utf-8") as fh:
        for text, vec in vectors.items():
            fh.write(json.dumps({"text": text, "dim": EMBED_DIM,
                                 "vector": [float(v) for v in vec]},
                                ensure_ascii=False) + "\n")

    # 6. run config
    config = f"""# mini fixture run configuration
[paths]
hpo_obo = hpo.obo
go_obo = go.obo
gene_map = gene_map.tsv
annotations_hpo = annotations_hpo.tsv
annotations_go_cc = annotations_go_cc.tsv
annotations_gene = annotations_gene.tsv
pmc_cache = pmc_cache.jsonl
embedding_store = embeddings.jsonl
transcript_baseline = transcripts/baseline.jsonl
transcript_finetuned = transcripts/finetuned.jsonl

[seeds]
sampling = {SAMPLING_SEED}
validation_cap = 7

[sampling]
n_bins = {N_BINS}
per_bin = {PER_BIN}
proxy = id_count_pmc

[models]
baseline = {BASELINE_MODEL}
finetuned = {FINETUNED_MODEL}

[limits]
concurrency = 2

[flags]
offline = true

[stats]
correctness_phase = baseline
direction = term_to_id
"""
    (out / "run.cfg").write_text(config, encoding="utf-8")
    print(f"fixture written under {out}")
    n_train = sum(1 for p in split_pairs if p.split is Split.TRAIN)
    print(f"pairs: {len(split_pairs)} total, {n_train} train")


if __name__ == "__main__":
    main()
