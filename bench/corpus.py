"""Seeded synthetic corpus for the benchmark workloads.

`generate(spec, seed, out_dir)` writes one corpus: OBO files for HPO and GO
(the GO file carries decoys outside `cellular_component`), the gene map,
annotation TSVs, a fully pre-seeded PMC count cache, replay transcripts for
template 1 of both phases, an embedding store for the training pairs, two
run configs (replay and live) and `planted_truth.json`.

Every choice is a pure function of the workload seed. Correctness is planted
for every (pair, direction), not only for one split, so any sampling seed
yields a checkable run. The planting follows tools/make_mini_fixture.py: a
per-terminology base rate boosted for popular identifiers, gain and loss
rates for the fine-tuned model, decorated correct answers and a neighbour's
answer when wrong.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from check import train_identifiers
from termbench.ontology import Terminology
from termbench.pmc import identifier_query, term_query
from termbench.prompts import TEMPLATE_TABLE, Direction
from termbench.providers import DecodingParams, prompt_hash, request_body

TIMESTAMP = "2024-01-01T00:00:00+00:00"
BASELINE_MODEL = "bench-base-1"
FINETUNED_MODEL = "bench-base-1-ft"
EMBED_DIM = 1024
COMPLETION_URL = "http://completion.invalid/v1/chat/completions"
EMBEDDING_URL = "http://embedding.invalid/v1/embeddings"
TKEYS = {"HPO": "hpo", "GO_CC": "go_cc", "GENE": "gene"}
DIRECTIONS = ("term_to_id", "id_to_term")

# (baseline rate, gain rate given baseline-incorrect, loss rate given
# baseline-correct) per terminology and direction.
PLANT = {
    ("HPO", "id_to_term"): (0.05, 0.10, 0.50),
    ("HPO", "term_to_id"): (0.20, 0.30, 0.10),
    ("GO_CC", "id_to_term"): (0.10, 0.60, 0.05),
    ("GO_CC", "term_to_id"): (0.15, 0.80, 0.05),
    ("GENE", "id_to_term"): (0.50, 0.50, 0.10),
    ("GENE", "term_to_id"): (0.70, 0.60, 0.05),
}
# Zipf scale of the planted (identifier, term, annotation) counts.
COUNT_SCALE = {
    "HPO": (4_000, 120_000, 25_000),
    "GO_CC": (60_000, 90_000, 45_000),
    "GENE": (300_000, 150_000, 9_000),
}

ONSETS = ("b c d f g h k l m n p r s t v z br cr dr fl gr pl pr sc sp st tr").split()
VOWELS = ("a e i o u ae ia io ou").split()
HPO_ADJECTIVES = ("mild severe episodic progressive focal diffuse transient chronic "
                  "juvenile recurrent congenital bilateral").split()
HPO_NOUNS = ("tremor ataxia rigidity dystonia seizure myoclonus hypoplasia atrophy "
             "dysplasia stenosis").split()
GO_PREFIXES = ("outer inner apical basal cortical luminal perinuclear vesicular "
               "granular ciliary").split()
GO_NOUNS = ("membrane vesicle granule filament complex matrix body lumen").split()
GENE_FAMILIES = ("fusion exchange transport binding repair assembly docking splicing "
                 "capping sorting").split()


@dataclass(frozen=True)
class CorpusSpec:
    """Size and sampling settings of one workload's corpus."""

    sizes: tuple[int, int, int]  # HPO, GO_CC, GENE terms
    n_bins: int
    per_bin: int
    store_format: str  # "jsonl" or "binary"


def derived_seed(seed: int, label: str) -> int:
    """A 64-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(ONSETS) + rng.choice(VOWELS)
                   for _ in range(rng.randint(2, 4)))


def _unique(rng: random.Random, make, taken: set[str]) -> str:
    while True:
        value = make(rng)
        if value.lower() not in taken:
            taken.add(value.lower())
            return value


def _records(rng: random.Random, sizes: tuple[int, int, int], n_decoys: int):
    labels: set[str] = set()
    hpo_ids = rng.sample(range(1, 10_000_000), sizes[0])
    go_ids = rng.sample(range(1, 10_000_000), sizes[1] + n_decoys)
    hpo = [(f"HP:{i:07d}",
            _unique(rng, lambda r: f"{r.choice(HPO_ADJECTIVES)} {_word(r)} "
                                   f"{r.choice(HPO_NOUNS)}", labels))
           for i in hpo_ids]
    go = [(f"GO:{i:07d}",
           _unique(rng, lambda r: f"{r.choice(GO_PREFIXES)} {_word(r)} "
                                  f"{r.choice(GO_NOUNS)}", labels))
          for i in go_ids]
    symbols: set[str] = set()
    gene = []
    for _ in range(sizes[2]):
        symbol = _unique(rng, lambda r: f"{_word(r)[:4].upper()}{r.randint(1, 99)}", symbols)
        gene.append((symbol, _unique(
            rng, lambda r: f"{_word(r)} {r.choice(GENE_FAMILIES)} factor {r.randint(1, 9)}",
            labels)))
    return {"HPO": hpo, "GO_CC": go[:sizes[1]], "GENE": gene}, go[sizes[1]:]


def _zipf_counts(rng: np.random.Generator, n: int, scale: int) -> list[int]:
    ranks = rng.permutation(n) + 1
    noise = rng.lognormal(0.0, 0.3, size=n)
    return [int(v) for v in (scale / ranks * noise)]


def _write_obo(path: Path, terms, namespace: str | None, decoys=()) -> None:
    lines = ["format-version: 1.2", "data-version: bench/synthetic", ""]
    entries = [(i, label, namespace) for i, label in terms]
    entries += [(i, label, ns) for (i, label), ns in decoys]
    for identifier, label, ns in entries:
        lines += ["[Term]", f"id: {identifier}", f"name: {label}"]
        if ns:
            lines.append(f"namespace: {ns}")
        lines += [f'def: "Synthetic term {label}." []', ""]
    path.write_text("\n".join(lines), encoding="utf-8")


def _decorate(answer: str, u: float) -> str:
    return ("{}", '"{}"', "{}.", "  {}  ")[int(u * 4)].format(answer)


def _write_store(path: Path, vectors: dict[str, np.ndarray], fmt: str) -> None:
    """Write the embedding store as JSON Lines or the EMB1 binary layout."""
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for text, vec in vectors.items():
                fh.write(json.dumps({"text": text, "dim": EMBED_DIM,
                                     "vector": vec.round(6).tolist()},
                                    ensure_ascii=False) + "\n")
        return
    with open(path, "wb") as fh:
        fh.write(b"EMB1" + struct.pack("<I", len(vectors)))
        for text, vec in vectors.items():
            encoded = text.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded + struct.pack("<I", vec.size))
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


def _config(spec: CorpusSpec, sampling_seed: int, store: str, live: bool) -> str:
    if live:
        sources = ("pmc_cache = live_pmc_cache.jsonl\n\n[endpoints]\n"
                   f"completion_url = {COMPLETION_URL}\nembedding_url = {EMBEDDING_URL}\n")
        limits, offline = "concurrency = 2\nrate_per_second = 1000\n", "false"
    else:
        sources = (f"pmc_cache = pmc_cache.jsonl\nembedding_store = {store}\n"
                   "transcript_baseline = transcripts/baseline.jsonl\n"
                   "transcript_finetuned = transcripts/finetuned.jsonl\n")
        limits, offline = "concurrency = 1\n", "true"
    return f"""[paths]
hpo_obo = hpo.obo
go_obo = go.obo
gene_map = gene_map.tsv
annotations_hpo = annotations_hpo.tsv
annotations_go_cc = annotations_go_cc.tsv
annotations_gene = annotations_gene.tsv
{sources}
[seeds]
sampling = {sampling_seed}

[sampling]
n_bins = {spec.n_bins}
per_bin = {spec.per_bin}
proxy = id_count_pmc

[models]
baseline = {BASELINE_MODEL}
finetuned = {FINETUNED_MODEL}

[limits]
{limits}
[flags]
offline = {offline}
"""


def generate(spec: CorpusSpec, seed: int, out_dir: Path, sampling_seeds: list[int]) -> dict:
    """Write the corpus for `seed` under `out_dir`; return the planted truth.

    The embedding store holds the training pairs of every seed in
    `sampling_seeds`; the configs default to the first of them.
    """
    rng = random.Random(derived_seed(seed, "corpus"))
    nrng = np.random.default_rng(derived_seed(seed, "numeric"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "transcripts").mkdir(exist_ok=True)

    decoy_count = max(2, spec.sizes[1] // 4)
    records, decoys = _records(rng, spec.sizes, decoy_count)
    decoy_ns = [(d, ("biological_process", "molecular_function")[i % 2])
                for i, d in enumerate(decoys)]
    _write_obo(out_dir / "hpo.obo", records["HPO"], None)
    _write_obo(out_dir / "go.obo", records["GO_CC"], "cellular_component", decoy_ns)
    (out_dir / "gene_map.tsv").write_text(
        "gene_symbol\tprotein_name\n"
        + "".join(f"{s}\t{p}\n" for s, p in records["GENE"]), encoding="utf-8")

    truth: dict = {"n_bins": spec.n_bins, "per_bin": spec.per_bin, "terminologies": {}}
    cache_lines = []
    transcripts = {"baseline": [], "finetuned": []}
    for t, terms in records.items():
        id_scale, term_scale, ann_scale = COUNT_SCALE[t]
        n = len(terms)
        id_counts = _zipf_counts(nrng, n, id_scale)
        term_counts = _zipf_counts(nrng, n, term_scale)
        ann_counts = _zipf_counts(nrng, n, ann_scale)
        (out_dir / f"annotations_{TKEYS[t]}.tsv").write_text(
            "".join(f"{i}\t{c}\n" for (i, _), c in zip(terms, ann_counts)), encoding="utf-8")
        for (identifier, label), ic, tc in zip(terms, id_counts, term_counts):
            for query, count in ((identifier_query(identifier), ic), (term_query(label), tc)):
                cache_lines.append(json.dumps({"query": query, "db": "pmc", "count": count,
                                               "retrieved_at": TIMESTAMP}, ensure_ascii=False))
        order = sorted(range(n), key=lambda k: (-id_counts[k], terms[k][0]))
        rank_of = {k: r for r, k in enumerate(order)}
        planted = {}
        for d in DIRECTIONS:
            templates = TEMPLATE_TABLE[Terminology(t)][Direction(d)]
            slot = "[TERM]" if d == "term_to_id" else "[IDENTIFIER]"
            base_rate, gain_rate, loss_rate = PLANT[(t, d)]
            flags = []
            for k, (identifier, label) in enumerate(terms):
                # head-of-distribution pairs are a little easier at baseline
                boost = 1.8 - 1.2 * rank_of[k] / max(1, n - 1)
                base_ok = rng.random() < min(0.95, max(0.02, base_rate * boost))
                u = rng.random()
                ft_ok = u >= loss_rate if base_ok else u < gain_rate
                flags.append([base_ok, ft_ok])
                fill, expected = (label, identifier) if d == "term_to_id" else (identifier, label)
                other = terms[(k + 7) % n]
                wrong = other[0] if d == "term_to_id" else other[1]
                prompt = templates[0].replace(slot, fill)
                key = prompt_hash(prompt)
                for phase, model, ok in (("baseline", BASELINE_MODEL, base_ok),
                                         ("finetuned", FINETUNED_MODEL, ft_ok)):
                    text = _decorate(expected, rng.random()) if ok else wrong
                    transcripts[phase].append(json.dumps({
                        "prompt_hash": key,
                        "request": request_body(prompt, model, DecodingParams()),
                        "response": {"text": text},
                        "timestamp": TIMESTAMP,
                    }, ensure_ascii=False))
            planted[d] = flags
        truth["terminologies"][t] = {
            "records": [[i, label, c] for (i, label), c in zip(terms, id_counts)],
            "correct": planted,
        }
    (out_dir / "pmc_cache.jsonl").write_text("\n".join(cache_lines) + "\n", encoding="utf-8")
    for phase, rows in transcripts.items():
        (out_dir / "transcripts" / f"{phase}.jsonl").write_text(
            "\n".join(rows) + "\n", encoding="utf-8")

    vectors: dict[str, np.ndarray] = {}
    for t in records:
        recs = truth["terminologies"][t]["records"]
        embed_ids = set()
        for s in sampling_seeds:
            embed_ids |= train_identifiers([(r[0], r[2]) for r in recs],
                                           spec.n_bins, spec.per_bin, s)
        for identifier, label, _ in recs:
            if identifier not in embed_ids:
                continue
            term_vec = nrng.normal(size=EMBED_DIM)
            # only gene/protein pairs are aligned
            if t == "GENE":
                id_vec = term_vec + 0.05 * nrng.normal(size=EMBED_DIM)
            else:
                id_vec = nrng.normal(size=EMBED_DIM)
            vectors[label] = term_vec
            vectors[identifier] = id_vec
    store = "embeddings.jsonl" if spec.store_format == "jsonl" else "embeddings.emb"
    _write_store(out_dir / store, vectors, spec.store_format)

    (out_dir / "replay.cfg").write_text(
        _config(spec, sampling_seeds[0], store, live=False), encoding="utf-8")
    (out_dir / "live.cfg").write_text(
        _config(spec, sampling_seeds[0], store, live=True), encoding="utf-8")
    (out_dir / "planted_truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return truth
