"""Acceptance suite: one test per release criterion, each timed and reported.

Run under pytest (`pytest tests/test_acceptance.py -s`) or directly
(`python tests/test_acceptance.py`) to get one PASS/FAIL line per
criterion. All model I/O is replayed from bundled fixtures; nothing here
touches the network.
"""

from __future__ import annotations

import hashlib
import io
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from termbench.alignment import pca_project, rowwise_alignment
from termbench.cli import main as cli_main
from termbench.evaluate import (
    Phase,
    expected_answers,
    run_eval,
    run_summary,
    write_results_jsonl,
)
from termbench.ontology import TermRecord, Terminology, build_index
from termbench.outcomes import OutcomeCategory, classify, derived_metrics, round1
from termbench.popularity import PopularityRecord, laplace_log, rank_frequency
from termbench.prompts import Direction, expand_prompts
from termbench.providers import ReplayProvider, prompt_hash
from termbench.rng import SplitMix64
from termbench.sampling import SampledPair, Split, sample_bins, stratify, write_split_jsonl
from termbench.stats import (
    Observation,
    games_howell,
    studentized_range_cdf,
    two_way_anova,
    welch_t,
)

FIXTURE = Path(__file__).parent / "fixtures" / "mini"

# frozen output digest of the seed-42 draw over the 4,000-identifier Zipf
# distribution; guards cross-platform and cross-version drift
ZIPF_SAMPLE_SHA256 = "1b823245485916ee78d124ffddf1a5b052c99b68b7c2f1c0354da06d62378c1c"

_REPORT: list[str] = []


def _criterion(number: int, description: str, limit_seconds: float):
    def wrap(fn):
        def run():
            start = time.monotonic()
            fn()
            elapsed = time.monotonic() - start
            assert elapsed < limit_seconds, (
                f"criterion {number} took {elapsed:.2f}s (limit {limit_seconds}s)"
            )
            line = f"[PASS] criterion {number:>2}: {description} ({elapsed:.2f}s)"
            _REPORT.append(line)
            print(line)

        run.__name__ = fn.__name__
        run._criterion = (number, description)
        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. outcome algebra reproduces the derived-metric reference rows

REFERENCE_ROWS = [
    # label, train (G, L, C, I), validation (G, L, C, I),
    # (memorized, generalized, degraded), reference accuracy, formula matches
    ("HPO identifier -> term", (0.0, 0.0, 0.0, 100.0), (0.0, 0.0, 0.0, 100.0),
     (0.0, 0.0, 0.0), 0.0, True),
    ("HPO term -> identifier", (2.5, 0.0, 0.5, 97.0), (0.3, 0.2, 0.3, 99.3),
     (2.5, 0.3, 0.2), 3.0, True),
    ("GO identifier -> term", (33.0, 0.0, 0.5, 66.5), (0.2, 0.4, 0.2, 99.2),
     (33.0, 0.2, 0.4), 33.5, True),
    ("GO term -> identifier", (77.0, 0.0, 2.5, 20.5), (0.7, 1.8, 0.6, 96.8),
     (77.0, 0.7, 1.8), 79.5, True),
    ("gene -> protein", (48.0, 3.5, 22.5, 26.0), (13.9, 6.0, 16.7, 63.4),
     (48.0, 13.9, 9.5), 70.5, False),
    ("protein -> gene", (24.0, 1.5, 69.5, 5.0), (7.0, 4.6, 69.2, 19.2),
     (24.0, 7.0, 6.1), 87.5, False),
]


def _percentages(*values) -> dict:
    """Category shares (G, L, C, I) taken exactly from their decimal form."""
    return dict(zip(OutcomeCategory, (Fraction(str(v)) for v in values)))


@_criterion(1, "outcome algebra reproduces the six derived-metric rows", 1.0)
def test_criterion_01_outcome_algebra():
    flagged = []
    for label, train, val, expected, reference_acc, should_match in REFERENCE_ROWS:
        memorized, generalized, degraded, accuracy = map(
            round1, derived_metrics(_percentages(*train), _percentages(*val)))
        mem, gen, deg = expected
        assert abs(memorized - mem) <= 0.05, label
        assert abs(generalized - gen) <= 0.05, label
        assert abs(degraded - deg) <= 0.05, label
        matches = abs(accuracy - reference_acc) <= 0.05
        assert matches is should_match, (label, accuracy, reference_acc)
        if not matches:
            flagged.append(label)
    assert flagged == ["gene -> protein", "protein -> gene"]
    # the flagged rows keep the formula's value rather than the reference one
    *_, gene_fwd_accuracy = derived_metrics(
        _percentages(48.0, 3.5, 22.5, 26.0),
        _percentages(13.9, 6.0, 16.7, 63.4),
    )
    assert round1(gene_fwd_accuracy) == 67.0


# ---------------------------------------------------------------------------
# 2. classifier truth table


@_criterion(2, "classifier truth table and category partition", 1.0)
def test_criterion_02_truth_table():
    table = {
        (False, True): OutcomeCategory.GAINER,
        (True, False): OutcomeCategory.LOSER,
        (True, True): OutcomeCategory.CORRECT,
        (False, False): OutcomeCategory.INCORRECT,
    }
    for (base, tuned), expected in table.items():
        assert classify(base, tuned) is expected
    assert {classify(b, f) for b in (False, True) for f in (False, True)} == set(
        OutcomeCategory
    )
    # synthetic outcome set: the four category counts partition the whole
    rng = SplitMix64(99)
    flags = [(rng.next_below(2) == 1, rng.next_below(2) == 1) for _ in range(1000)]
    counts = {c: 0 for c in OutcomeCategory}
    for base, tuned in flags:
        counts[classify(base, tuned)] += 1
    assert sum(counts.values()) == 1000


# ---------------------------------------------------------------------------
# 3. sampler on the Zipf-synthetic distribution


def _zipf_setup():
    records = [
        PopularityRecord(Terminology.HPO, f"HP:{i:07d}", f"term {i:04d}",
                         10_000_000 // i, 0, 0)
        for i in range(1, 4001)
    ]
    dist = rank_frequency(records, "id_count_pmc")
    index = build_index(
        [TermRecord(r.terminology, r.identifier, r.label) for r in records]
    )
    return dist, index


@_criterion(3, "stratified sampler: 20 bins x 10, deterministic at seed 42", 5.0)
def test_criterion_03_sampler():
    dist, index = _zipf_setup()
    bins = stratify(dist, 20)
    assert len(bins) == 20
    blobs = []
    for _ in range(2):
        pairs = sample_bins(bins, index, seed=42, per_bin=10)
        assert len(pairs) == 200
        per_bin: dict[int, list] = {}
        for p in pairs:
            per_bin.setdefault(p.bin_index, []).append(p)
        assert all(len(v) == 10 for v in per_bin.values())
        ranks = {identifier: rank for identifier, _, rank in dist}
        for i in range(19):
            assert max(ranks[p.identifier] for p in per_bin[i]) < min(
                ranks[p.identifier] for p in per_bin[i + 1]
            ), "bin rank ranges overlap"
        buf = io.StringIO()
        write_split_jsonl(pairs, buf)
        blobs.append(buf.getvalue().encode())
    assert blobs[0] == blobs[1], "same seed must give byte-identical output"
    assert hashlib.sha256(blobs[0]).hexdigest() == ZIPF_SAMPLE_SHA256, (
        "sample stream drifted from the frozen cross-platform digest"
    )


# ---------------------------------------------------------------------------
# 4. prompt expansion


@_criterion(4, "prompt expansion: 2,000 prompts, no residual placeholders", 1.0)
def test_criterion_04_prompts():
    pairs = [
        SampledPair(Terminology.HPO, f"term {i:03d}", f"HP:{i:07d}", 0, Split.TRAIN)
        for i in range(200)
    ]
    prompts = []
    for direction in Direction:
        for pair in pairs:
            prompts.extend(expand_prompts(pair, direction))
    assert len(prompts) == 2000
    for p in prompts:
        for placeholder in ("[ONTOLOGY]", "[TERM]", "[IDENTIFIER]"):
            assert placeholder not in p.prompt_text
    tremor = SampledPair(Terminology.HPO, "tremor", "HP:0001337", 0, Split.TRAIN)
    rendered = expand_prompts(tremor, Direction.TERM_TO_ID)[0]
    assert rendered.prompt_text == "What is the HPO identifier for the HPO term tremor?"
    assert rendered.expected_answer == "HP:0001337"


# ---------------------------------------------------------------------------
# 5. evaluation determinism under replay


@_criterion(5, "replay evaluation is byte-deterministic; 3-of-4 scores 0.75", 5.0)
def test_criterion_05_eval_determinism():
    pairs = [
        SampledPair(Terminology.HPO, f"term {i}", f"HP:{i:07d}", 0, Split.TRAIN)
        for i in range(4)
    ]
    prompts = [expand_prompts(p, Direction.TERM_TO_ID)[0] for p in pairs]
    answers = [p.expected_answer for p in prompts]
    answers[3] = "HP:9999999"
    provider = ReplayProvider(
        {prompt_hash(p.prompt_text): a for p, a in zip(prompts, answers)}
    )
    blobs = []
    for _ in range(2):
        items = run_eval(provider, prompts, expected_answers(prompts, False), "m", 1, False)
        accuracy = run_summary(items, "m", Terminology.HPO, Direction.TERM_TO_ID,
                               Phase.BASELINE)["accuracy"]
        assert accuracy == 0.75
        buf = io.StringIO()
        write_results_jsonl(items, buf)
        blobs.append((buf.getvalue().encode(), accuracy))
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# 6. lexicalization synthetic power test


@_criterion(6, "alignment power test and Welch hand-formula oracle", 60.0)
def test_criterion_06_lexicalization():
    rng = np.random.default_rng(2024)
    terms = list(rng.normal(size=(200, 64)))
    ids = [t + 0.1 * rng.normal(size=64) for t in terms]
    planted = rowwise_alignment(terms, ids)
    assert planted.delta_mean > 0
    assert planted.p_value < 1e-6

    calm = 0
    for seed in range(100):
        r = np.random.default_rng(5000 + seed)
        a = list(r.normal(size=(200, 64)))
        b = list(r.normal(size=(200, 64)))
        res = rowwise_alignment(a, b)
        if res.p_value > 0.01 and abs(res.delta_mean) < 0.02:
            calm += 1
    assert calm >= 95, f"only {calm}/100 null replicates were quiet"

    hand = welch_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert abs(hand.t - (-1.0)) < 1e-9
    assert abs(hand.df - 8.0) < 1e-9


# ---------------------------------------------------------------------------
# 7. PCA against the brute-force eigensolver


@_criterion(7, "PCA: rank-1 variance, orthonormality, eigensolver agreement", 10.0)
def test_criterion_07_pca():
    rng = np.random.default_rng(77)
    direction_vec = rng.normal(size=20)
    rank1 = [t * direction_vec for t in np.linspace(-2, 2, 50)]
    proj1 = pca_project(rank1, k=1)
    assert proj1.explained_variance[0] >= 1 - 1e-10

    X = rng.normal(size=(100, 20)) @ np.diag(np.linspace(2.5, 0.2, 20))
    proj = pca_project(list(X), k=2)
    gram = proj.components @ proj.components.T
    assert np.abs(gram - np.eye(2)).max() < 1e-8

    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (len(X) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    for i in range(2):
        ref = eigvecs[:, order[i]]
        pivot = int(np.argmax(np.abs(ref)))
        if ref[pivot] < 0:
            ref = -ref
        assert np.abs(proj.components[i] - ref).max() < 1e-6
        assert abs(proj.explained_variance[i] - eigvals[order[i]] / eigvals.sum()) < 1e-6


# ---------------------------------------------------------------------------
# 8. statistics battery


@_criterion(8, "studentized range, Games-Howell, ANOVA and empty-cell fallback", 60.0)
def test_criterion_08_statistics():
    assert studentized_range_cdf(3.314 - 0.01, 3, 10_000) < 0.95
    assert studentized_range_cdf(3.314 + 0.01, 3, 10_000) > 0.95

    rng = np.random.default_rng(17)
    a = list(rng.normal(0, 1, 40))
    b = list(rng.normal(0.4, 2, 25))
    gh = games_howell([("a", a), ("b", b)])[0]
    w = welch_t(a, b)
    assert abs(gh.p_adj - w.p) < 1e-6

    identical = [(g, [1.0, 2.0, 3.0, 4.0]) for g in ("a", "b", "c")]
    for row in games_howell(identical):
        assert abs(row.p_adj - 1.0) < 1e-9

    # balanced design: Type II SS within 5% of the closed-form balanced SS
    a_effects = {"HPO": -1.0, "GO": 0.0, "GENE": 1.0}
    b_effects = {0: -0.5, 1: 0.5}
    g = np.random.default_rng(3)
    obs = []
    for t, ae in a_effects.items():
        for corr, be in b_effects.items():
            for _ in range(20):
                obs.append(Observation(t, corr, 10 + ae + be + g.normal(0, 1)))
    table = two_way_anova(obs)
    values = np.array([o.value for o in obs])
    gm = values.mean()
    ss_a = sum(
        np.sum([o.terminology == lv for o in obs])
        * (np.mean([o.value for o in obs if o.terminology == lv]) - gm) ** 2
        for lv in a_effects
    )
    ss_b = sum(
        np.sum([o.correctness == lv for o in obs])
        * (np.mean([o.value for o in obs if o.correctness == lv]) - gm) ** 2
        for lv in b_effects
    )
    effects = {e.name: e for e in table.effects}
    assert abs(effects["A"].ss - ss_a) / ss_a < 0.05
    assert abs(effects["B"].ss - ss_b) / ss_b < 0.05

    # one terminology with an entirely empty correctness cell
    empty = []
    for _ in range(200):
        empty.append(Observation("HPO", 0, float(g.normal(0, 1))))
    for corr, n in ((0, 147), (1, 53)):
        for _ in range(n):
            empty.append(Observation("GO", corr, float(g.normal(1, 1))))
    for corr, n in ((0, 59), (1, 141)):
        for _ in range(n):
            empty.append(Observation("GENE", corr, float(g.normal(2, 1))))
    fallback = two_way_anova(empty)
    assert any("empty cells" in w for w in fallback.warnings)
    assert all(e.name != "A×B" for e in fallback.effects)


# ---------------------------------------------------------------------------
# 9. transforms


@_criterion(9, "laplace-log reference points and monotonicity", 1.0)
def test_criterion_09_transforms():
    assert laplace_log(0) == 0.0
    assert laplace_log(99) == 2.0
    assert laplace_log(999) == 3.0
    rng = SplitMix64(2718)
    for _ in range(10_000):
        a = rng.next_below(10**9)
        b = rng.next_below(10**9)
        if a < b:
            assert laplace_log(a) < laplace_log(b)
        elif a > b:
            assert laplace_log(a) > laplace_log(b)
        else:
            assert laplace_log(a) == laplace_log(b)


# ---------------------------------------------------------------------------
# 10. end-to-end fixture run


@_criterion(10, "end-to-end fixture run matches brute-force expected tables", 30.0)
def test_criterion_10_end_to_end(tmp_path=None):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        code = cli_main([
            "--config", str(FIXTURE / "run.cfg"),
            "--run-dir", str(run_dir),
            "--stage", "all",
        ])
        assert code == 0, "pipeline run failed"
        produced = run_dir / "sample" / "split.jsonl"
        assert produced.read_bytes() == (FIXTURE / "expected" / "split.jsonl").read_bytes()
        for name in ("performance_summary.csv", "outcome_categories.csv",
                     "derived_metrics.csv"):
            got = (run_dir / "report" / name).read_bytes()
            want = (FIXTURE / "expected" / name).read_bytes()
            assert got == want, f"report table {name} differs from expected"


CRITERIA = [
    test_criterion_01_outcome_algebra,
    test_criterion_02_truth_table,
    test_criterion_03_sampler,
    test_criterion_04_prompts,
    test_criterion_05_eval_determinism,
    test_criterion_06_lexicalization,
    test_criterion_07_pca,
    test_criterion_08_statistics,
    test_criterion_09_transforms,
    test_criterion_10_end_to_end,
]


def _run_all() -> int:
    failures = 0
    for fn in CRITERIA:
        number, description = fn._criterion
        try:
            fn()
        except BaseException as exc:  # report and continue
            failures += 1
            print(f"[FAIL] criterion {number:>2}: {description} — {exc}")
    print(f"\n{len(CRITERIA) - failures}/{len(CRITERIA)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(_run_all())
