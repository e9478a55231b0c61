import io
import json
import math
import struct
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from termbench.alignment import (
    BoxStats,
    DistanceSummary,
    paired_distance_analysis,
    pca_project,
    rowwise_alignment,
    write_alignment_json,
    write_distance_summary_csv,
    write_pca_points_csv,
    write_pca_variance_csv,
)
from termbench.embeddings import (
    BATCH_SIZE,
    MAGIC,
    FileEmbeddingStore,
    EmbeddingCache,
    HttpEmbeddingProvider,
    mean_pool,
)
from termbench.errors import (
    ConsistencyError,
    DomainError,
    ParseError,
    PermanentHttpError,
    ProtocolError,
)
from termbench.remote import Endpoint, HttpTransport


# ---------------------------------------------------------------------------
# mean_pool


def test_mean_pool_single_row_identity():
    assert np.allclose(mean_pool([[1, 2, 3]]), [1, 2, 3])


def test_mean_pool_two_rows():
    assert np.allclose(mean_pool([[1, 0], [0, 1]]), [0.5, 0.5])


def test_mean_pool_empty_raises():
    with pytest.raises(DomainError):
        mean_pool(np.empty((0, 4)))


def test_mean_pool_linearity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 8))
    b = rng.normal(size=(5, 8))
    merged = mean_pool(np.vstack([a, b]))
    weighted = (3 * mean_pool(a) + 5 * mean_pool(b)) / 8
    assert np.allclose(merged, weighted)


# ---------------------------------------------------------------------------
# cosine


def cosine(a, b) -> float:
    """Cosine similarity, clamped to [-1, 1] against floating rounding."""
    va = np.asarray(a, dtype=float)
    vb = np.asarray(b, dtype=float)
    if va.shape != vb.shape:
        raise DomainError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise DomainError("cosine undefined for zero-norm vectors")
    return float(np.clip(float(va @ vb) / (na * nb), -1.0, 1.0))


def test_cosine_identity():
    assert cosine([2.0, 0.0, 0.0], [2.0, 0.0, 0.0]) == 1.0
    v = [0.3, -0.2, 0.9]
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal_and_antipodal():
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1, 0], [-1, 0]) == -1.0


def test_cosine_zero_norm_raises():
    with pytest.raises(DomainError):
        cosine([0, 0], [1, 0])


def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        alpha = float(rng.uniform(0.1, 10))
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)
        assert cosine(alpha * a, b) == pytest.approx(cosine(a, b), abs=1e-12)


def test_cosine_dimension_mismatch():
    with pytest.raises(DomainError):
        cosine([1, 0], [1, 0, 0])


# ---------------------------------------------------------------------------
# rowwise_alignment


def test_rowwise_alignment_planted_signal():
    rng = np.random.default_rng(42)
    terms = list(rng.normal(size=(200, 64)))
    ids = [t + 0.1 * rng.normal(size=64) for t in terms]
    res = rowwise_alignment(terms, ids)
    assert res.n == 200
    assert res.delta_mean > 0
    assert res.p_value < 1e-6
    assert res.delta_mean == pytest.approx(res.rowwise_mean - res.nonrow_mean)


def test_rowwise_alignment_null_calibration():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        terms = list(rng.normal(size=(200, 64)))
        ids = list(rng.normal(size=(200, 64)))
        res = rowwise_alignment(terms, ids)
        if abs(res.delta_mean) < 0.02 and res.p_value > 0.01:
            hits += 1
    assert hits >= 95


def test_rowwise_alignment_shuffled_pairing_kills_signal():
    rng = np.random.default_rng(7)
    terms = list(rng.normal(size=(100, 32)))
    ids = [t + 0.05 * rng.normal(size=32) for t in terms]
    perm = rng.permutation(100)
    shuffled = [ids[i] for i in perm]
    res = rowwise_alignment(terms, shuffled)
    assert abs(res.delta_mean) < 0.05
    assert res.p_value > 0.01


def test_rowwise_alignment_needs_two_pairs():
    with pytest.raises(DomainError):
        rowwise_alignment([np.ones(4)], [np.ones(4)])


def test_rowwise_alignment_length_mismatch():
    with pytest.raises(DomainError):
        rowwise_alignment([np.ones(4)] * 3, [np.ones(4)] * 2)


def test_rowwise_alignment_emits_pooled_diagnostics():
    rng = np.random.default_rng(5)
    terms = list(rng.normal(size=(20, 8)))
    ids = list(rng.normal(size=(20, 8)))
    res = rowwise_alignment(terms, ids)
    assert math.isfinite(res.nonrow_pooled_mean)
    assert math.isfinite(res.nonrow_pooled_sd)
    # pooled mean equals mean of per-term means when every term has n-1 values
    assert res.nonrow_pooled_mean == pytest.approx(res.nonrow_mean, abs=1e-12)


# ---------------------------------------------------------------------------
# PCA


def test_pca_rank1_explains_everything():
    rng = np.random.default_rng(2)
    v = rng.normal(size=16)
    vectors = [t * v for t in np.linspace(-3, 3, 40)]
    proj = pca_project(vectors, k=1)
    assert proj.explained_variance[0] >= 1 - 1e-10


def test_pca_planar_data_two_components():
    rng = np.random.default_rng(4)
    basis = rng.normal(size=(2, 10))
    coeffs = rng.normal(size=(50, 2))
    vectors = list(coeffs @ basis)
    proj = pca_project(vectors, k=2)
    assert sum(proj.explained_variance) == pytest.approx(1.0, abs=1e-10)


def test_pca_components_orthonormal():
    rng = np.random.default_rng(5)
    vectors = list(rng.normal(size=(60, 12)))
    proj = pca_project(vectors, k=2)
    gram = proj.components @ proj.components.T
    assert np.allclose(gram, np.eye(2), atol=1e-8)


def test_pca_matches_covariance_eigensolver():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, 20)) @ np.diag(np.linspace(3, 0.3, 20))
    proj = pca_project(list(X), k=2)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (len(X) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    for i in range(2):
        ref = eigvecs[:, order[i]]
        pivot = np.argmax(np.abs(ref))
        if ref[pivot] < 0:
            ref = -ref
        assert np.abs(proj.components[i] - ref).max() < 1e-6
        assert proj.explained_variance[i] == pytest.approx(
            eigvals[order[i]] / eigvals.sum(), abs=1e-10
        )


def test_pca_sign_convention():
    rng = np.random.default_rng(6)
    vectors = list(rng.normal(size=(30, 6)))
    proj = pca_project(vectors, k=2)
    for comp in proj.components:
        assert comp[np.argmax(np.abs(comp))] > 0


def test_pca_projection_centered():
    rng = np.random.default_rng(8)
    vectors = list(rng.normal(size=(40, 10)) + 5.0)
    proj = pca_project(vectors, k=2)
    assert proj.scores.shape == (40, 2)
    assert np.abs(proj.scores.mean(axis=0)).max() < 1e-8


def test_pca_isotropic_cloud_balanced_components():
    rng = np.random.default_rng(12)
    vectors = list(rng.normal(size=(600, 50)))
    proj = pca_project(vectors, k=2)
    ratio = proj.explained_variance[0] / proj.explained_variance[1]
    assert ratio < 1.2


def test_pca_degenerate_rank_reports_attained_rank():
    v = np.ones(8)
    vectors = [t * v for t in range(10)]
    with pytest.raises(DomainError, match="rank 1"):
        pca_project(vectors, k=2)


def test_pca_reconstruction_error_non_increasing():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(50, 10)) @ np.diag(np.linspace(2, 0.1, 10))
    centered = X - X.mean(axis=0)
    errors = []
    for k in (1, 2, 3, 4):
        proj = pca_project(list(X), k=k)
        scores = centered @ proj.components.T
        recon = scores @ proj.components
        errors.append(float(((centered - recon) ** 2).sum()))
    assert errors == sorted(errors, reverse=True)


def test_pca_needs_k_plus_one_vectors():
    with pytest.raises(DomainError):
        pca_project([np.ones(4), np.zeros(4)], k=2)


def reference_pca_svd(vectors, k):
    """The thin-SVD PCA: (components, explained-variance shares, scores, rank)."""
    matrix = np.asarray(vectors, dtype=float)
    n, dim = matrix.shape
    centered = matrix - matrix.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(n, dim) * np.finfo(float).eps * singular[0]
    components = vt[:k].copy()
    for i in range(k):
        pivot = int(np.argmax(np.abs(components[i])))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    eigenvalues = singular**2
    shares = eigenvalues[:k] / eigenvalues.sum()
    return components, shares, centered @ components.T, int(np.sum(singular > tol))


@pytest.mark.parametrize("n,dim,k", [(40, 300, 2), (120, 1024, 2), (300, 20, 2),
                                     (500, 8, 3), (9, 9, 2)])
def test_pca_matches_svd_reference(n, dim, k):
    rng = np.random.default_rng(n * dim)
    X = rng.normal(size=(n, dim)) @ np.diag(np.geomspace(5.0, 0.1, dim)) + rng.normal(size=dim)
    proj = pca_project(list(X), k=k)
    components, shares, scores, _ = reference_pca_svd(X, k)
    assert np.abs(proj.components - components).max() < 1e-9
    assert np.abs(np.array(proj.explained_variance) - shares).max() < 1e-9
    assert np.abs(proj.scores - scores).max() < 1e-9


def test_pca_never_writes_to_its_input():
    X = np.random.default_rng(21).normal(size=(80, 16)) + 3.0
    vectors = list(X.copy())  # rows are views into one array, as writable as any
    matrix = X.copy()
    from_list = pca_project(vectors, k=2)
    from_matrix = pca_project(matrix, k=2)
    assert np.array_equal(np.array(vectors), X)
    assert np.array_equal(matrix, X)
    assert np.array_equal(from_list.components, from_matrix.components)
    assert from_list.explained_variance == from_matrix.explained_variance
    assert np.array_equal(from_list.scores, from_matrix.scores)


def test_pca_holds_one_copy_of_the_vectors_and_one_gram_matrix():
    n, dim = 400, 300
    vectors = list(np.random.default_rng(n * dim).normal(size=(n, dim)))
    pca_project(vectors[:10], k=2)  # imports scipy.linalg outside the traced call
    tracemalloc.start()
    try:
        pca_project(vectors, k=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the centered copy and C C^T are (n*dim + n*n) doubles; a second copy of
    # either would pass the bound
    assert peak < 1.25 * (n * dim + n * n) * 8


@pytest.mark.parametrize("n,dim,rank", [(30, 200, 1), (200, 30, 1), (50, 6, 2), (6, 50, 2)])
def test_pca_rank_deficient_input_raises_like_the_svd_reference(n, dim, rank):
    rng = np.random.default_rng(n + dim)
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, dim)) * 1e3 + rng.normal(size=dim)
    assert reference_pca_svd(X, rank)[3] == rank
    with pytest.raises(DomainError, match=f"data rank {rank} is below the requested k={rank + 1}"):
        pca_project(list(X), k=rank + 1)


# ---------------------------------------------------------------------------
# paired distances


def reference_paired_distance_analysis(points, pairs) -> DistanceSummary:
    """Paired distances resolved through labels, one np.linalg.norm per pair.

    `points` lists (label, coords, class_tag, terminology); `pairs` lists
    (term_label, id_label). A term label is resolved within its
    identifier's terminology. Non-matched distances pair each term with
    every other identifier of its terminology, in point order.
    """
    terms = {}
    ids = {}
    for label, coords, class_tag, terminology in points:
        if class_tag == "term":
            terms.setdefault(label, []).append((coords, terminology))
        else:
            assert label not in ids
            ids[label] = (coords, terminology)

    paired = []
    paired_by_term = {}
    nonpaired = []
    for term_label, id_label in pairs:
        i_coords, terminology = ids[id_label]
        [t_coords] = [c for c, term in terms[term_label] if term == terminology]
        d = float(np.linalg.norm(np.subtract(t_coords, i_coords)))
        paired.append(d)
        paired_by_term.setdefault(terminology, []).append(d)
        for other_label, (other_coords, other_terminology) in ids.items():
            if other_label == id_label or other_terminology != terminology:
                continue
            nonpaired.append(float(np.linalg.norm(np.subtract(t_coords, other_coords))))

    def box(values):
        values = np.asarray(values)
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        return BoxStats(float(values.min()), float(q1), float(median), float(q3),
                        float(values.max()))

    return DistanceSummary(
        paired_mean=float(np.mean(paired)) if paired else 0.0,
        nonpaired_mean=float(np.mean(nonpaired)) if nonpaired else 0.0,
        per_terminology={t: box(v) for t, v in sorted(paired_by_term.items())},
    )


def _points_and_pairs(blocks):
    """The labelled points and pairs that the stage would derive from `blocks`.

    Term labels repeat across terminologies; identifier labels do not.
    """
    points = []
    pairs = []
    for terminology, (term_scores, id_scores) in blocks.items():
        points += [(f"t{i}", tuple(c), "term", terminology)
                   for i, c in enumerate(term_scores.tolist())]
        points += [(f"{terminology}:{i}", tuple(c), "identifier", terminology)
                   for i, c in enumerate(id_scores.tolist())]
        pairs += [(f"t{i}", f"{terminology}:{i}") for i in range(len(term_scores))]
    return points, pairs


def _block(term_coords, id_coords):
    return np.asarray(term_coords, dtype=float), np.asarray(id_coords, dtype=float)


def test_paired_distance_matched_coincident():
    summary = paired_distance_analysis({
        "HPO": _block([(0.0, 0.0), (5.0, 5.0)], [(0.0, 0.0), (5.0, 5.0)]),
    })
    assert summary.paired_mean == 0.0
    assert summary.nonpaired_mean > 0.0


def test_paired_distance_all_coincident():
    summary = paired_distance_analysis({
        "HPO": _block([(1.0, 1.0)] * 2, [(1.0, 1.0)] * 2),
    })
    assert summary.paired_mean == 0.0
    assert summary.nonpaired_mean == 0.0


def test_paired_distance_two_cluster_brute_force():
    rng = np.random.default_rng(21)
    base = rng.normal(size=(20, 2)) * 10
    t_coords = base + rng.normal(size=(20, 2)) * 0.01
    i_coords = base + rng.normal(size=(20, 2)) * 0.01
    summary = paired_distance_analysis({"GENE": (t_coords, i_coords)})

    paired_bf = np.mean([
        np.linalg.norm(t_coords[i] - i_coords[i]) for i in range(20)
    ])
    nonpaired_bf = np.mean([
        np.linalg.norm(t_coords[i] - i_coords[j])
        for i in range(20) for j in range(20) if i != j
    ])
    assert summary.paired_mean == pytest.approx(paired_bf, abs=1e-12)
    assert summary.nonpaired_mean == pytest.approx(nonpaired_bf, abs=1e-12)
    assert summary.paired_mean < summary.nonpaired_mean
    box = summary.per_terminology["GENE"]
    assert box.minimum <= box.q1 <= box.median <= box.q3 <= box.maximum


def test_paired_distance_single_pair_has_no_nonpaired_distances():
    summary = paired_distance_analysis({"GO": _block([(0.0, 0.0)], [(3.0, 4.0)])})
    assert summary.paired_mean == 5.0
    assert summary.nonpaired_mean == 0.0
    assert summary.per_terminology["GO"] == BoxStats(5.0, 5.0, 5.0, 5.0, 5.0)


def test_paired_distance_box_stats_do_not_depend_on_other_terminologies():
    rng = np.random.default_rng(22)
    hpo = _block(rng.normal(size=(7, 2)), rng.normal(size=(7, 2)))
    go = _block(rng.normal(size=(4, 2)) * 50, rng.normal(size=(4, 2)) * 50)
    alone = paired_distance_analysis({"HPO": hpo}).per_terminology
    both = paired_distance_analysis({"HPO": hpo, "GO": go}).per_terminology
    assert list(both) == ["GO", "HPO"]
    assert both["HPO"] == alone["HPO"]
    assert both["GO"] == paired_distance_analysis({"GO": go}).per_terminology["GO"]


@st.composite
def _distance_blocks(draw):
    """2-3 terminologies of 1-60 pairs; some or all coordinates repeat from a small set."""
    names = draw(st.lists(st.sampled_from(["HPO", "GO", "GENE"]),
                          min_size=2, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e6]))
    repeat_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    blocks = {}
    for name in names:
        coords = rng.normal(size=(2, draw(st.integers(1, 60)), 2)) * scale
        repeat = rng.random(coords.shape) < repeat_share
        coords[repeat] = rng.choice([0.0, 1.0, -2.5], size=int(repeat.sum()))
        blocks[name] = (coords[0], coords[1])
    return blocks


@given(_distance_blocks())
@settings(max_examples=100, deadline=None)
def test_paired_distance_matches_label_reference_exactly(blocks):
    assert (paired_distance_analysis(blocks)
            == reference_paired_distance_analysis(*_points_and_pairs(blocks)))


# ---------------------------------------------------------------------------
# embedding stores


@pytest.fixture
def cache(tmp_path):
    """An `EmbeddingCache` on the test's `embeddings.jsonl`, closed when the test ends."""
    with closing(EmbeddingCache(tmp_path / "embeddings.jsonl")) as cache:
        yield cache


def _http_embedder(transport, cache):
    """An `HttpEmbeddingProvider` whose endpoint retries without waiting."""
    return HttpEmbeddingProvider(
        Endpoint("embedding", "http://e", transport, sleep=lambda s: None), cache)


def write_store_jsonl(vectors, path) -> None:
    with closing(EmbeddingCache(path)) as cache:
        for text, vec in vectors.items():
            cache.put(text, vec)


def test_store_jsonl_round_trip(tmp_path):
    vectors = {"alpha": np.array([1.0, 2.0, 3.0]), "beta": np.array([-0.5, 0.25, 8.0])}
    write_store_jsonl(vectors, tmp_path / "store.jsonl")
    store = FileEmbeddingStore.from_path(tmp_path / "store.jsonl")
    assert np.allclose(store.embed("alpha"), vectors["alpha"])
    assert np.allclose(store.embed("beta"), vectors["beta"])


def write_store_binary(vectors, sink) -> int:
    """An EMB1 store: magic, count, then (text length, text, dim, float32 vector) each."""
    sink.write(MAGIC)
    sink.write(struct.pack("<I", len(vectors)))
    for text, vec in vectors.items():
        encoded = text.encode("utf-8")
        sink.write(struct.pack("<I", len(encoded)))
        sink.write(encoded)
        sink.write(struct.pack("<I", vec.size))
        sink.write(np.asarray(vec, dtype="<f4").tobytes())
    return len(vectors)


def test_store_binary_round_trip():
    vectors = {"texte unicode é": np.array([0.5, -1.25]), "b": np.array([3.0, 4.0])}
    buf = io.BytesIO()
    write_store_binary(vectors, buf)
    store = FileEmbeddingStore.from_binary(io.BytesIO(buf.getvalue()))
    assert np.allclose(store.embed("texte unicode é"), vectors["texte unicode é"])
    assert np.allclose(store.embed("b"), vectors["b"])


def test_store_from_path_sniffs_format(tmp_path):
    vectors = {"x": np.array([1.0, 0.0])}
    jp = tmp_path / "store.jsonl"
    write_store_jsonl(vectors, jp)
    bp = tmp_path / "store.bin"
    with open(bp, "wb") as fh:
        write_store_binary(vectors, fh)
    assert np.allclose(FileEmbeddingStore.from_path(jp).embed("x"), [1.0, 0.0])
    assert np.allclose(FileEmbeddingStore.from_path(bp).embed("x"), [1.0, 0.0])


def _binary_store(vectors) -> bytes:
    buf = io.BytesIO()
    write_store_binary(vectors, buf)
    return buf.getvalue()


@pytest.mark.parametrize("cut", [
    lambda data: data[:-10],  # the last vector cut short
    lambda data: data[:6],  # the record count cut short
    lambda data: data[:4] + struct.pack("<I", 3) + data[8:],  # a count above the records
], ids=["last-bytes", "header", "count"])
def test_truncated_binary_store_is_a_parse_error(cut):
    data = cut(_binary_store({"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}))
    with pytest.raises(ParseError, match="truncated EMB1 store"):
        FileEmbeddingStore.from_binary(io.BytesIO(data))


def test_store_missing_text_raises():
    store = FileEmbeddingStore({})
    with pytest.raises(ConsistencyError):
        store.embed("nope")


def test_http_embedding_provider_vectors_and_cache(cache):
    calls = []

    def transport(method, url, **request):
        calls.append(request["json"])
        return 200, json.dumps({"vectors": [[1.0, 2.0]] * len(request["json"]["texts"])})

    provider = _http_embedder(transport, cache)
    v1 = provider.embed_many(["a"])[0]
    v2 = provider.embed_many(["a"])[0]
    assert np.allclose(v1, [1.0, 2.0])
    assert np.allclose(v1, v2)
    assert len(calls) == 1


def test_http_embedding_provider_token_matrix_pooled(cache):
    def transport(method, url, **request):
        return 200, json.dumps({"token_vectors": [[[1.0, 0.0], [0.0, 1.0]]]})

    provider = _http_embedder(transport, cache)
    assert np.allclose(provider.embed_many(["a"])[0], [0.5, 0.5])


def test_http_embedding_provider_bad_payload(cache):
    provider = _http_embedder(lambda m, u, **r: (200, json.dumps({"nope": 1})), cache)
    with pytest.raises(ProtocolError):
        provider.embed_many(["a"])


@pytest.mark.parametrize("reply", [
    3,
    {"vectors": None},
    {"vectors": ["a"]},
    {"vectors": [[1, 2], [3]]},
], ids=["not-an-object", "null-vectors", "non-numeric", "unequal-lengths"])
def test_http_embedding_provider_rejects_a_malformed_reply(cache, reply):
    provider = _http_embedder(lambda m, u, **r: (200, json.dumps(reply)), cache)
    with pytest.raises(ProtocolError):
        provider.embed_many(["a", "b"])
    assert not cache.path.exists()  # nothing from a rejected reply is kept


def test_http_embedding_provider_rejects_a_length_unlike_earlier_replies(cache):
    replies = iter([{"vectors": [[1.0, 2.0]]}, {"vectors": [[3.0]]}])
    provider = _http_embedder(lambda m, u, **r: (200, json.dumps(next(replies))), cache)
    provider.embed_many(["a"])
    with pytest.raises(ProtocolError):
        provider.embed_many(["b"])


def test_http_embedding_provider_rejects_a_length_unlike_its_stored_vectors(tmp_path):
    write_store_jsonl({"a": np.array([1.0, 2.0])}, tmp_path / "embeddings.jsonl")
    with closing(EmbeddingCache(tmp_path / "embeddings.jsonl")) as cache:
        provider = _http_embedder(
            lambda m, u, **r: (200, json.dumps({"vectors": [[3.0]]})), cache)
        with pytest.raises(ProtocolError, match="unequal"):
            provider.embed_many(["a", "b"])


def test_http_embedding_provider_sends_only_what_its_store_lacks(tmp_path):
    texts = []

    def transport(method, url, **request):
        texts.extend(request["json"]["texts"])
        return 200, json.dumps({"vectors": [[float(len(t)), 1.0]
                                            for t in request["json"]["texts"]]})

    path = tmp_path / "embeddings.jsonl"
    with closing(EmbeddingCache(path)) as cache:
        first = _http_embedder(transport, cache).embed_many(["a", "bb"])
    stored = path.read_bytes()
    with closing(EmbeddingCache(path)) as cache:
        again = _http_embedder(transport, cache).embed_many(
            ["bb", "ccc", "a"])
    assert texts == ["a", "bb", "ccc"]
    assert [v.tolist() for v in again] == [first[1].tolist(), [3.0, 1.0], first[0].tolist()]
    assert path.read_bytes().startswith(stored)


def test_store_embed_many_matches_embed():
    store = FileEmbeddingStore({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    got = store.embed_many(["b", "a", "b"])
    assert [v.tolist() for v in got] == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_http_embedding_provider_batches_distinct_texts(cache):
    batches = []

    def transport(method, url, **request):
        texts = request["json"]["texts"]
        batches.append(list(texts))
        return 200, json.dumps({"vectors": [[float(t[1:])] for t in texts]})

    provider = _http_embedder(transport, cache)
    texts = [f"t{i}" for i in range(70)]
    got = provider.embed_many(texts + texts[:5])
    assert [len(b) for b in batches] == [BATCH_SIZE, BATCH_SIZE, 70 - 2 * BATCH_SIZE]
    assert sum(batches, []) == texts
    assert [float(v[0]) for v in got] == [float(i) for i in range(70)] + [0.0, 1.0, 2.0, 3.0, 4.0]
    # each vector is stored as it arrives, in the order the texts were sent
    rows = [json.loads(line) for line in cache.path.read_text(encoding="utf-8").splitlines()]
    assert [row["text"] for row in rows] == texts


def _patch_post(fake_http, responses):
    """Answer embedding POSTs with the (status, payload) replies in turn; the last repeats."""
    calls = []

    def post(request, timeout, **kwargs):
        assert (request.method, timeout) == ("POST", 120)
        calls.append(json.loads(request.body))
        status, payload = responses[min(len(calls), len(responses)) - 1]
        return status, json.dumps(payload)

    fake_http(post)
    return calls


def test_http_embedding_provider_retries_a_503(fake_http, cache):
    calls = _patch_post(fake_http, [(503, {"error": "busy"}), (200, {"vectors": [[1.0, 2.0]]})])
    slept = []
    with closing(HttpTransport(1)) as transport:
        endpoint = Endpoint("embedding", "http://e", transport, sleep=slept.append)
        provider = HttpEmbeddingProvider(endpoint, cache)
        assert provider.embed_many(["a"])[0].tolist() == [1.0, 2.0]
    assert len(calls) == 2
    assert slept == [1.0]


def test_http_embedding_provider_does_not_retry_a_400(fake_http, cache):
    calls = _patch_post(fake_http, [(400, {"error": "bad request"})])
    with closing(HttpTransport(1)) as transport:
        provider = _http_embedder(transport, cache)
        with pytest.raises(PermanentHttpError) as exc:
            provider.embed_many(["a"])
    assert exc.value.status == 400
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# serialization


def test_alignment_json_and_csv_writers():
    rng = np.random.default_rng(3)
    terms = list(rng.normal(size=(10, 6)))
    ids = list(rng.normal(size=(10, 6)))
    res = rowwise_alignment(terms, ids)
    buf = io.StringIO()
    write_alignment_json({"HPO": res}, buf)
    assert '"delta_mean"' in buf.getvalue()

    proj = pca_project(terms + ids, k=2)
    meta = ([(f"t{i}", "term", "HPO") for i in range(10)]
            + [(f"i{i}", "identifier", "HPO") for i in range(10)])
    buf = io.StringIO()
    assert write_pca_points_csv(zip(meta, proj.scores.tolist()), buf) == 20
    lines = buf.getvalue().splitlines()
    assert lines[0] == "label,class,terminology,x,y"
    assert len(lines) == 21
    assert lines[1] == f"t0,term,HPO,{float(proj.scores[0, 0])!r},{float(proj.scores[0, 1])!r}"

    summary = paired_distance_analysis({"HPO": (proj.scores[:10], proj.scores[10:])})
    buf = io.StringIO()
    write_distance_summary_csv(summary, buf)
    assert buf.getvalue().splitlines()[0] == "terminology,min,q1,median,q3,max"


def test_pca_variance_csv_writer():
    buf = io.StringIO()
    write_pca_variance_csv((0.5, 0.1 + 0.2), buf)
    assert buf.getvalue() == "component,explained_variance\n1,0.5\n2,0.30000000000000004\n"
