"""Semantic alignment between term and identifier embeddings.

A terminology is "lexicalized" to the degree that each identifier's
embedding sits close to its own term's embedding. We measure that three
ways: matched vs non-matched cosine similarity with a Welch t-test, a 2D
PCA projection of all vectors, and Euclidean distances between matched
pairs in the projected plane.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DomainError
from .jsonl import write_document
from .stats import WelchResult, welch_t
from .tables import write_table


@dataclass(frozen=True)
class AlignmentResult:
    n: int
    rowwise_mean: float
    rowwise_sd: float
    nonrow_mean: float
    nonrow_sd: float
    delta_mean: float
    t_stat: float
    df: float
    p_value: float
    # Diagnostics over the raw n*(n-1) non-matching similarities, alongside
    # the per-term means used for the test.
    nonrow_pooled_mean: float
    nonrow_pooled_sd: float


def _unit_rows(vectors: list[np.ndarray], what: str) -> np.ndarray:
    matrix = np.asarray(vectors, dtype=float)
    if matrix.ndim != 2:
        raise DomainError(f"{what} vectors must share one dimension")
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise DomainError(f"{what} contains a zero-norm vector")
    return matrix / norms[:, None]


def rowwise_alignment(
    term_vecs: list[np.ndarray], id_vecs: list[np.ndarray]
) -> AlignmentResult:
    """Matched vs non-matched cosine similarity with Welch's t.

    The matched sample is cosine(term_i, id_i). The non-matched sample
    aggregates to one value per term (mean over the n-1 identifiers that
    are not its own) so both samples have size n.
    """
    if len(term_vecs) != len(id_vecs):
        raise DomainError("term and identifier vector lists differ in length")
    n = len(term_vecs)
    if n < 2:
        raise DomainError("need at least 2 pairs")
    terms = _unit_rows(term_vecs, "terms")
    ids = _unit_rows(id_vecs, "identifiers")
    if terms.shape[1] != ids.shape[1]:
        raise DomainError("term and identifier dimensions differ")

    sims = np.clip(terms @ ids.T, -1.0, 1.0)
    rowwise = np.diag(sims).copy()
    off_mask = ~np.eye(n, dtype=bool)
    nonrow_per_term = (sims.sum(axis=1) - rowwise) / (n - 1)
    pooled = sims[off_mask]

    result: WelchResult = welch_t(rowwise, nonrow_per_term)
    return AlignmentResult(
        n=n,
        rowwise_mean=float(np.mean(rowwise)),
        rowwise_sd=float(np.std(rowwise, ddof=1)),
        nonrow_mean=float(np.mean(nonrow_per_term)),
        nonrow_sd=float(np.std(nonrow_per_term, ddof=1)),
        delta_mean=float(np.mean(rowwise) - np.mean(nonrow_per_term)),
        t_stat=result.t,
        df=result.df,
        p_value=result.p,
        nonrow_pooled_mean=float(np.mean(pooled)),
        nonrow_pooled_sd=float(np.std(pooled, ddof=1)),
    )


@dataclass(frozen=True)
class PcaProjection:
    components: np.ndarray        # k x dim, orthonormal rows
    explained_variance: tuple[float, ...]  # top-k eigenvalue shares of total variance
    scores: np.ndarray            # n x k, row i is vector i in the projected plane


def pca_project(vectors: list[np.ndarray], k: int = 2) -> PcaProjection:
    """Project mean-centered vectors onto the top-k principal axes.

    Takes the top-k eigenpairs of the n x n Gram matrix C C^T of the
    centered matrix C: each eigenvector u with eigenvalue w gives the
    component C^T u / sqrt(w), and the total variance is trace(C C^T), so
    the rest of the spectrum is never computed. Sign convention: each
    component's largest-magnitude coordinate is positive. Row i of `scores`
    is vector i.

    `vectors` is never written to. It is copied once, and that copy is
    centered in place; the Gram matrix is factored in place, after its
    trace is taken. So besides the input, the projection holds one n x dim
    and one n x n array.
    """
    from scipy.linalg import eigh

    centered = np.array(vectors, dtype=float)  # always a copy, even of a float array
    if centered.ndim != 2:
        raise DomainError("vectors must share one dimension")
    n, dim = centered.shape
    if n < k + 1:
        raise DomainError(f"need at least {k + 1} vectors for k={k}, got {n}")

    centered -= centered.mean(axis=0)
    gram = centered @ centered.T
    total = float(np.trace(gram))
    # C C^T comes out exactly symmetric, so its transpose is the same matrix in
    # Fortran order, which LAPACK overwrites without a copy
    eigenvalues, eigenvectors = eigh(gram.T, overwrite_a=True, subset_by_index=[n - k, n - 1])
    eigenvalues, eigenvectors = eigenvalues[::-1], eigenvectors[:, ::-1]  # largest first
    tol = max(n, dim) * np.finfo(float).eps * max(float(eigenvalues[0]), 0.0)
    rank = int(np.sum(eigenvalues > tol))
    if rank < k:
        raise DomainError(f"data rank {rank} is below the requested k={k}")

    components = (centered.T @ eigenvectors / np.sqrt(eigenvalues)).T
    for i in range(k):
        pivot = int(np.argmax(np.abs(components[i])))
        if components[i, pivot] < 0:
            components[i] = -components[i]

    return PcaProjection(
        components=components,
        explained_variance=tuple(float(v) / total for v in eigenvalues),
        scores=centered @ components.T,
    )


@dataclass(frozen=True)
class BoxStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


@dataclass(frozen=True)
class DistanceSummary:
    paired_mean: float
    nonpaired_mean: float
    per_terminology: dict[str, BoxStats]


def _box(values: np.ndarray) -> BoxStats:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return BoxStats(float(values.min()), float(q1), float(median), float(q3),
                    float(values.max()))


def _mean(parts: list[np.ndarray]) -> float:
    """Mean over the parts laid end to end (0.0 when they hold nothing)."""
    values = np.concatenate([np.empty(0), *parts])
    return float(np.mean(values)) if values.size else 0.0


def paired_distance_analysis(
    blocks: dict[str, tuple[np.ndarray, np.ndarray]],
) -> DistanceSummary:
    """Euclidean distances in the projected plane: matched vs non-matched.

    `blocks` maps each terminology to (term_scores, id_scores), where row i
    of both arrays is one pair. In each terminology's term x identifier
    distance matrix the diagonal holds the matched distances and the
    off-diagonal, row by row, the non-matched ones (each term against every
    other identifier of its terminology). The means run over all
    terminologies in `blocks` order; box stats of the matched distances are
    reported per terminology.
    """
    paired: list[np.ndarray] = []
    nonpaired: list[np.ndarray] = []
    per_terminology: dict[str, BoxStats] = {}
    for terminology, (term_scores, id_scores) in blocks.items():
        d = term_scores[:, None, :] - id_scores[None, :, :]
        # sqrt(d . d) rounds exactly as np.linalg.norm does on one difference vector
        distances = np.sqrt(np.vecdot(d, d))
        on_diagonal = np.eye(len(distances), dtype=bool)
        paired.append(distances[on_diagonal])
        nonpaired.append(distances[~on_diagonal])
        per_terminology[terminology] = _box(paired[-1])
    return DistanceSummary(
        paired_mean=_mean(paired),
        nonpaired_mean=_mean(nonpaired),
        per_terminology=dict(sorted(per_terminology.items())),
    )


# ---------------------------------------------------------------------------
# File interfaces


def write_alignment_json(results: dict[str, AlignmentResult], sink: IO) -> None:
    write_document({name: asdict(r) for name, r in results.items()}, sink)


def write_pca_points_csv(points: Iterable[tuple[tuple[str, str, str], list[float]]],
                         sink: IO) -> int:
    """One row per projected vector: its (label, class, terminology) and its (x, y)."""
    return write_table(["label", "class", "terminology", "x", "y"],
                       ((*m, x, y) for m, (x, y) in points), sink)


def write_pca_variance_csv(shares: Sequence[float], sink: IO) -> None:
    """One row per principal component (1-based): its share of the total variance."""
    write_table(["component", "explained_variance"], enumerate(shares, start=1), sink)


def write_distance_summary_csv(summary: DistanceSummary, sink: IO) -> None:
    write_table(["terminology", "min", "q1", "median", "q3", "max"], [
        *((terminology, box.minimum, box.q1, box.median, box.q3, box.maximum)
          for terminology, box in summary.per_terminology.items()),
        ("__overall__", "paired_mean", summary.paired_mean,
         "nonpaired_mean", summary.nonpaired_mean, None),
    ], sink)
