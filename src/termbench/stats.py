"""Statistical machinery: Welch's t, two-way ANOVA (Type II), Games-Howell.

The t and F tails come from `scipy.special` (`stdtr`, `fdtrc`). The
studentized range CDF is the textbook double integral (range of k standard
normals, studentized by an independent chi-scaled error estimate) evaluated
with fixed Gauss-Legendre rules, so no `scipy.integrate` (nor the optimize,
linalg and sparse modules it loads) is imported.

`scipy.special` is imported inside the functions that call it, on their
first call. Importing it takes about 0.3 s, more than the rest of the CLI's
imports together, and only the `lexicalize` and `stats` stages reach this
module's scipy calls; the CLI imports this module for every stage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import IO, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .tables import write_table


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p-value for a t statistic with df degrees of freedom."""
    if df <= 0:
        raise DomainError("df must be positive")
    from scipy import special

    return float(2.0 * special.stdtr(df, -abs(t)))


def f_sf(f_stat: float, df1: float, df2: float) -> float:
    """P(F > f) for the F distribution."""
    if df1 <= 0 or df2 <= 0:
        raise DomainError("degrees of freedom must be positive")
    if f_stat <= 0:
        return 1.0
    from scipy import special

    return float(special.fdtrc(df1, df2, f_stat))


class WelchResult(NamedTuple):
    t: float
    df: float
    p: float


def _welch(mean_a: float, var_a: float, n_a: int,
           mean_b: float, var_b: float, n_b: int) -> tuple[float, float, float]:
    """(t, se, df) of Welch's test from two samples' means, variances and sizes.

    se is the unequal-variance standard error and df the Satterthwaite
    approximation. When both variances are zero, se is 0, t is 0 for equal
    means and infinite otherwise, and df is the pooled n_a + n_b - 2.
    """
    diff = mean_a - mean_b
    se2 = var_a / n_a + var_b / n_b
    if se2 == 0.0:
        t = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        return t, 0.0, float(n_a + n_b - 2)
    se = math.sqrt(se2)
    df = se2 * se2 / ((var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1))
    return diff / se, se, df


def welch_t(sample_a: Sequence[float], sample_b: Sequence[float]) -> WelchResult:
    """Welch's unequal-variance t-test (two-sided).

    Degenerate zero-variance inputs do not raise: equal means give t=0 at
    the pooled df, unequal means give an infinite t with p=0.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise DomainError("each sample needs at least 2 observations")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("samples must be finite")
    t, se, df = _welch(float(np.mean(a)), float(np.var(a, ddof=1)), a.size,
                       float(np.mean(b)), float(np.var(b, ddof=1)), b.size)
    if se == 0.0:
        return WelchResult(t=t, df=df, p=1.0 if t == 0.0 else 0.0)
    return WelchResult(t=t, df=df, p=t_sf_two_sided(t, df))


# ---------------------------------------------------------------------------
# Studentized range distribution
#
# P(Q <= q) is the integral of f(s) R(q s) over s = sqrt(chi2_df / df), where
# R(w) = k * integral of phi(z) (Phi(z) - Phi(z - w))^(k-1) dz is the CDF of
# the range of k iid standard normals. The outer integral runs over u = ln s:
# there the integrand is smooth for every df > 0, and R(q e^u) rises over the
# same width of u whatever q is.

# (panels, nodes per panel) of the composite Gauss-Legendre rules over u and z
_RULE = ((24, 16), (12, 16))
# Coarser on both axes; its gap to _RULE is the error estimate.
_CHECK_RULE = ((16, 16), (12, 12))
_MAX_ERROR = 1e-6
_Z_LIMIT = 10.0  # the inner integral runs over [-10, 10]
_LOG_DENSITY_SPAN = 60.0  # the outer one keeps u where ln(density) is within this of its peak
_PROBES = 4097  # points on which that span of u is found
# df / 2 above which the density peak comes from Stirling's series. There the
# lgamma form's terms of size df / 2 cancel: at df = 1e7 it is off by about
# 4e-9, while the series' first omitted term, 1 / (1680 x^7), is below 1e-35.
# Every df that Games-Howell meets at fixture and benchmark sizes is far below it.
_STIRLING_X = 5e4
_legendre = functools.cache(np.polynomial.legendre.leggauss)  # one entry per node count in use


def _gauss_legendre(a: float, b: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [a, b]."""
    x, w = _legendre(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _log_density_from_peak(u: np.ndarray, df: float) -> np.ndarray:
    """ln of the density of u = ln s, less its peak value (reached at u = 0)."""
    return df * u - 0.5 * df * np.expm1(2.0 * u)


def _ln_density_peak(x: float) -> float:
    """ln 2 + x ln x - lgamma(x) - x, the ln of the density peak for df = 2x.

    Its terms are of size x and cancel to about ln x / 2, so above
    _STIRLING_X the cancellation is done by hand with Stirling's series.
    """
    if x <= _STIRLING_X:
        return math.log(2.0) + x * math.log(x) - math.lgamma(x) - x
    return (math.log(2.0) + 0.5 * math.log(x / (2.0 * math.pi))
            - (1.0 / (12.0 * x) - 1.0 / (360.0 * x**3) + 1.0 / (1260.0 * x**5)))


def _cdf_on_rule(q: float, k: int, df: float, u_lo: float, u_hi: float, rule) -> float:
    from scipy import special

    (u_panels, u_nodes), (z_panels, z_nodes) = rule
    u, u_weights = _gauss_legendre(u_lo, u_hi, u_panels, u_nodes)
    z, z_weights = _gauss_legendre(-_Z_LIMIT, _Z_LIMIT, z_panels, z_nodes)
    # f(s) = 2 (df/2)^(df/2) / Gamma(df/2) s^(df-1) e^(-df s^2/2), and f(e^u) e^u peaks at u = 0
    ln_peak = _ln_density_peak(df / 2.0)
    density = np.exp(ln_peak + _log_density_from_peak(u, df))
    phi = z_weights * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    w = q * np.exp(u)[:, None]
    range_cdf = np.minimum(1.0, k * ((special.ndtr(z) - special.ndtr(z - w)) ** (k - 1) @ phi))
    return float(u_weights @ (density * range_cdf))


def studentized_range_cdf(q: float, k: int, df: float) -> float:
    """P(Q <= q) for the studentized range with k groups and df error dof.

    Fixed composite Gauss-Legendre rules on both integrals; a NumericalError
    when a second, coarser rule differs by more than 1e-6 (typically the gap
    is below 1e-9).
    """
    if q < 0:
        raise DomainError("q must be non-negative")
    if k < 2:
        raise DomainError("k must be at least 2")
    if df <= 0:
        raise DomainError("df must be positive")
    if q == 0.0:
        return 0.0

    # s in [1 - 40 sigma, 1 + 40 sigma], trimmed to the span of the density
    sigma = 1.0 / math.sqrt(2.0 * df)
    probe = np.linspace(math.log(max(1e-12, 1.0 - 40.0 * sigma)), math.log1p(40.0 * sigma),
                        _PROBES)
    inside = np.flatnonzero(_log_density_from_peak(probe, df) >= -_LOG_DENSITY_SPAN)
    u_lo = probe[max(inside[0] - 1, 0)]
    u_hi = probe[min(inside[-1] + 1, _PROBES - 1)]

    value = _cdf_on_rule(q, k, df, u_lo, u_hi, _RULE)
    gap = abs(value - _cdf_on_rule(q, k, df, u_lo, u_hi, _CHECK_RULE))
    if gap > _MAX_ERROR:
        raise NumericalError(
            f"studentized range quadrature error {gap:.2e} at q={q}, k={k}, df={df}"
        )
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# Two-way ANOVA (Type II sums of squares)


@dataclass(frozen=True)
class Observation:
    terminology: str
    correctness: int
    value: float


@dataclass(frozen=True)
class AnovaEffect:
    name: str
    ss: float
    df: float
    ms: float
    f: float
    p: float


@dataclass
class AnovaTable:
    effects: list[AnovaEffect]
    warnings: list[str] = field(default_factory=list)


def _design_columns(levels: list, values: list) -> np.ndarray:
    """Full-rank dummy coding: one indicator per non-reference level."""
    cols = []
    for level in levels[1:]:
        cols.append(np.asarray([1.0 if v == level else 0.0 for v in values]))
    if cols:
        return np.column_stack(cols)
    return np.empty((len(values), 0))


def _rss(design: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Residual sum of squares and model rank from least squares."""
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(resid @ resid), int(rank)


def two_way_anova(observations: Sequence[Observation]) -> AnovaTable:
    """Type II two-way ANOVA via nested least-squares model comparisons.

    Safe for unbalanced designs. Configurations with empty cells drop the
    interaction term (additive model) and attach a warning; Type II main
    effects remain well defined.
    """
    obs = list(observations)
    if not obs:
        raise DomainError("no observations")
    y = np.asarray([o.value for o in obs], dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("observation values must be finite")
    a_values = [o.terminology for o in obs]
    b_values = [o.correctness for o in obs]
    a_levels = sorted(set(a_values))
    b_levels = sorted(set(b_values))
    cells = {(a, b) for a, b in zip(a_values, b_values)}
    if len(cells) < 2:
        raise DomainError("need at least 2 non-empty cells")
    n = len(obs)
    if n <= len(cells):
        raise DomainError("need more observations than non-empty cells")

    warnings: list[str] = []
    full_grid = {(a, b) for a in a_levels for b in b_levels}
    empty_cells = sorted(full_grid - cells)
    interaction_dropped = bool(empty_cells)
    if interaction_dropped:
        warnings.append(
            "empty cells "
            + ", ".join(f"({a}, {b})" for a, b in empty_cells)
            + ": interaction dropped, main effects computed on the additive model"
        )

    intercept = np.ones((n, 1))
    xa = _design_columns(a_levels, a_values)
    xb = _design_columns(b_levels, b_values)
    if xa.shape[1] and xb.shape[1]:
        xab = np.column_stack(
            [xa[:, i] * xb[:, j] for i in range(xa.shape[1]) for j in range(xb.shape[1])]
        )
    else:
        xab = np.empty((n, 0))

    design_b = np.column_stack([intercept, xb])
    design_a = np.column_stack([intercept, xa])
    design_ab = np.column_stack([intercept, xa, xb])
    rss_b, _ = _rss(design_b, y)
    rss_a, _ = _rss(design_a, y)
    rss_additive, rank_additive = _rss(design_ab, y)

    ss_a = max(0.0, rss_b - rss_additive)
    ss_b = max(0.0, rss_a - rss_additive)
    df_a = float(len(a_levels) - 1)
    df_b = float(len(b_levels) - 1)

    effects: list[AnovaEffect] = []
    if interaction_dropped:
        rss_resid, rank_model = rss_additive, rank_additive
        ss_ab = df_ab = None
    else:
        design_full = np.column_stack([intercept, xa, xb, xab])
        rss_full, rank_full = _rss(design_full, y)
        ss_ab = max(0.0, rss_additive - rss_full)
        df_ab = float(rank_full - rank_additive)
        rss_resid, rank_model = rss_full, rank_full

    df_resid = float(n - rank_model)
    total_var = float(np.var(y))
    degenerate = total_var == 0.0
    ms_resid = rss_resid / df_resid if df_resid > 0 else 0.0

    def make_effect(name: str, ss: float, dfe: float) -> AnovaEffect:
        ms = ss / dfe if dfe > 0 else 0.0
        if degenerate or ms_resid == 0.0 or dfe <= 0 or df_resid <= 0:
            return AnovaEffect(name, ss, dfe, ms, 0.0, 1.0)
        f_stat = ms / ms_resid
        return AnovaEffect(name, ss, dfe, ms, f_stat, f_sf(f_stat, dfe, df_resid))

    effects.append(make_effect("A", ss_a, df_a))
    effects.append(make_effect("B", ss_b, df_b))
    if not interaction_dropped:
        effects.append(make_effect("A×B", ss_ab, df_ab))
    effects.append(
        AnovaEffect("Residual", rss_resid, df_resid,
                    ms_resid, float("nan"), float("nan"))
    )
    if degenerate:
        warnings.append("all observations identical: every SS is zero")
    return AnovaTable(effects=effects, warnings=warnings)


# ---------------------------------------------------------------------------
# Games-Howell post hoc test


@dataclass(frozen=True)
class GamesHowellRow:
    group_i: str
    group_j: str
    mean_diff: float
    se: float
    t: float
    df: float
    p_adj: float


def games_howell(groups: Sequence[tuple[str, Sequence[float]]]) -> tuple[GamesHowellRow, ...]:
    """Pairwise comparisons without the equal-variance assumption.

    Per pair: Welch standard error and Satterthwaite df; the statistic
    q = |mean difference| * sqrt(2) / se is referred to the studentized
    range distribution with k = number of groups.
    """
    if len(groups) < 2:
        raise DomainError("need at least 2 groups")
    stats = []
    for label, values in groups:
        arr = np.asarray(values, dtype=float)
        if arr.size < 2:
            raise DomainError(f"group {label!r} needs at least 2 observations")
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"group {label!r} contains non-finite values")
        stats.append((label, float(np.mean(arr)), float(np.var(arr, ddof=1)), arr.size))
    k = len(stats)
    rows = []
    for i in range(k):
        for j in range(i + 1, k):
            label_i, mean_i, var_i, n_i = stats[i]
            label_j, mean_j, var_j, n_j = stats[j]
            diff = mean_i - mean_j
            t, se, df = _welch(mean_i, var_i, n_i, mean_j, var_j, n_j)
            if se == 0.0:
                rows.append(GamesHowellRow(label_i, label_j, diff, 0.0, t, df,
                                           1.0 if t == 0.0 else 0.0))
                continue
            q = abs(diff) * math.sqrt(2.0) / se
            p_adj = 1.0 - studentized_range_cdf(q, k, df)
            rows.append(GamesHowellRow(label_i, label_j, diff, se, t, df,
                                       min(1.0, max(0.0, p_adj))))
    return tuple(rows)


# ---------------------------------------------------------------------------
# CSV interfaces


OBSERVATION_CSV_COLUMNS = ["terminology", "correctness", "value"]


def write_observations_csv(observations: Sequence[Observation], sink: IO) -> int:
    return write_table(OBSERVATION_CSV_COLUMNS,
                       ((o.terminology, o.correctness, o.value) for o in observations), sink)


def write_anova_csv(table: AnovaTable, sink: IO) -> None:
    # an F or p that is not defined is NaN, which csv would write as "nan"
    write_table(["effect", "ss", "df", "ms", "F", "p"], [
        *((e.name, e.ss, e.df, e.ms, None if math.isnan(e.f) else e.f,
           None if math.isnan(e.p) else e.p) for e in table.effects),
        *(("warning", w, None, None, None, None) for w in table.warnings),
    ], sink)


def write_games_howell_csv(rows: Sequence[GamesHowellRow], sink: IO) -> None:
    write_table(["group_i", "group_j", "mean_diff", "se", "t", "df", "p_adj"],
                ((r.group_i, r.group_j, r.mean_diff, r.se, r.t, r.df, r.p_adj)
                 for r in rows), sink)
