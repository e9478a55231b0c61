import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
import scipy.special

import termbench.stats
from termbench.errors import DomainError, NumericalError, ParseError, ValidationError
from termbench.stats import (
    OBSERVATION_CSV_COLUMNS,
    AnovaTable,
    Observation,
    games_howell,
    f_sf,
    two_way_anova,
    studentized_range_cdf,
    t_sf_two_sided,
    welch_t,
)


# ---------------------------------------------------------------------------
# t / F distribution tails


@pytest.mark.parametrize("a,b,x", [
    (0.5, 0.5, 0.25), (2.0, 3.0, 0.6), (10.0, 0.5, 0.95),
    (500.0, 0.5, 0.999), (0.5, 800.0, 0.0001), (4.0, 4.0, 0.5),
])
def test_incomplete_beta_matches_reference(a, b, x):
    # The F tail is the regularized incomplete beta:
    # P(F(d1, d2) > f) = I_x(d2/2, d1/2) at x = d2 / (d2 + d1 f).
    f = a * (1.0 - x) / (b * x)
    assert f_sf(f, 2.0 * b, 2.0 * a) == pytest.approx(
        float(scipy.special.betainc(a, b, x)), abs=1e-10
    )


def test_incomplete_beta_bounds():
    # x = 1 and x = 0 of I_x(2, 3), reached through the F tail
    assert f_sf(0.0, 6, 4) == 1.0
    assert f_sf(math.inf, 6, 4) == 0.0


@pytest.mark.parametrize("t", [0.0, 0.3, -1.0, 2.5, 40.0])
def test_t_two_sided_closed_forms(t):
    # df = 1 is the Cauchy distribution; df = 2 has a closed-form CDF too.
    assert t_sf_two_sided(t, 1) == pytest.approx(
        1.0 - (2.0 / math.pi) * math.atan(abs(t)), rel=1e-12, abs=1e-15)
    assert t_sf_two_sided(t, 2) == pytest.approx(
        1.0 - abs(t) / math.sqrt(2.0 + t * t), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("f,d2", [(0.0, 5), (0.5, 3), (2.0, 10), (7.5, 41.5), (30.0, 1)])
def test_f_sf_two_numerator_df_closed_form(f, d2):
    assert f_sf(f, 2, d2) == pytest.approx((1.0 + 2.0 * f / d2) ** (-d2 / 2.0),
                                           rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("t,df", [(0.0, 5), (1.0, 8), (-2.5, 3.7), (4.0, 100), (12.0, 2)])
def test_t_two_sided_matches_reference(t, df):
    ref = 2 * scipy.stats.t.sf(abs(t), df)
    assert t_sf_two_sided(t, df) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("f,d1,d2", [(0.5, 2, 10), (3.2, 1, 30), (10.0, 4, 4)])
def test_f_sf_matches_reference(f, d1, d2):
    assert f_sf(f, d1, d2) == pytest.approx(scipy.stats.f.sf(f, d1, d2), abs=1e-10)


# ---------------------------------------------------------------------------
# Welch's t


def test_welch_identical_samples():
    r = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.t == 0.0
    assert r.p == pytest.approx(1.0)


def test_welch_hand_formula_example():
    # means 3 and 4, both variances 2.5 at n=5: t = -1, df = 8
    r = welch_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert r.t == pytest.approx(-1.0, abs=1e-9)
    assert r.df == pytest.approx(8.0, abs=1e-9)
    ref = scipy.stats.ttest_ind([1, 2, 3, 4, 5], [2, 3, 4, 5, 6], equal_var=False)
    assert r.p == pytest.approx(ref.pvalue, abs=1e-12)


def test_welch_large_separation():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.1, size=100)
    b = rng.normal(1.0, 0.1, size=100)
    r = welch_t(a, b)
    assert r.p < 1e-10


def test_welch_antisymmetry():
    rng = np.random.default_rng(1)
    a = list(rng.normal(0, 1, 20))
    b = list(rng.normal(0.5, 2, 35))
    r1 = welch_t(a, b)
    r2 = welch_t(b, a)
    assert r1.t == pytest.approx(-r2.t, abs=1e-12)
    assert r1.df == pytest.approx(r2.df, abs=1e-12)
    assert r1.p == pytest.approx(r2.p, abs=1e-12)


def test_welch_degenerate_zero_variance_equal_means():
    r = welch_t([2.0, 2.0, 2.0], [2.0, 2.0])
    assert r.t == 0.0
    assert r.df == 3.0
    assert r.p == 1.0


def test_welch_degenerate_zero_variance_unequal_means():
    r = welch_t([2.0, 2.0], [3.0, 3.0])
    assert math.isinf(r.t)
    assert r.p == 0.0


def test_welch_small_sample_guard():
    with pytest.raises(DomainError):
        welch_t([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# studentized range CDF


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _range_cdf(w: float, k: int) -> float:
    """CDF of the range of k iid standard normals, by adaptive quadrature."""
    if w <= 0.0:
        return 0.0

    def integrand(z: float) -> float:
        return _phi(z) * (_Phi(z) - _Phi(z - w)) ** (k - 1)

    value, abserr = scipy.integrate.quad(integrand, -10.0, 10.0, epsabs=1e-12, epsrel=1e-10,
                                         limit=200)
    if abserr > 1e-8:
        raise NumericalError(f"inner range integral error {abserr:.2e} at w={w}, k={k}")
    return min(1.0, k * value)


def reference_studentized_range_cdf(q: float, k: int, df: float) -> float:
    """P(Q <= q) by nested adaptive quadrature: the independent oracle.

    The outer integral runs over the distribution of s = sqrt(chi2_df / df).
    """
    if q == 0.0:
        return 0.0
    # log-density of s, with the normalization constant in logs so large df
    # cannot overflow: f(s) = 2 (df/2)^(df/2) / Gamma(df/2) s^(df-1) e^(-df s^2/2).
    # Above df/2 = 5e4, x ln x and lgamma(x) (x = df/2) cancel with a loss of
    # about 1e-9 at df = 1e7, so Stirling's series for lgamma(x) is substituted
    # and the x ln x terms are cancelled by hand.
    half = df / 2.0
    if half <= 5e4:
        ln_const = math.log(2.0) + half * math.log(half) - math.lgamma(half)
    else:
        series = 1.0 / (12.0 * half) - 1.0 / (360.0 * half**3) + 1.0 / (1260.0 * half**5)
        ln_const = math.log(2.0) + 0.5 * math.log(half / (2.0 * math.pi)) + half - series

    def outer(s: float) -> float:
        if s <= 0.0:
            return 0.0
        ln_f = ln_const + (df - 1.0) * math.log(s) - half * s * s
        if ln_f < -745.0:
            return 0.0
        return math.exp(ln_f) * _range_cdf(q * s, k)

    sigma = 1.0 / math.sqrt(2.0 * df)
    lo = max(1e-12, 1.0 - 40.0 * sigma)
    hi = 1.0 + 40.0 * sigma
    value, abserr = scipy.integrate.quad(outer, lo, hi, epsabs=1e-10, epsrel=1e-9, limit=300)
    if abserr > 1e-6:
        raise NumericalError(
            f"studentized range quadrature error {abserr:.2e} at q={q}, k={k}, df={df}"
        )
    return min(1.0, max(0.0, value))


ORACLE_FILE = Path(__file__).parent / "fixtures" / "studentized_range_oracle.json"
ORACLE_DFS = [1, 2, 3.7, 10, 57.3, 1e3, 1e5, 1e7]
ORACLE_POINTS = [(k, q) for k in (2, 3, 4, 6, 10) for q in (0.05, 0.5, 1, 2, 3.3, 5, 8, 15)]


def oracle_values(df: float) -> list[list]:
    """[k, q, P(Q <= q)] at every oracle point for `df`, by the adaptive quadrature."""
    return [[k, q, reference_studentized_range_cdf(q, k, df)] for k, q in ORACLE_POINTS]


def _cached_oracle(df: float) -> list[list]:
    """`oracle_values(df)` as `ORACLE_FILE` holds them (`python tests/test_stats.py`
    writes the file again)."""
    return json.loads(ORACLE_FILE.read_text(encoding="utf-8"))[repr(df)]


@pytest.mark.parametrize("df", ORACLE_DFS)
def test_studentized_range_matches_adaptive_quadrature(df):
    # against the quadrature's values, cached; the slow test below recomputes them
    tolerance = 1e-9 if df >= 2 else 1e-7
    cached = _cached_oracle(df)
    assert [(k, q) for k, q, _ in cached] == ORACLE_POINTS
    for k, q, ref in cached:
        assert studentized_range_cdf(q, k, df) == pytest.approx(ref, abs=tolerance), (q, k)


@pytest.mark.slow
@pytest.mark.parametrize("df", ORACLE_DFS)
def test_the_cached_oracle_values_are_the_quadratures(df):
    cached = _cached_oracle(df)
    computed = oracle_values(df)
    assert [point[:2] for point in cached] == [point[:2] for point in computed]
    assert [value for _, _, value in cached] == pytest.approx(
        [value for _, _, value in computed], abs=1e-12)


def test_studentized_range_raises_when_rules_disagree(monkeypatch):
    monkeypatch.setattr(termbench.stats, "_CHECK_RULE", ((1, 2), (1, 2)))
    with pytest.raises(NumericalError, match="studentized range quadrature error"):
        studentized_range_cdf(3.0, 3, 10)


def test_studentized_range_zero():
    assert studentized_range_cdf(0.0, 3, 10) == 0.0


def test_studentized_range_published_quantile():
    # 95th percentile for k=3 at large df is 3.314 (classic tables)
    assert studentized_range_cdf(3.304, 3, 10_000) < 0.95
    assert studentized_range_cdf(3.324, 3, 10_000) > 0.95


def test_studentized_range_normal_identity_at_k2():
    # k=2, huge df: P(Q <= q) -> 2*Phi(q/sqrt(2)) - 1
    q = 1.96 * math.sqrt(2.0)
    value = studentized_range_cdf(q, 2, 10_000)
    assert value == pytest.approx(0.95, abs=2e-4)
    ref = 2 * scipy.stats.norm.cdf(q / math.sqrt(2)) - 1
    assert value == pytest.approx(ref, abs=2e-4)


@pytest.mark.parametrize("df", [1e8, 1e10])
def test_studentized_range_k2_limit_at_huge_df(df):
    # |Z1 - Z2| / s with s -> 1: P(Q <= 4) -> erf(2), with a gap of O(1/df)
    assert studentized_range_cdf(4.0, 2, df) == pytest.approx(math.erf(2.0), abs=1e-9)


@pytest.mark.parametrize("q,k,df", [(2.0, 3, 10), (3.5, 4, 25), (1.0, 2, 5), (5.0, 5, 60)])
def test_studentized_range_matches_reference(q, k, df):
    ref = scipy.stats.studentized_range.cdf(q, k, df)
    assert studentized_range_cdf(q, k, df) == pytest.approx(ref, abs=1e-5)


def test_studentized_range_monotone_in_q_and_k():
    values = [studentized_range_cdf(q, 3, 50) for q in (0.5, 1.0, 2.0, 3.0, 4.0)]
    assert values == sorted(values)
    by_k = [studentized_range_cdf(3.0, k, 50) for k in (2, 3, 4, 6)]
    assert by_k == sorted(by_k, reverse=True)


# ---------------------------------------------------------------------------
# two-way ANOVA


def effect(table, name):
    """The ANOVA table's row for effect `name`."""
    [row] = [e for e in table.effects if e.name == name]
    return row


def _balanced_observations(seed, n_per_cell=20, a_effects=None, b_effects=None,
                           interaction=None, sd=1.0):
    a_effects = a_effects or {"HPO": -1.0, "GO": 0.0, "GENE": 1.0}
    b_effects = b_effects or {0: -0.5, 1: 0.5}
    rng = np.random.default_rng(seed)
    obs = []
    for a, ae in a_effects.items():
        for b, be in b_effects.items():
            inter = (interaction or {}).get((a, b), 0.0)
            for _ in range(n_per_cell):
                obs.append(Observation(a, b, 10 + ae + be + inter + rng.normal(0, sd)))
    return obs


def _closed_form_ss(obs):
    values = np.array([o.value for o in obs])
    gm = values.mean()
    ss = {}
    for attr, name in (("terminology", "A"), ("correctness", "B")):
        total = 0.0
        for level in sorted({getattr(o, attr) for o in obs}, key=str):
            group = np.array([o.value for o in obs if getattr(o, attr) == level])
            total += group.size * (group.mean() - gm) ** 2
        ss[name] = total
    return ss


def test_anova_balanced_matches_closed_form():
    for seed in (0, 1, 2):
        obs = _balanced_observations(seed)
        table = two_way_anova(obs)
        ref = _closed_form_ss(obs)
        assert effect(table, "A").ss == pytest.approx(ref["A"], rel=1e-9)
        assert effect(table, "B").ss == pytest.approx(ref["B"], rel=1e-9)


def test_anova_null_interaction_mostly_insignificant():
    insignificant = 0
    for seed in range(100):
        obs = _balanced_observations(seed, n_per_cell=10)
        table = two_way_anova(obs)
        if effect(table, "A×B").p > 0.05:
            insignificant += 1
    assert insignificant >= 90


def test_anova_detects_real_effects():
    obs = _balanced_observations(3, n_per_cell=30)
    table = two_way_anova(obs)
    assert effect(table, "A").p < 1e-6
    assert effect(table, "B").p < 1e-6


def test_anova_matches_least_squares_oracle_unbalanced():
    # direct Type II computation from explicit design matrices
    rng = np.random.default_rng(9)
    obs = []
    sizes = {("HPO", 0): 141, ("HPO", 1): 59, ("GO", 0): 30, ("GO", 1): 80,
             ("GENE", 0): 12, ("GENE", 1): 44}
    for (a, b), n in sizes.items():
        for _ in range(n):
            obs.append(Observation(a, b, rng.normal({"HPO": 0, "GO": 1, "GENE": 2}[a]
                                                    + 0.3 * b, 1.0)))
    table = two_way_anova(obs)

    y = np.array([o.value for o in obs])
    a_lv = sorted({o.terminology for o in obs})
    b_lv = sorted({o.correctness for o in obs})
    Xa = np.column_stack([[1.0 * (o.terminology == lv) for o in obs] for lv in a_lv[1:]])
    Xb = np.column_stack([[1.0 * (o.correctness == lv) for o in obs] for lv in b_lv[1:]])
    one = np.ones((len(obs), 1))

    def rss(X):
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        r = y - X @ beta
        return float(r @ r)

    ss_a = rss(np.hstack([one, Xb])) - rss(np.hstack([one, Xa, Xb]))
    ss_b = rss(np.hstack([one, Xa])) - rss(np.hstack([one, Xa, Xb]))
    assert effect(table, "A").ss == pytest.approx(ss_a, rel=1e-9)
    assert effect(table, "B").ss == pytest.approx(ss_b, rel=1e-9)


def test_anova_all_identical_degenerate():
    obs = [Observation("HPO", b, 3.25) for b in (0, 1) for _ in range(5)]
    obs += [Observation("GO", b, 3.25) for b in (0, 1) for _ in range(5)]
    table = two_way_anova(obs)
    assert any("all observations identical" in w for w in table.warnings)
    for name in ("A", "B", "A×B"):
        e = effect(table, name)
        assert e.ss == pytest.approx(0.0, abs=1e-10)
        assert e.f == 0.0
        assert e.p == 1.0


def test_anova_empty_cell_drops_interaction_with_warning():
    # one factor-A level with no correct observations at all
    rng = np.random.default_rng(5)
    obs = []
    for _ in range(200):
        obs.append(Observation("HPO", 0, rng.normal(0, 1)))
    for b, n in ((0, 147), (1, 53)):
        for _ in range(n):
            obs.append(Observation("GO", b, rng.normal(1, 1)))
    for b, n in ((0, 59), (1, 141)):
        for _ in range(n):
            obs.append(Observation("GENE", b, rng.normal(2, 1)))
    table = two_way_anova(obs)
    assert any("empty cells" in w for w in table.warnings)
    assert all(e.name != "A×B" for e in table.effects)
    assert effect(table, "A").p < 1e-6


def test_anova_residual_df_is_n_minus_fitted_cells():
    obs = _balanced_observations(0, n_per_cell=5)
    table = two_way_anova(obs)
    assert effect(table, "Residual").df == len(obs) - 6


def test_anova_ss_non_negative():
    for seed in range(10):
        obs = _balanced_observations(seed, n_per_cell=4)
        table = two_way_anova(obs)
        assert all(e.ss >= -1e-10 for e in table.effects)


def test_anova_p_decreases_with_effect_size():
    ps = []
    for scale in (0.0, 0.5, 1.0, 2.0, 4.0):
        obs = _balanced_observations(
            7, n_per_cell=10,
            a_effects={"HPO": -scale, "GO": 0.0, "GENE": scale},
        )
        ps.append(effect(two_way_anova(obs), "A").p)
    assert all(ps[i] >= ps[i + 1] - 1e-12 for i in range(len(ps) - 1))


def test_anova_needs_multiple_cells():
    obs = [Observation("HPO", 0, float(i)) for i in range(5)]
    with pytest.raises(DomainError):
        two_way_anova(obs)


# ---------------------------------------------------------------------------
# Games-Howell


def test_games_howell_identical_groups():
    groups = [(g, [1.0, 2.0, 3.0, 4.0]) for g in ("a", "b", "c")]
    result = games_howell(groups)
    assert len(result) == 3
    for row in result:
        assert row.p_adj == pytest.approx(1.0, abs=1e-9)


def test_games_howell_k2_equals_welch():
    rng = np.random.default_rng(17)
    a = list(rng.normal(0, 1, 40))
    b = list(rng.normal(0.4, 2, 25))
    gh = games_howell([("a", a), ("b", b)])[0]
    w = welch_t(a, b)
    assert gh.df == pytest.approx(w.df, abs=1e-12)
    assert gh.p_adj == pytest.approx(w.p, abs=1e-6)


def test_games_howell_separated_groups_all_significant():
    rng = np.random.default_rng(8)
    groups = [
        ("low", list(rng.normal(0, 1, 50))),
        ("mid", list(rng.normal(5, 1, 50))),
        ("high", list(rng.normal(10, 1, 50))),
    ]
    result = games_howell(groups)
    assert len(result) == 3
    for row in result:
        assert row.p_adj < 0.001


def games_howell_row(result, group_i, group_j):
    """The row comparing two groups, whichever order the result lists them in."""
    [row] = [r for r in result if {r.group_i, r.group_j} == {group_i, group_j}]
    return row


def test_games_howell_label_permutation_invariance():
    rng = np.random.default_rng(23)
    data = {
        "a": list(rng.normal(0, 1, 30)),
        "b": list(rng.normal(1, 2, 20)),
        "c": list(rng.normal(2, 0.5, 25)),
    }
    r1 = games_howell(sorted(data.items()))
    r2 = games_howell(sorted(data.items(), reverse=True))
    for row in r1:
        other = games_howell_row(r2, row.group_i, row.group_j)
        assert abs(other.mean_diff) == pytest.approx(abs(row.mean_diff), abs=1e-12)
        assert other.p_adj == pytest.approx(row.p_adj, abs=1e-9)
        assert other.df == pytest.approx(row.df, abs=1e-9)


def test_games_howell_matches_reference_oracle():
    rng = np.random.default_rng(31)
    groups = [
        ("g1", list(rng.normal(0.0, 1.0, 24))),
        ("g2", list(rng.normal(0.6, 1.8, 31))),
        ("g3", list(rng.normal(1.1, 0.7, 18))),
    ]
    result = games_howell(groups)
    for row in result:
        a = np.array(dict(groups)[row.group_i])
        b = np.array(dict(groups)[row.group_j])
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        q = abs(a.mean() - b.mean()) * math.sqrt(2) / se
        df = (a.var(ddof=1) / a.size + b.var(ddof=1) / b.size) ** 2 / (
            (a.var(ddof=1) / a.size) ** 2 / (a.size - 1)
            + (b.var(ddof=1) / b.size) ** 2 / (b.size - 1)
        )
        ref_p = float(scipy.stats.studentized_range.sf(q, 3, df))
        assert row.p_adj == pytest.approx(ref_p, abs=1e-5)


def test_games_howell_group_size_guard():
    with pytest.raises(DomainError):
        games_howell([("a", [1.0]), ("b", [1.0, 2.0])])


def test_games_howell_needs_two_groups():
    with pytest.raises(DomainError):
        games_howell([("a", [1.0, 2.0])])


# ---------------------------------------------------------------------------
# observation CSV round trip


def read_observations_csv(stream) -> list[Observation]:
    """Read back what `write_observations_csv` wrote."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != OBSERVATION_CSV_COLUMNS:
        raise ParseError(f"unexpected observation CSV header: {header}", 1)
    out = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", lineno)
        correctness = int(row[1])
        if correctness not in (0, 1):
            raise ValidationError(f"line {lineno}: correctness must be 0 or 1")
        out.append(Observation(row[0], correctness, float(row[2])))
    return out


def test_observation_csv_round_trip():
    import io as _io

    from termbench.stats import write_observations_csv

    obs = [Observation("HPO", 0, 1.25), Observation("GENE", 1, 4.5)]
    buf = _io.StringIO()
    write_observations_csv(obs, buf)
    back = read_observations_csv(_io.StringIO(buf.getvalue()))
    assert back == obs


def test_observation_csv_rejects_bad_correctness():
    import io as _io

    with pytest.raises(ValidationError):
        read_observations_csv(_io.StringIO("terminology,correctness,value\nHPO,2,1.0\n"))


if __name__ == "__main__":  # write the cached oracle values again, one df a line
    ORACLE_FILE.write_text("{\n" + ",\n".join(
        f"{json.dumps(repr(df))}: {json.dumps(oracle_values(df))}" for df in ORACLE_DFS)
        + "\n}\n", encoding="utf-8")
