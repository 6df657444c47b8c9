"""Ranking and Spearman correlation, including tie handling."""

import csv
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _spearman import (
    HUGE_RANKS,
    SUBNORMAL_RANKS,
    hard_pairs,
    hard_tables,
    is_nearest_mean,
    is_nearest_rho,
    spearman_closed_form,
)
from odl import (
    AnalysisError,
    correlation_matrix,
    mean_scores,
    rank_solutions,
    read_ranks_csv,
    read_scores_csv,
    spearman,
    write_matrix_csv,
    write_ranks_csv,
    write_scores_csv,
)
from odl.cli import main


def test_mean_scores_examples():
    assert mean_scores({"A": [10.0]}) == {"A": 10.0}
    assert mean_scores({"A": [1.0, 2.0, 3.0]}) == {"A": 2.0}
    assert mean_scores({"A": [-1.0, -1.0], "B": [0.0, 2.0]}) == {"A": -1.0, "B": 1.0}
    with pytest.raises(AnalysisError):
        mean_scores({})
    with pytest.raises(AnalysisError):
        mean_scores({"A": []})


def test_rank_solutions_examples():
    assert rank_solutions({"A": 10.0, "B": 5.0, "C": 7.0}) == {"A": 0.0, "C": 1.0, "B": 2.0}
    assert rank_solutions({"A": 5.0, "B": 5.0}) == {"A": 0.5, "B": 0.5}
    assert rank_solutions({c: 1.0 for c in "wxyz"}) == {c: 1.5 for c in "wxyz"}


def test_rank_solutions_rejects_non_finite_scores():
    # NaN compares unequal to itself, which once kept the tie loop from ending.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(AnalysisError, match=r"solution 's1' has non-finite score"):
            rank_solutions({"s1": bad, "s2": 1.0})


def test_nothing_to_rank_or_correlate_is_an_analysis_error():
    with pytest.raises(AnalysisError, match="^no solutions to rank$"):
        rank_solutions({})
    with pytest.raises(AnalysisError, match="^no score tables given$"):
        correlation_matrix([])


def test_mean_of_huge_scores_is_correctly_rounded():
    # Their float sum overflows; their mean does not.
    assert mean_scores({"A": [1e308, 1e308]}) == {"A": 1e308}
    assert mean_scores({"A": [1.7e308, 1.7e308, -1.7e308]}) == {"A": 1.7e308 / 3}
    assert mean_scores({"A": [5e-324, 5e-324, 5e-324]}) == {"A": 5e-324}


def test_mean_scores_rejects_non_finite_scores():
    # inf and -inf once made fsum raise a ValueError, a traceback in `odl rank`.
    for scores in ([math.inf, -math.inf], [1.0, math.nan], [-math.inf]):
        with pytest.raises(AnalysisError, match=r"^solution 'A' has non-finite score"):
            mean_scores({"A": scores})


def test_means_and_coefficients_are_correctly_rounded():
    """Every mean is the float nearest the exact mean, and every coefficient
    the float nearest the exact Pearson coefficient, both computed with
    Fraction (`_spearman.is_nearest`)."""
    rng = random.Random(90210)

    def score():
        return rng.choice((
            float(rng.randint(-5, 5)), rng.uniform(-100, 100), rng.gauss(0, 1e12),
            rng.uniform(-1e307, 1e307), rng.choice((-1.7e308, 1.7e308)), rng.uniform(-1e-300, 1e-300),
        ))

    correlations = 0
    for _ in range(400):
        ids = [f"s{k}" for k in range(rng.randint(2, 12))]
        tables = [{s: [score() for _ in range(rng.randint(1, 6))] for s in ids} for _ in range(2)]
        means = [mean_scores(table) for table in tables]
        for table, ms in zip(tables, means):
            for s in ids:
                assert is_nearest_mean(ms[s], table[s]), table[s]
        # Rank vectors, and plain floats as ranks, which spearman also takes.
        floats = [{s: rng.choice((rng.uniform(-1e3, 1e3), 0.5)) for s in ids} for _ in range(2)]
        for a, b in ((rank_solutions(means[0]), rank_solutions(means[1])), floats):
            if len(set(a.values())) > 1 and len(set(b.values())) > 1:
                correlations += 1
                assert is_nearest_rho(spearman(a, b), a, b), (a, b)
    assert correlations > 300


def test_means_and_coefficients_of_hard_vectors_are_correctly_rounded():
    # Ties, subnormals and magnitudes near the float limit.
    for scores in hard_tables(1, 1000):
        assert is_nearest_mean(mean_scores({"A": scores})["A"], scores), scores
    for a, b in hard_pairs(2, 600):
        rho = spearman(a, b)
        assert is_nearest_rho(rho, a, b), (a, b)
        assert spearman(b, a) == rho


def test_spearman_examples():
    a = {"A": 0.0, "B": 1.0, "C": 2.0}
    assert spearman(a, dict(a)) == 1.0
    assert spearman(a, {"A": 2.0, "B": 1.0, "C": 0.0}) == -1.0
    x = {"s0": 0.0, "s1": 1.0, "s2": 2.0, "s3": 3.0}
    y = {"s0": 0.0, "s1": 2.0, "s2": 1.0, "s3": 3.0}
    assert spearman(x, y) == 0.8


def test_spearman_errors():
    with pytest.raises(AnalysisError, match="different solution ids"):
        spearman({"A": 0.0, "B": 1.0}, {"A": 0.0, "C": 1.0})
    with pytest.raises(AnalysisError, match="at least two"):
        spearman({"A": 0.0}, {"A": 0.0})
    with pytest.raises(AnalysisError, match="zero variance"):
        spearman({"A": 1.5, "B": 1.5}, {"A": 0.0, "B": 1.0})


def test_spearman_rejects_non_finite_ranks():
    # NaN once made the variance check pass and the result read 1.0.
    good = {"a": 0.0, "b": 1.0, "c": 2.0}
    for bad in (math.nan, math.inf, -math.inf):
        ranks = {"a": bad, "b": 1.0, "c": 2.0}
        for pair in ((ranks, good), (good, ranks)):
            with pytest.raises(AnalysisError, match=r"solution 'a' has non-finite rank"):
                spearman(*pair)


@pytest.mark.parametrize("big", HUGE_RANKS)
def test_spearman_of_huge_finite_ranks_is_correctly_rounded(big):
    # Their float arithmetic overflows (see HUGE_RANKS).
    good = {"a": 0.0, "b": 1.0, "c": 2.0}
    assert is_nearest_rho(spearman(big, good), big, good)
    assert spearman(good, big) == spearman(big, good)


def test_spearman_of_distinct_subnormal_ranks():
    # Their float deviations and squares vanish, which once read as zero variance.
    good = {"a": 0.0, "b": 1.0, "c": 2.0}
    assert spearman(SUBNORMAL_RANKS, good) == -0.8658113325434346
    assert is_nearest_rho(spearman(SUBNORMAL_RANKS, good), SUBNORMAL_RANKS, good)


def test_spearman_reversal_exact_with_ties():
    ranks = rank_solutions({"A": 3.0, "B": 2.0, "C": 2.0, "D": 1.0})
    reversed_ranks = {k: 3.0 - v for k, v in ranks.items()}
    assert spearman(ranks, reversed_ranks) == -1.0


def test_correlation_matrix():
    assert correlation_matrix([{"A": [1.0], "B": [0.0]}]) == [[1.0]]
    t1 = {"A": [3.0], "B": [2.0], "C": [1.0]}
    t2 = {"A": [30.0], "B": [20.0], "C": [10.0]}
    assert correlation_matrix([t1, t2]) == [[1.0, 1.0], [1.0, 1.0]]
    t3 = {"A": [1.0], "B": [2.0], "C": [3.0]}
    m = correlation_matrix([t1, t2, t3])
    assert m[0][2] == -1.0
    for i in range(3):
        assert m[i][i] == 1.0
        for j in range(3):
            assert m[i][j] == m[j][i]
            assert -1.0 <= m[i][j] <= 1.0
    with pytest.raises(AnalysisError, match="different solution ids"):
        correlation_matrix([t1, {"A": [1.0]}])


def test_scores_csv_round_trip():
    rows = [("s1", "t1", -2.0), ("s1", "t2", 0.125), ("s2", "t1", 1e-9)]
    text = write_scores_csv(rows)
    assert text.splitlines()[0] == "solution,trace,score"
    table = read_scores_csv(text)
    assert table == {"s1": [-2.0, 0.125], "s2": [1e-9]}
    with pytest.raises(AnalysisError, match="header"):
        read_scores_csv("nope\n")
    with pytest.raises(AnalysisError, match="bad score"):
        read_scores_csv("solution,trace,score\na,b,xyz\n")
    for bad in ("nan", "inf", "-Infinity"):
        with pytest.raises(AnalysisError, match=f"scores row 3: non-finite score '{bad}'"):
            read_scores_csv(f"solution,trace,score\na,b,1.0\na,c,{bad}\n")
    # What the reader refuses, the writer does not write.
    with pytest.raises(AnalysisError, match=r"^row 3: non-finite number nan$"):
        write_scores_csv([("a", "b", 1.0), ("a", "c", math.nan)])


def test_ranks_csv_round_trip():
    ranks = {"best": 0.0, "mid": 1.5, "tied": 1.5}
    text = write_ranks_csv(ranks)
    assert read_ranks_csv(text) == ranks
    assert text.splitlines()[1].startswith("best,")
    with pytest.raises(AnalysisError, match="duplicate solution"):
        read_ranks_csv("solution,rank\na,0.0\na,1.0\n")
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(AnalysisError, match=f"ranks row 2: non-finite rank '{bad}'"):
            read_ranks_csv(f"solution,rank\na,{bad}\nb,1.0\n")


def test_matrix_csv_layout():
    text = write_matrix_csv(["od1", "od2"], [[1.0, 0.5], [0.5, 1.0]])
    lines = text.splitlines()
    assert lines[0] == "od,od1,od2"
    assert lines[1] == "od1,1.0,0.5"
    assert lines[2] == "od2,0.5,1.0"


_scores = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.floats(min_value=-1e6, max_value=1e6),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(_scores)
def test_rank_sum_invariant(scores):
    ranks = rank_solutions(scores)
    n = len(scores)
    assert sum(ranks.values()) == pytest.approx(n * (n - 1) / 2)


# Integer-valued scores keep atan strictly increasing in floating point
# (adjacent values stay distinguishable); denormal-scale gaps would collapse.
_int_scores = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.integers(-10**6, 10**6).map(float),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(_int_scores)
def test_monotone_transform_invariance(scores):
    ranks = rank_solutions(scores)
    squeezed = rank_solutions({k: math.atan(v) * 2.0 + 7.0 for k, v in scores.items()})
    assert squeezed == ranks
    doubled = rank_solutions({k: v * 8.0 for k, v in scores.items()})
    assert doubled == ranks


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 50), st.integers(0, 10**9))
def test_closed_form_agrees_on_tie_free_vectors(n, seed):
    rng = random.Random(seed)
    ids = [f"s{i}" for i in range(n)]
    xs = list(range(n))
    ys = list(range(n))
    rng.shuffle(xs)
    rng.shuffle(ys)
    a = {ids[i]: float(xs[i]) for i in range(n)}
    b = {ids[i]: float(ys[i]) for i in range(n)}
    if all(xs[i] == ys[i] for i in range(n)):
        assert spearman(a, b) == 1.0
    assert spearman(a, b) == spearman_closed_form(a, b)
    assert spearman(a, b) == spearman(b, a)


# Files with two or more faults: rows are checked one at a time, so the
# first bad row is reported, and within a row the checks run in a fixed
# order (width, duplicate solution, number, finiteness).
MULTI_FAULT_SCORES = {
    "bad_score_then_wrong_width": (
        "solution,trace,score\na,b,xyz\na,c\n",
        "scores row 2: bad score 'xyz'",
    ),
    "wrong_width_then_bad_score": (
        "solution,trace,score\na,b,1.0,extra\na,c,xyz\n",
        "scores row 2: expected 3 columns",
    ),
    "non_finite_then_bad_score": (
        "solution,trace,score\na,b,1.0\na,c,nan\nb,c,xyz\n",
        "scores row 3: non-finite score 'nan'",
    ),
    "bad_header_and_bad_row": ("solution,score\na,xyz\n", "scores file must start with header 'solution,trace,score'"),
    "empty": ("", "scores file must start with header 'solution,trace,score'"),
    "header_only": ("solution,trace,score\n", "scores file has no rows"),
    "oversized_field_then_bad_score": (
        "solution,trace,score\n" + "s" * 200_000 + ",b,1.0\na,c,xyz\n",
        f"scores row 2: field larger than field limit ({csv.field_size_limit()})",
    ),
}

MULTI_FAULT_RANKS = {
    "bad_rank_then_non_finite": (
        "solution,rank\na,low\nb,inf\n",
        "ranks row 2: bad rank 'low'",
    ),
    "duplicate_with_a_bad_rank": (
        "solution,rank\na,0.0\na,low\n",
        "ranks row 3: duplicate solution 'a'",
    ),
    "duplicate_with_a_wrong_width": (
        "solution,rank\na,0.0\na,1.0,extra\n",
        "ranks row 3: expected 2 columns",
    ),
    "wrong_width_then_duplicate": (
        "solution,rank\na\na,0.0\na,1.0\n",
        "ranks row 2: expected 2 columns",
    ),
    "bad_header_and_bad_row": ("solution,trace,rank\na,b,x\n", "ranks file must start with header 'solution,rank'"),
    "header_only": ("solution,rank\n", "ranks file has no rows"),
    "oversized_field_then_bad_rank": (
        "solution,rank\n" + "s" * 200_000 + ",0.0\na,low\n",
        f"ranks row 2: field larger than field limit ({csv.field_size_limit()})",
    ),
}


@pytest.mark.parametrize("case", sorted(MULTI_FAULT_SCORES))
def test_multi_fault_scores_files_report_the_first_fault(case, tmp_path, capsys):
    text, message = MULTI_FAULT_SCORES[case]
    with pytest.raises(AnalysisError) as raised:
        read_scores_csv(text)
    assert str(raised.value) == message
    path = tmp_path / "scores.csv"
    path.write_text(text)
    assert main(["rank", "--scores", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("case", sorted(MULTI_FAULT_RANKS))
def test_multi_fault_ranks_files_report_the_first_fault(case, tmp_path, capsys):
    text, message = MULTI_FAULT_RANKS[case]
    with pytest.raises(AnalysisError) as raised:
        read_ranks_csv(text)
    assert str(raised.value) == message
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(write_ranks_csv({"a": 0.0, "b": 1.0}))
    bad.write_text(text)
    assert main(["compare", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {message}\n"
    assert captured.out == ""
