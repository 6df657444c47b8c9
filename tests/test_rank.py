"""Ranking and Spearman correlation, including tie handling."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odl import (
    AnalysisError,
    correlation_matrix,
    mean_scores,
    rank_solutions,
    read_ranks_csv,
    read_scores_csv,
    spearman,
    spearman_closed_form,
    write_matrix_csv,
    write_ranks_csv,
    write_scores_csv,
)


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


def test_mean_score_overflow_is_an_analysis_error():
    with pytest.raises(AnalysisError, match="solution 'A': mean score overflows"):
        mean_scores({"A": [1e308, 1e308]})


def test_spearman_examples():
    a = {"A": 0.0, "B": 1.0, "C": 2.0}
    assert spearman(a, dict(a)) == 1.0
    assert spearman(a, {"A": 2.0, "B": 1.0, "C": 0.0}) == -1.0
    x = {"s0": 0.0, "s1": 1.0, "s2": 2.0, "s3": 3.0}
    y = {"s0": 0.0, "s1": 2.0, "s2": 1.0, "s3": 3.0}
    assert abs(spearman(x, y) - 0.8) < 1e-12


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
    assert abs(spearman(a, b) - spearman_closed_form(a, b)) < 1e-12
    assert spearman(a, b) == spearman(b, a)
