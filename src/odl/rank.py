"""Corpus-level score tables, rankings, and Spearman rank correlation.

Higher score means better and gets the numerically smaller rank; the best
rank is 0. Ties receive the average of the ranks they span, and correlation
is tie-correct Pearson computed on the rank vectors.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from typing import Iterable, Mapping, Sequence

from .errors import AnalysisError

ScoreTable = Mapping[str, Sequence[float]]
RankVector = Mapping[str, float]


def mean_scores(table: ScoreTable) -> dict[str, float]:
    """Arithmetic mean score per solution id."""
    if not table:
        raise AnalysisError("score table is empty")
    means = {}
    for solution, scores in table.items():
        if not scores:
            raise AnalysisError(f"solution '{solution}' has no scores")
        try:
            means[solution] = statistics.fmean(scores)
        except OverflowError:
            raise AnalysisError(f"solution '{solution}': mean score overflows") from None
    return means


def rank_solutions(scores: Mapping[str, float]) -> dict[str, float]:
    """Assign ranks 0..n-1 (0 best = highest score); tied groups share the
    average of the ranks they span, so ranks always sum to n(n-1)/2."""
    if not scores:
        raise AnalysisError("no solutions to rank")
    for solution, score in sorted(scores.items()):
        if not math.isfinite(score):
            raise AnalysisError(f"solution '{solution}' has non-finite score {score!r}")
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    ranks: dict[str, float] = {}
    i = 0
    n = len(ordered)
    while i < n:
        j = i
        while j < n and ordered[j][1] == ordered[i][1]:
            j += 1
        shared = (i + j - 1) / 2
        for k in range(i, j):
            ranks[ordered[k][0]] = shared
        i = j
    return ranks


def spearman(a: RankVector, b: RankVector) -> float:
    """Tie-correct Spearman coefficient: Pearson correlation of the two rank
    vectors. Equals 1 - 6*sum(d^2)/(n(n^2-1)) when neither vector has ties.
    A NaN or infinite rank is an AnalysisError, not a coefficient.
    """
    if set(a) != set(b):
        raise AnalysisError("rank vectors cover different solution ids")
    n = len(a)
    if n < 2:
        raise AnalysisError("need at least two solutions to correlate")
    ids = sorted(a)
    for vector in (a, b):
        for solution in ids:
            if not math.isfinite(vector[solution]):
                raise AnalysisError(f"solution '{solution}' has non-finite rank {vector[solution]!r}")
    xs = [a[i] for i in ids]
    ys = [b[i] for i in ids]
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        raise AnalysisError("rank vector has zero variance; ranking is meaningless")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    # Ranks are small dyadic rationals, so identical or exactly reversed
    # rankings make cov equal +/-variance exactly; return the exact result
    # rather than rounding through sqrt.
    if var_x == var_y:
        if cov == var_x:
            return 1.0
        if cov == -var_x:
            return -1.0
    rho = cov / (math.sqrt(var_x) * math.sqrt(var_y))
    return max(-1.0, min(1.0, rho))


def spearman_closed_form(a: RankVector, b: RankVector) -> float:
    """Tie-free closed form 1 - 6*sum(d^2)/(n(n^2-1)); test oracle for spearman."""
    if set(a) != set(b):
        raise AnalysisError("rank vectors cover different solution ids")
    n = len(a)
    if n < 2:
        raise AnalysisError("need at least two solutions to correlate")
    d2 = sum((a[i] - b[i]) ** 2 for i in a)
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def correlation_matrix(tables: Sequence[ScoreTable]) -> list[list[float]]:
    """Pairwise Spearman matrix over one score table per oracle definition:
    symmetric, unit diagonal, entries in [-1, 1]."""
    if not tables:
        raise AnalysisError("no score tables given")
    base = set(tables[0])
    for table in tables[1:]:
        if set(table) != base:
            raise AnalysisError("score tables cover different solution ids")
    return spearman_matrix([rank_solutions(mean_scores(table)) for table in tables])


def spearman_matrix(ranks: Sequence[RankVector]) -> list[list[float]]:
    """Pairwise Spearman matrix over rank vectors, one per oracle definition."""
    k = len(ranks)
    matrix = [[1.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rho = spearman(ranks[i], ranks[j])
            matrix[i][j] = rho
            matrix[j][i] = rho
    return matrix


# File formats: scores are `solution,trace,score` rows; ranks are
# `solution,rank` rows; matrices are square tables with oracle names on the
# header row and first column.

def write_scores_csv(rows: Iterable[tuple[str, str, float]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["solution", "trace", "score"])
    for solution, trace_id, score in rows:
        writer.writerow([solution, trace_id, repr(float(score))])
    return out.getvalue()


def read_scores_csv(text: str) -> dict[str, list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["solution", "trace", "score"]:
        raise AnalysisError("scores file must start with header 'solution,trace,score'")
    table: dict[str, list[float]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise AnalysisError(f"scores row {lineno}: expected 3 columns")
        try:
            score = float(row[2])
        except ValueError:
            raise AnalysisError(f"scores row {lineno}: bad score {row[2]!r}") from None
        if not math.isfinite(score):
            raise AnalysisError(f"scores row {lineno}: non-finite score {row[2]!r}")
        table.setdefault(row[0], []).append(score)
    if not table:
        raise AnalysisError("scores file has no rows")
    return table


def write_ranks_csv(ranks: RankVector) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["solution", "rank"])
    for solution, rank in sorted(ranks.items(), key=lambda item: (item[1], item[0])):
        writer.writerow([solution, repr(float(rank))])
    return out.getvalue()


def read_ranks_csv(text: str) -> dict[str, float]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["solution", "rank"]:
        raise AnalysisError("ranks file must start with header 'solution,rank'")
    ranks: dict[str, float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise AnalysisError(f"ranks row {lineno}: expected 2 columns")
        if row[0] in ranks:
            raise AnalysisError(f"ranks row {lineno}: duplicate solution '{row[0]}'")
        try:
            rank = float(row[1])
        except ValueError:
            raise AnalysisError(f"ranks row {lineno}: bad rank {row[1]!r}") from None
        if not math.isfinite(rank):
            raise AnalysisError(f"ranks row {lineno}: non-finite rank {row[1]!r}")
        ranks[row[0]] = rank
    if not ranks:
        raise AnalysisError("ranks file has no rows")
    return ranks


def write_matrix_csv(names: Sequence[str], matrix: Sequence[Sequence[float]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["od", *names])
    for name, row in zip(names, matrix):
        writer.writerow([name, *[repr(float(value)) for value in row]])
    return out.getvalue()
