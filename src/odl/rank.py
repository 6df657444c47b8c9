"""Corpus-level score tables, rankings, and Spearman rank correlation.

Higher score means better and gets the numerically smaller rank; the best
rank is 0. Ties receive the average of the ranks they span, and correlation
is tie-correct Pearson computed on the rank vectors.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Iterable, Iterator, Mapping, Sequence

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
            # statistics.fmean, which would import statistics, fractions and
            # decimal into every process.
            means[solution] = math.fsum(scores) / len(scores)
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
    A NaN or infinite rank is an AnalysisError, not a coefficient, and so
    is a mean, variance or covariance of finite ranks that overflows.
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
    overflow = AnalysisError("ranks too large to correlate: their mean, variance or covariance overflows")
    try:
        # fsum and ** raise OverflowError; a difference or a sum turns infinite.
        mean_x = math.fsum(xs) / n
        mean_y = math.fsum(ys) / n
        var_x = sum((x - mean_x) ** 2 for x in xs)
        var_y = sum((y - mean_y) ** 2 for y in ys)
    except OverflowError:
        raise overflow from None
    if var_x == 0.0 or var_y == 0.0:
        raise AnalysisError("rank vector has zero variance; ranking is meaningless")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if not (math.isfinite(var_x) and math.isfinite(var_y) and math.isfinite(cov)):
        raise overflow
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

def _write_csv(header: Sequence[str], rows: Iterable[Sequence], text_columns: int) -> str:
    """The file: the header, then each row with its first `text_columns`
    cells as they are and the rest, numbers, as repr(float(n)). A NaN or
    an infinity, which the readers refuse, is an AnalysisError."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for number, row in enumerate(rows, 2):
        values = [float(n) for n in row[text_columns:]]
        bad = [value for value in values if not math.isfinite(value)]
        if bad:
            raise AnalysisError(f"row {number}: non-finite number {bad[0]!r}")
        writer.writerow([*row[:text_columns], *map(repr, values)])
    return out.getvalue()


def _csv_rows(text: str, kind: str) -> Iterator[tuple[str, list[str]]]:
    """(where, row) for each row of a CSV file, the header being row 1. A
    row the csv module cannot read, such as one with a field longer than
    csv.field_size_limit(), is an AnalysisError that names it."""
    reader = csv.reader(io.StringIO(text))
    for number in itertools.count(1):
        where = f"{kind}s row {number}"
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            raise AnalysisError(f"{where}: {err}") from None
        yield where, row


def _read_csv(text: str, header: list[str], unique: bool = False) -> Iterator[tuple[str, float]]:
    """(solution, number) for each row of a scores or ranks file: the last
    column is the number its header names. Checks the header, then each row
    in turn: that the csv module can read it, its width, if `unique` that
    its solution is new, its number."""
    kind = header[-1]
    rows = _csv_rows(text, kind)
    if next(rows, (None, None))[1] != header:
        raise AnalysisError(f"{kind}s file must start with header '{','.join(header)}'")
    seen: set[str] = set()
    where = None
    for where, row in rows:
        if len(row) != len(header):
            raise AnalysisError(f"{where}: expected {len(header)} columns")
        if unique:
            if row[0] in seen:
                raise AnalysisError(f"{where}: duplicate solution '{row[0]}'")
            seen.add(row[0])
        try:
            number = float(row[-1])
        except ValueError:
            raise AnalysisError(f"{where}: bad {kind} {row[-1]!r}") from None
        if not math.isfinite(number):
            raise AnalysisError(f"{where}: non-finite {kind} {row[-1]!r}")
        yield row[0], number
    if where is None:
        raise AnalysisError(f"{kind}s file has no rows")


def write_scores_csv(rows: Iterable[tuple[str, str, float]]) -> str:
    return _write_csv(["solution", "trace", "score"], rows, text_columns=2)


def read_scores_csv(text: str) -> dict[str, list[float]]:
    table: dict[str, list[float]] = {}
    for solution, score in _read_csv(text, ["solution", "trace", "score"]):
        table.setdefault(solution, []).append(score)
    return table


def write_ranks_csv(ranks: RankVector) -> str:
    ordered = sorted(ranks.items(), key=lambda item: (item[1], item[0]))
    return _write_csv(["solution", "rank"], ordered, text_columns=1)


def read_ranks_csv(text: str) -> dict[str, float]:
    return dict(_read_csv(text, ["solution", "rank"], unique=True))


def write_matrix_csv(names: Sequence[str], matrix: Sequence[Sequence[float]]) -> str:
    return _write_csv(["od", *names], ([name, *row] for name, row in zip(names, matrix)), text_columns=1)
