"""Corpus-level score tables, rankings, and Spearman rank correlation.

Higher score means better and gets the numerically smaller rank; the best
rank is 0. Ties receive the average of the ranks they span, and correlation
is tie-correct Pearson computed on the rank vectors. Means and coefficients
are computed exactly, on integers, and rounded once to the nearest float.
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


def _integers(pairs: Iterable[tuple[str, float]], kind: str) -> tuple[list[int], int]:
    """Each value of (solution, value) pairs times their common denominator,
    an exact integer, and that denominator. A NaN or infinity is an error."""
    ratios = []
    for solution, value in pairs:
        if not math.isfinite(value):
            raise AnalysisError(f"solution '{solution}' has non-finite {kind} {value!r}")
        ratios.append(value.as_integer_ratio())
    scale = math.lcm(*(denominator for _, denominator in ratios))
    return [numerator * (scale // denominator) for numerator, denominator in ratios], scale


def mean_scores(table: ScoreTable) -> dict[str, float]:
    """Arithmetic mean score per solution id, correctly rounded (int / int rounds once)."""
    if not table:
        raise AnalysisError("score table is empty")
    means = {}
    for solution, scores in table.items():
        if not scores:
            raise AnalysisError(f"solution '{solution}' has no scores")
        numerators, scale = _integers(((solution, score) for score in scores), "score")
        means[solution] = sum(numerators) / (scale * len(scores))
    return means


def rank_solutions(scores: Mapping[str, float]) -> dict[str, float]:
    """Assign ranks 0..n-1 (0 best = highest score); tied groups share the
    average of the ranks they span, so ranks always sum to n(n-1)/2."""
    if not scores:
        raise AnalysisError("no solutions to rank")
    _integers(sorted(scores.items()), "score")  # refuses a NaN or an infinity
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
    vectors, the float nearest its exact value. Equals 1 - 6*sum(d^2)/(n(n^2-1))
    when neither vector has ties. A NaN or infinite rank is an AnalysisError,
    not a coefficient, and so is a vector whose ranks are all equal.
    """
    if set(a) != set(b):
        raise AnalysisError("rank vectors cover different solution ids")
    n = len(a)
    if n < 2:
        raise AnalysisError("need at least two solutions to correlate")
    ids = sorted(a)
    # Over each vector's common denominator, which rho ignores: n^2 times the variances and the covariance.
    xs, ys = (_integers(((i, vector[i]) for i in ids), "rank")[0] for vector in (a, b))
    sum_x, sum_y = sum(xs), sum(ys)
    var_x = n * sum(x * x for x in xs) - sum_x * sum_x
    var_y = n * sum(y * y for y in ys) - sum_y * sum_y
    if var_x == 0 or var_y == 0:
        raise AnalysisError("rank vector has zero variance; ranking is meaningless")
    cov = n * sum(x * y for x, y in zip(xs, ys)) - sum_x * sum_y
    # q = floor(|rho| * 2^shift) >= 2^55, and a sticky bit below q marks an
    # inexact root, so int / int rounds once, as the exact |rho| would.
    square, product = cov * cov, var_x * var_y
    shift = 56 + (product.bit_length() - square.bit_length()) // 2
    square <<= 2 * shift
    q = math.isqrt(square // product)
    sticky = q * q * product != square
    rho = (2 * q + sticky) / (2 << shift)
    return -rho if cov < 0 else rho


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
