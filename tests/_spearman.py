"""The tie-free closed form of Spearman's rho, an independent oracle for
`odl.spearman` in the tests."""

from odl import AnalysisError


def spearman_closed_form(a: dict[str, float], b: dict[str, float]) -> float:
    """1 - 6*sum(d^2)/(n(n^2-1)), exact for rank vectors without ties."""
    if set(a) != set(b):
        raise AnalysisError("rank vectors cover different solution ids")
    n = len(a)
    if n < 2:
        raise AnalysisError("need at least two solutions to correlate")
    d2 = sum((a[i] - b[i]) ** 2 for i in a)
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))
