"""Output checks of the benchmark workloads.

Every check counts once in `attempted`; a failed check or an exception
raised by a timed call counts once in `failed`.  The statistical checks
are set so that a correct program fails a whole run with probability
below 1e-4 (see README.md for the budget).
"""

from __future__ import annotations

import numpy as np
from scipy import stats

# False-alarm level of each histogram test.  The ensemble workload runs
# 12 of them per round and at most 5 rounds in a 25 s run, so a correct
# program fails a run by chance with probability below 6e-6.  The paths
# workload's 6-sigma LLN bands (24 per round) add about 3e-7.
FAMILY_ALPHA = 1e-7
CHI2_MIN_EXPECTED = 5.0


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def within(self, name: str, error: float, tolerance: float) -> None:
        """An exact comparison: `error` is a measured distance."""
        self.expect(name, error <= tolerance, f"error {error:.3e} > {tolerance:.3e}")


def multinomial_fit(checks: Checks, name: str, histogram: np.ndarray, law) -> None:
    """Two checks of a replica histogram against a reference law.

    Bands: each bin's count lies inside its exact two-sided binomial band
    at level FAMILY_ALPHA / (number of bins), a Bonferroni family.  This
    holds bins with tiny expected counts to the right tail, where normal
    sigma bands are far too tight.
    Chi-square: bins expected at CHI2_MIN_EXPECTED or more stand alone,
    the rest (with the law's mass beyond the histogram) pool into one
    cell, and the fit needs p > FAMILY_ALPHA.
    """
    n = int(histogram.sum())
    probs = np.array([law.prob(k) for k in range(len(histogram))])
    lower = stats.binom.cdf(histogram, n, probs)
    upper = stats.binom.sf(histogram - 1, n, probs)
    tail = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
    worst = int(np.argmin(tail))
    checks.expect(
        f"{name} binomial bands",
        tail[worst] >= FAMILY_ALPHA / len(histogram),
        f"bin {worst}: {histogram[worst]} observed, {probs[worst] * n:.1f} expected,"
        f" two-sided tail {tail[worst]:.2e}",
    )

    keep = probs * n >= CHI2_MIN_EXPECTED
    observed = np.append(histogram[keep], histogram[~keep].sum()).astype(float)
    cell_probs = np.append(probs[keep], max(1.0 - probs[keep].sum(), 0.0))
    if cell_probs[-1] * n < CHI2_MIN_EXPECTED:
        # too small to stand alone: fold the pooled cell into the rarest kept bin
        rarest = int(np.argmin(cell_probs[:-1]))
        observed[rarest] += observed[-1]
        cell_probs[rarest] += cell_probs[-1]
        observed, cell_probs = observed[:-1], cell_probs[:-1]
    expected = cell_probs * n
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    pvalue = float(stats.chi2.sf(chi2, df=len(observed) - 1))
    checks.expect(
        f"{name} chi-square",
        pvalue > FAMILY_ALPHA,
        f"chi2 {chi2:.1f} on {len(observed) - 1} df, p {pvalue:.2e}",
    )


def lln_band(checks: Checks, name: str, value: float, target: float, sigma: float) -> None:
    """|value - target| within 6 sigma, sigma being the statistic's
    standard deviation at the run's horizon."""
    gap = abs(value - target)
    checks.expect(
        name,
        gap <= 6.0 * sigma,
        f"{value:.6g} vs {target:.6g}: {gap / sigma:.1f} sigma",
    )
