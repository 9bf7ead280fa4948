"""rootmean: certified arithmetic means of square (and r-th) roots of the
first n integers, and exact integer parts of those means at any scale.

The mean Sigma(n) = (1/n) sum_{k=1}^{n} sqrt(k) admits the closed-form
proxy A(x) = (2/3) sqrt(x+1) (1 + 1/(4x)), with floor(Sigma(n)) =
floor(A(n)) for every n >= 1.  This package exposes:

- exact integer floors of Sigma(n) for arbitrary-size n (exactfloor),
- rigorous enclosures for partial sums of r-th roots (asymptotic),
- a fast certified mean evaluator with user-chosen error tolerance, one
  exact-integer path (a fixed head plus an Euler-Maclaurin closure),
  validated against a hardened direct-summation oracle (evaluator),
- a CLI: rootmean {floor,mean,sum,verify,bench} (cli).
"""

from .asymptotic import (
    DeltaBounds,
    Enclosure,
    RootOrder,
    delta_bounds,
    eval_A,
    lemma2_lower,
    lemma2_upper,
    partial_sum_root_enclosure,
    partial_sum_sqrt_enclosure,
)
from .evaluator import (
    CertifiedMean,
    fast_mean,
    oracle_mean,
    oracle_sum_sqrt,
    sweep_theorem1,
)
from .exactfloor import (
    alpha_floor,
    floor_A_exact,
    floor_via_alpha,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "floor_A_exact",
    "floor_via_alpha",
    "alpha_floor",
    "Enclosure",
    "DeltaBounds",
    "RootOrder",
    "eval_A",
    "delta_bounds",
    "partial_sum_sqrt_enclosure",
    "partial_sum_root_enclosure",
    "lemma2_upper",
    "lemma2_lower",
    "CertifiedMean",
    "fast_mean",
    "oracle_sum_sqrt",
    "oracle_mean",
    "sweep_theorem1",
]
