"""Helpers shared by the test modules: error-message names and the kernel's exact law."""

import math
import re

import numpy as np


def _names_a_field(exc, names):
    """Whether the message starts with one of ``names``, indexed or dotted or called at an n."""
    first = str(exc).split(" ")[0]
    match = re.fullmatch(r"(\w+)(\[\d+\]|\.\w+|\(\d+\))?", first)
    return match is not None and match.group(1) in names


def _exact_moments(n, reps, rng, fixed=False):
    """``reps`` draws of the kernel's moments (Var z, Cov[e,z], Cov[h,z]) from their exact law.

    The result has shape (3, reps).  For n iid unit normals z, e and h,
    write S for the sum of (z_i - zbar)^2.  Then S ~ chi^2(n - 1), and
    given z the sums of (z_i - zbar) e_i and of (z_i - zbar) h_i are
    independent N(0, S) (the first row of a Wishart matrix, by Bartlett's
    decomposition; Anderson, An Introduction to Multivariate Statistical
    Analysis, 3rd ed., 2003, sec. 7.2).  So the three moments are
    (S/n, sqrt(S) N_1 / n, sqrt(S) N_2 / n) in law.  ``fixed`` holds the
    instruments, so one S serves every rep.  This shares nothing with the
    kernel and must never replace it: the kernel's draws are fixed by its
    Philox stream.
    """
    s = rng.chisquare(n - 1, size=1 if fixed else reps)
    normals = rng.standard_normal((2, reps))
    return np.vstack([np.broadcast_to(s / n, (reps,)), np.sqrt(s) * normals / n])


def _ks_rejects(a, b, level):
    """Whether a two-sample Kolmogorov-Smirnov test rejects a common law of ``a`` and ``b``.

    It rejects at ``level`` by the asymptotic critical value
    c(level) sqrt((m1 + m2) / (m1 m2)), with c(level) = sqrt(-log(level / 2) / 2).
    """
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = np.searchsorted(a, both, side="right") / a.size
    gap -= np.searchsorted(b, both, side="right") / b.size
    critical = math.sqrt(-math.log(level / 2) / 2 * (a.size + b.size) / (a.size * b.size))
    return np.abs(gap).max() > critical
