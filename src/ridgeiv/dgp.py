"""Data generation for the linear instrumental-variable model.

The model is

    Y_i = beta0 + beta1 * D_i + eps_i
    D_i = pi0  + pi1  * Z_i + u_i

with iid draws and instruments independent of both error terms.  The
first-stage disturbance is built constructively as

    u_i = (err_cov / sigma_eps**2) * eps_i + eta_i,

where eta_i is independent of eps_i, so that Cov[u_i, eps_i] = err_cov for
any finite err_cov and the joint error distribution is valid by
construction (no covariance-matrix factorization needed).

Weak-instrument designs are expressed through ``stock_c``: when set, the
first-stage slope at sample size n is c / sqrt(n), so the instrument stays
weak no matter how large the sample grows.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from dataclasses import dataclass, fields
from typing import TypeVar

import numpy as np

__all__ = [
    "DgpParams",
    "Dataset",
    "generate_dataset",
    "aer_calibration",
]


def _int_at_least(name: str, value: object, least: int) -> int:
    """``value`` as an int, checked against ``least``; numpy integers pass.

    A bool or a non-integer raises a TypeError, and a smaller value a
    ValueError, each naming ``name``.
    """
    try:
        if isinstance(value, bool):  # operator.index accepts bools
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _finite_real(name: str, value: object) -> float:
    """``value`` as a Python float if it is a finite real other than a bool.

    Otherwise a TypeError or ValueError naming ``name``.  numpy scalars,
    ints and Fractions come back as the float nearest them, so no caller
    meets numpy's warnings or an int too large to square as a float.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int (or Fraction) beyond the float range
        message = f"{name} must be finite, got a value too large for a float"
        raise ValueError(message) from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


_Record = TypeVar("_Record")


def _instance(name: str, value: object, cls: type[_Record]) -> _Record:
    """``value`` if it is a ``cls``; else a TypeError naming ``name``.

    This is the one check of a record or enum argument, made before
    anything of it is read: ``<name> must be a <cls>, got <value>``.  A
    stand-in with the same attributes is not a ``cls``.
    """
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _finite_result(name: str, quantity: str, value, got: str = "{!r}", plural: bool = False):
    """``value``, a float or an array, if finite throughout; else a ValueError naming ``name``.

    This is the one message of a result beyond the float range:
    ``<name> must give a finite <quantity>, got <got>``, with ``name`` the
    argument that took the result there.  ``got`` is ``str.format``-ed with
    the value (an array as a list), so a text without braces stands as
    written; a ``plural`` quantity drops the article (``must give finite
    covariances``).
    """
    if np.isfinite(value).all():
        return value
    shown = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
    finite = "finite" if plural else "a finite"
    raise ValueError(f"{name} must give {finite} {quantity}, got {got.format(shown)}")


def _finite_entries(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` if every entry is finite; else a ValueError naming ``name``."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got a non-finite entry")
    return values


def _nonnegative(name: str, value: object) -> float:
    """``value`` as a float if it is a finite nonnegative real; else an error naming ``name``."""
    real = _finite_real(name, value)
    if value < 0:  # exact, so a negative Fraction that rounds to -0.0 is still negative
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return real


# The largest n whose (3, n) float64 block numpy can address; beyond it
# numpy's allocation raises an unnamed ValueError.
_MAX_N = np.iinfo(np.intp).max // 24


def _sample_size(n: object) -> int:
    """``n`` as a sample size: an int of at least 3, finite as a float, at most ``_MAX_N``."""
    n = _int_at_least("n", n, 3)
    _finite_real("n", n)
    if n > _MAX_N:
        raise ValueError(
            f"n must be at most {_MAX_N}, the largest (3, n) float64 block numpy "
            f"can address, got {n}"
        )
    return n


@dataclass(frozen=True)
class DgpParams:
    """Structural coefficients and error moments of the IV model.

    ``err_cov`` is the (signed) covariance between the composite
    first-stage disturbance and the structural error eps.  ``sigma_eta``
    is the standard deviation of the independent component of the
    first-stage disturbance only; the total first-stage error variance is
    :attr:`first_stage_error_var`.

    ``sigma_eps = 0`` / ``sigma_eta = 0`` are allowed as exact zero-noise
    toggles for testing; ``err_cov`` must then be 0 alongside
    ``sigma_eps = 0``.  Every field is a finite real, stored as the Python
    float nearest it; ``stock_c`` may be ``None``.
    :attr:`eps_loading` must be finite too, so a nonzero ``err_cov`` rules
    out a ``sigma_eps`` whose square underflows to 0, and no ``sigma_eps``
    may square beyond the float range.
    """

    beta0: float
    beta1: float
    pi0: float
    pi1: float
    sigma_eps: float = 1.0
    sigma_eta: float = 1.0
    err_cov: float = 0.0
    stock_c: float | None = None

    def __post_init__(self) -> None:
        for field in fields(self):
            if field.name != "stock_c" or self.stock_c is not None:
                check = _nonnegative if field.name in ("sigma_eps", "sigma_eta") else _finite_real
                object.__setattr__(self, field.name, check(field.name, getattr(self, field.name)))
        if self.sigma_eps == 0.0 and self.err_cov != 0.0:
            raise ValueError(
                "err_cov must be 0 when sigma_eps is 0: a noiseless structural "
                "equation cannot covary with the first stage"
            )
        try:  # sigma_eps**2 can underflow to 0 or overflow
            loading = self.eps_loading
        except (ZeroDivisionError, OverflowError):
            loading = math.nan
        got = f"sigma_eps = {self.sigma_eps!r} beside err_cov = {self.err_cov!r}"
        _finite_result("sigma_eps", "eps_loading = err_cov / sigma_eps**2", loading, got)

    @property
    def eps_loading(self) -> float:
        """Coefficient on eps in the composite first-stage disturbance."""
        if self.sigma_eps == 0.0:
            return 0.0
        return self.err_cov / self.sigma_eps**2

    @property
    def first_stage_error_var(self) -> float:
        """Variance of the composite first-stage disturbance u; inf beyond the float range."""
        # loading * sigma_eps = err_cov / sigma_eps, which stays in the float range
        # where loading squared may not; float products give inf where ** would
        # raise an unnamed OverflowError
        spread = self.eps_loading * self.sigma_eps
        return self.sigma_eta * self.sigma_eta + spread * spread

    def effective_pi1(self, n: int) -> float:
        """First-stage slope at sample size n (c/sqrt(n) under drift)."""
        if self.stock_c is not None:
            return self.stock_c / math.sqrt(n)
        return self.pi1


@dataclass(frozen=True)
class Dataset:
    """A realized sample: outcome y, endogenous regressor d, instruments z."""

    y: np.ndarray
    d: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        d = np.asarray(self.d, dtype=np.float64)
        z = np.asarray(self.z, dtype=np.float64)
        if z.ndim == 1:
            z = z.reshape(-1, 1)
        if y.ndim != 1 or d.ndim != 1:
            raise ValueError("y and d must be one-dimensional")
        if z.ndim != 2:
            raise ValueError(f"z must be an (n, k) matrix, got shape {z.shape}")
        if not (y.shape[0] == d.shape[0] == z.shape[0]):
            raise ValueError(
                f"length mismatch: y has {y.shape[0]}, d has {d.shape[0]}, "
                f"z has {z.shape[0]} rows"
            )
        if y.shape[0] < 3:
            raise ValueError(f"need at least 3 observations, got {y.shape[0]}")
        if z.shape[1] < 1:
            raise ValueError("need at least one instrument")
        for name, values in (("y", y), ("d", d), ("z", z)):
            object.__setattr__(self, name, _finite_entries(name, values))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.z.shape[1]


class _UnitShocks:
    """The one keyed drawer of the model's unit shocks, for every simulated sample.

    ``draw(seed, out)`` fills ``out`` (shape (3, n)) with the rows z,
    eps / sigma_eps and eta / sigma_eta that ``Philox(key=seed)`` gives
    for any seed below 2**128, and returns ``out``.  ``generate_dataset``
    draws each dataset through it, and :func:`_unit_moments` draws every
    rep of a sweep or sampling distribution through it too.  One Philox
    serves every call: it is re-keyed to
    ``key = [seed & (2**64 - 1), seed >> 64]`` with counter 0 and an empty
    buffer, the state ``Philox(key=seed)`` starts in, whatever an earlier
    call left behind.
    The fresh state is kept as plain ints: on x86-64 the state setter takes
    0.5 us for them, against 1.4-2.0 us for the uint64 arrays that
    ``Philox.state`` returns.

    Building one takes 18-20 us, most of it ``Philox`` seeding itself from
    OS entropy, so each thread keeps one for all its draws
    (:func:`_unit_shocks`).  An instance must not be shared between
    threads: one thread's re-key would change another's draw.
    """

    def __init__(self) -> None:
        self._bitgen = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._bitgen)
        fresh = self._bitgen.state
        fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        self._fresh = fresh
        self._key = fresh["state"]["key"]

    def draw(self, seed: int, out: np.ndarray) -> np.ndarray:
        self._key[0], self._key[1] = seed & 0xFFFF_FFFF_FFFF_FFFF, seed >> 64
        self._bitgen.state = self._fresh
        self._rng.standard_normal(out=out)
        return out


_thread_shocks = threading.local()


def _unit_shocks() -> _UnitShocks:
    """The calling thread's ``_UnitShocks``, built on its first call.

    ``generate_dataset`` and :func:`_unit_moments` share it.  A forked
    draw worker inherits the caller's, if the caller has drawn.
    """
    try:
        return _thread_shocks.instance
    except AttributeError:
        _thread_shocks.instance = _UnitShocks()
        return _thread_shocks.instance


def generate_dataset(params: DgpParams, n: int, seed: int) -> Dataset:
    """Draw an iid sample of size n from the model.

    Uses a counter-based generator (Philox) keyed by ``seed``, so identical
    ``(params, n, seed)`` produce bit-identical samples regardless of where
    or when the call happens.  The unit shocks come from the calling
    thread's re-keyed drawer (:func:`_unit_shocks`), the same one that
    every Monte Carlo rep draws through.  Draw order is fixed: instruments,
    then eps, then eta.  Data beyond the float range raise a ValueError
    naming ``params``.

    Parameters
    ----------
    params : DgpParams
        Structural coefficients and error moments; anything else raises a
        TypeError naming ``params``, after ``n`` and ``seed`` are checked.
    n : int
        Sample size, at least 3 and at most ``_MAX_N``.
    seed : int
        Unsigned seed below 2**128, the Philox key.
    """
    n, seed = _sample_size(n), _int_at_least("seed", seed, 0)
    if seed >= 2**128:
        raise ValueError(f"seed must be less than 2**128, got {seed}")
    _instance("params", params, DgpParams)
    z, eps, eta = _unit_shocks().draw(seed, np.empty((3, n)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        eps *= params.sigma_eps  # in place: the shock block is this call's own
        eta *= params.sigma_eta
        u = params.eps_loading * eps + eta
        d = params.pi0 + params.effective_pi1(n) * z + u
        y = params.beta0 + params.beta1 * d + eps
    # y is finite only where d and eps are
    _finite_result("params", f"data at n = {n}", y, "d or y beyond the float range", plural=True)
    # a copy, so the dataset does not keep the whole shock block alive
    return Dataset(y=y, d=d, z=z.reshape(n, 1).copy())


# Reps drawn and reduced together: at most _BLOCK_REPS, and at most
# _BLOCK_SAMPLES samples per shock row, so memory does not grow with n.
# Results do not depend on it: every rep is reduced on its own row.
_BLOCK_REPS = 64
_BLOCK_SAMPLES = 64 * 150


def _block_reps(n: int) -> int:
    return max(1, min(_BLOCK_REPS, _BLOCK_SAMPLES // n))


def _unit_moments(seeds: list[int], n: int) -> np.ndarray:
    """Var z, Cov[e, z] and Cov[h, z] of each seed's sample of size n, shape (3, len(seeds)).

    Seed i draws the unit shocks (z, e, h) that ``generate_dataset`` draws
    for it, through the same drawer (:func:`_unit_shocks`), and reduces
    them to three centered cross-moments.  These are sufficient for the
    model's covariances with the instrument (:func:`_z_covariances`),
    because the model is linear in the shocks and the intercepts drop out
    of every covariance.  Seeds are drawn and reduced in blocks, every
    seed's moments formed on its own row, so no result depends on the
    block layout.

    At n = 150 on one x86-64 core (9-10 us per rep of a Monte Carlo task,
    each stage timed alone over 41 seed paths of 100 reps), drawing the
    normals is 77-85% of the task, re-keying Philox 4-5%, deriving the
    seeds 3%, the reduction about 5% (the means 2.5%, the dot products 2%,
    forming the moments under 1%), and the loop the rest.
    """
    reps = len(seeds)
    draw = _unit_shocks().draw
    size = _block_reps(n)
    moments = np.empty((3, reps))
    block = np.empty((min(size, reps), 3, n))
    for first in range(0, reps, size):
        last = min(first + size, reps)
        shocks = block[: last - first]
        for seed, out in zip(seeds[first:last], shocks):
            draw(seed, out)
        # Cov[x, z] = mean(x z) - mean(x) mean(z), without centering the block
        # first.  einsum runs numpy's own loop; a stacked matmul would call
        # BLAS, which the forks of _fork.map_tasks rely on no draw doing.  Its
        # dot products sum plainly, not pairwise as mean does (see README)
        means = shocks.mean(axis=2)
        dots = np.einsum("rin,rn->ri", shocks, shocks[:, 0])
        moments[:, first:last] = (dots / n - means * means[:, :1]).T
    return moments


def _z_covariances(
    params: DgpParams, n: int, moments: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Cov[Y,Z] and Cov[D,Z] at size n from the moments of :func:`_unit_moments`.

    With eps = sigma_eps * e and eta = sigma_eta * h,

        Cov[D,Z] = pi1 * Var z + eps_loading * sigma_eps * Cov[e,z] + sigma_eta * Cov[h,z]
        Cov[Y,Z] = beta1 * Cov[D,Z] + sigma_eps * Cov[e,z]

    with pi1 the slope at the sample size n (``DgpParams.effective_pi1``).
    A covariance beyond the float range raises a ValueError naming
    ``name``, the argument that set ``params``.
    """
    s_zz, s_ez, s_hz = moments
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        cov_dz = (
            params.effective_pi1(n) * s_zz
            + params.eps_loading * params.sigma_eps * s_ez
            + params.sigma_eta * s_hz
        )
        cov_yz = params.beta1 * cov_dz + params.sigma_eps * s_ez
    # cov_yz is finite only where cov_dz is
    got = "Cov[D,Z] or Cov[Y,Z] beyond the float range"
    _finite_result(name, f"covariances at n = {n}", cov_yz, got, plural=True)
    return cov_yz, cov_dz


def aer_calibration(beta1: float = 1.0, stock_c: float | None = None) -> DgpParams:
    """Simulation design calibrated to a published AER immigration study.

    Weak first stage (slope 0.072) and a strongly endogenous regressor
    (loading -0.67 on the structural error); all primitive shocks are unit
    normals.
    """
    return DgpParams(
        beta0=2.83,
        beta1=beta1,
        pi0=-0.346,
        pi1=0.072,
        sigma_eps=1.0,
        sigma_eta=1.0,
        err_cov=-0.67,
        stock_c=stock_c,
    )
