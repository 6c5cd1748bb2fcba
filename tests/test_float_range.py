"""The float-range rule, over every callable of the public API.

Fed real numbers from across the whole range, each a float or the same
value as an ``np.float64``, ``np.float32``, int or ``Fraction``, every
public callable returns a finite result, or a NaN its docstring
documents, or raises a TypeError, ValueError or ArithmeticError whose
message starts with the name of an argument (or of a field or method of
one).  pytest turns any numpy warning into a failure, so none may escape
either.

``_ARGUMENTS`` holds one entry per callable of ``ridgeiv.__all__``, which
re-exports the ``__all__`` of ``dgp``, ``estimators``, ``asymptotics`` and
``montecarlo``: a strategy for its positional arguments,
and where its docstring documents a NaN result, a predicate that says
whether a result's NaNs are the documented ones.  Objects passed to a
callable (a ``Dataset``, ``DgpParams``, ``PenaltySchedule`` or
``SweepConfig``) are built valid, from finite values across the range;
their own constructors meet the non-finite values.  ``_PROPERTIES`` holds
the public properties that may leave the float range to the same rule,
with an inf allowed only where the property's docstring documents one.

The record-type rule goes with it: every parameter that a public
signature types as a record or an enum, the ``cli`` writers' included,
rejects ``None``, a ``dict`` and a record of another class with a
TypeError that names it, the other arguments drawn valid.
"""

import dataclasses
import enum
import inspect
import math
import os
import sys
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import ridgeiv
from ridgeiv import cli
from ridgeiv.asymptotics import MIN_TAIL_SAMPLES
from ridgeiv.estimators import Estimate, PenaltyRate, PenaltySchedule
from ridgeiv.montecarlo import GridVariable, SweepCell, SweepConfig, SweepResult
from support import _names_a_field

# Both ends of the float range and its middle: signed zeros, the smallest
# subnormal and normal, 1e+-300 and the largest floats
_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300, 1.7e308, -1.7e308,
]
_NON_FINITE = [math.inf, -math.inf, math.nan]
# the powers of ten, drawn log-uniformly, reach both ends far more often than uniform bits
_POWERS = st.integers(-323, 308).map(lambda e: 10.0**e)


def _floats(finite=False, nonnegative=False):
    edges = _EDGES if finite else _EDGES + _NON_FINITE
    powers = _POWERS if nonnegative else _POWERS | _POWERS.map(lambda x: -x)
    uniform = st.floats(
        min_value=0.0 if nonnegative else None, allow_nan=not finite, allow_infinity=not finite
    )
    if nonnegative:
        edges = [x for x in edges if not x < 0.0]
    return st.sampled_from(edges) | powers | uniform


_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _as_reals(value):
    """The float ``value`` as each real type an argument may take.

    It is drawn as a float, an ``np.float64``, an ``np.float32`` where it
    is finite in float32 (or not finite at all), an int where it is
    integral, and a ``Fraction`` where it is finite.
    """
    reals = [value, np.float64(value)]
    if not math.isfinite(value) or abs(value) <= _FLOAT32_MAX:
        reals.append(np.float32(value))
    if math.isfinite(value):
        reals.append(Fraction(value))
        if value == int(value):
            reals.append(int(value))
    return st.sampled_from(reals)


# Floats fill the arrays; a real-number argument is drawn as any real type
_ANY_FLOAT = _floats()
_FINITE_FLOAT = _floats(finite=True)
_ANY = _ANY_FLOAT.flatmap(_as_reals)
_FINITE = _FINITE_FLOAT.flatmap(_as_reals)
_NONNEGATIVE = _floats(finite=True, nonnegative=True).flatmap(_as_reals)


@st.composite
def _arrays(draw, size, values=_ANY_FLOAT):
    """A 1-D float64 array of ``size`` entries: a unit shape at a drawn scale, then edits.

    The shapes are a normal draw with its peak at 1, a constant and two
    halves of opposite sign; the scale spans the finite range, and up to
    three entries, or one whole half, are then set to drawn ``values``.
    """
    n = draw(size)
    shape = draw(st.sampled_from(["normal", "constant", "halves"]))
    if shape == "normal":
        unit = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
        unit /= np.abs(unit).max()
    else:
        unit = np.ones(n)
        if shape == "halves":
            unit[n // 2 :] = -1.0
    array = unit * draw(_FINITE_FLOAT)
    if shape == "halves" and draw(st.booleans()):
        array[n // 2 :] = draw(values)
    for index, value in draw(st.lists(st.tuples(st.integers(0, n - 1), values), max_size=3)):
        array[index] = value
    return array


def _valid(build, *strategies):
    """``build(*args)`` for drawn args, where that raises no ValueError."""

    def attempt(args):
        try:
            return build(*args)
        except ValueError:
            return None

    return st.tuples(*strategies).map(attempt).filter(lambda built: built is not None)


def _same_size(count, values=_ANY_FLOAT, sizes=st.integers(3, 8)):
    """``count`` arrays of one drawn size."""
    return sizes.flatmap(lambda n: st.tuples(*[_arrays(st.just(n), values)] * count))


_DATASETS = _same_size(3, _FINITE_FLOAT).map(lambda a: ridgeiv.Dataset(*a))
_DATASETS_K2 = _same_size(4, _FINITE_FLOAT).map(
    lambda a: ridgeiv.Dataset(a[0], a[1], np.column_stack(a[2:]))
)
_PARAMS = _valid(
    ridgeiv.DgpParams,
    *[_FINITE] * 4, _NONNEGATIVE, _NONNEGATIVE, _FINITE, st.none() | _FINITE,
)
_SCHEDULES = st.builds(PenaltySchedule, st.sampled_from(PenaltyRate), _NONNEGATIVE)
_GRIDS = st.lists(_FINITE, min_size=1, max_size=3, unique=True).map(
    lambda g: tuple(sorted(g, key=float))
)
_LAMBDAS = st.lists(_NONNEGATIVE, min_size=1, max_size=2, unique=True).map(tuple)
_SMALL_N, _SMALL_REPS = st.integers(3, 30), st.integers(1, 5)
_SEEDS = st.integers(0, 2**64 - 1)
_CONFIGS = _valid(
    SweepConfig,
    _PARAMS.map(lambda p: dataclasses.replace(p, stock_c=None)),
    st.sampled_from(GridVariable), _GRIDS, _LAMBDAS, _SMALL_N, _SMALL_REPS, _SEEDS,
)
# a record holds what it is given: finite values, and NaN where it documents one
_FINITE_OR_NAN = _FINITE | st.just(math.nan)
_CELLS = st.builds(
    lambda grid_value, lam, stats, n_degenerate: SweepCell(grid_value, lam, *stats, n_degenerate),
    _FINITE, _NONNEGATIVE, st.lists(_FINITE_OR_NAN, min_size=8, max_size=8), st.integers(0, 5),
)
_SWEEP_RESULTS = st.tuples(
    st.sampled_from(GridVariable), st.lists(_CELLS, min_size=1, max_size=2), st.integers(1, 3)
).flatmap(
    lambda a: st.tuples(
        st.just(a[0]), st.just(30), st.just(a[2]), st.just(tuple(a[1])),
        _arrays(st.just(len(a[1]) * a[2]), _FINITE_FLOAT | st.just(math.nan)).map(
            lambda e: e.reshape(len(a[1]), a[2])
        ),
    )
)


def _given_nan(result, args):
    """A record documents the NaN it was given: it holds its arguments as they are."""
    return any(np.isnan(_floats_in(arg)).any() for arg in args)


def _nan_samples_only(result, args):
    """cauchy_diagnostics: NaN median and IQR, flagged, only for a non-finite sample."""
    (samples,) = args
    return not np.isfinite(samples).all() and result.tail_index_flag


def _nan_zero_denominator_only(result, args):
    """shifted_ratio: NaN exactly where base + shift is zero."""
    _, base, shift = args
    return np.array_equal(np.isnan(result), np.add.outer(np.asarray(shift, float), base) == 0.0)


def _nan_degenerate_only(result, args):
    """run_sweep: NaN estimates are the degenerate reps, and NaN cells have no other reps."""
    degenerate = np.isnan(result.estimates).sum(axis=1)
    for cell, count in zip(result.cells, degenerate.tolist()):
        stats = dataclasses.astuple(cell)[2:-1]
        if cell.n_degenerate != count or (np.isnan(stats).any() and count < result.reps):
            return False
    return True


_ARGUMENTS = {
    # asymptotics
    "TailDiagnostics": (st.tuples(_FINITE_OR_NAN, _FINITE_OR_NAN, st.booleans()), _given_nan),
    "cauchy_diagnostics": (st.tuples(_arrays(st.integers(MIN_TAIL_SAMPLES, MIN_TAIL_SAMPLES + 3))),
                           _nan_samples_only),
    "delta_method_variance": (st.tuples(_arrays(st.just(4)).map(lambda a: a.reshape(2, 2)),
                                        _ANY, _ANY), None),
    "sigma_fixed": (st.tuples(_PARAMS), None),
    "sigma_red_sq": (st.tuples(_PARAMS), None),
    "sigma_stochastic": (st.tuples(_PARAMS), None),
    "sqrtn_bias": (st.tuples(_PARAMS, _ANY), None),
    "staiger_stock_moments": (st.tuples(_PARAMS, _ANY), None),
    "v_ridge": (st.tuples(_PARAMS), None),
    "ratio_gradient": (st.tuples(_ANY, _ANY), None),
    # dgp
    "Dataset": (_same_size(3), None),
    "DgpParams": (st.tuples(*[_ANY] * 7, st.none() | _ANY), None),
    "aer_calibration": (st.tuples(_ANY, st.none() | _ANY), None),
    "generate_dataset": (st.tuples(_PARAMS, st.integers(3, 40), st.integers(0, 2**128 - 1)),
                         None),
    # estimators
    "DegenerateDenominatorError": (st.tuples(_ANY), None),
    "DegenerateInstrumentError": (st.tuples(_ANY), None),
    "SingularSystemError": (st.tuples(_ANY), None),
    "Estimate": (st.tuples(*[_FINITE] * 4, st.integers(3, 10**6), *[_FINITE] * 5), None),
    "PenaltyRate": (st.tuples(st.sampled_from([rate.value for rate in PenaltyRate])), None),
    "PenaltySchedule": (st.tuples(st.sampled_from(PenaltyRate), _ANY), None),
    "demeaned_cov": (_same_size(2, sizes=st.integers(2, 8)), None),
    "shifted_ratio": (st.tuples(_ANY, _ANY, _ANY)
                      | st.tuples(_same_size(2), _ANY | st.lists(_ANY, min_size=1, max_size=3))
                      .map(lambda a: (*a[0], a[1])), _nan_zero_denominator_only),
    "first_stage": (st.tuples(_DATASETS), None),
    "reduced_form": (st.tuples(_DATASETS), None),
    "fit_2sls": (st.tuples(_DATASETS), None),
    "fit_ridge_iv": (st.tuples(_DATASETS, _SCHEDULES), None),
    "fit_ridge_iv_matrix": (st.tuples(_DATASETS, _ANY), None),
    "fit_ridge_iv_overidentified": (st.tuples(_DATASETS | _DATASETS_K2, _ANY), None),
    "gmm_minimize": (st.tuples(_DATASETS, _ANY), None),
    "gmm_objective": (st.tuples(_DATASETS, _ANY, _ANY), None),
    "lagrange_correspondence": (st.tuples(_DATASETS, _ANY), None),
    # montecarlo
    "GridVariable": (st.tuples(st.sampled_from([v.value for v in GridVariable])), None),
    "SweepCell": (_CELLS.map(dataclasses.astuple), _given_nan),
    "SweepConfig": (st.tuples(_PARAMS, st.sampled_from(GridVariable),
                              st.lists(_ANY, min_size=1, max_size=3),
                              st.lists(_ANY, min_size=1, max_size=2),
                              _SMALL_N, _SMALL_REPS, _SEEDS), None),
    "SweepResult": (_SWEEP_RESULTS, _given_nan),
    "collect_sampling_distribution": (st.tuples(_PARAMS, _SCHEDULES, _SMALL_N, _SMALL_REPS,
                                                _SEEDS), None),
    "derive_seed": (st.lists(st.integers(-1, 2**70), min_size=1, max_size=4), None),
    "run_sweep": (st.tuples(_CONFIGS), _nan_degenerate_only),
}


def _floats_in(value):
    """Every float ``value`` holds, through tuples, records and float arrays, as a list."""
    if isinstance(value, (float, np.floating)):
        return [float(value)]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist() if value.dtype.kind == "f" else []
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = tuple(getattr(value, field.name) for field in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _floats_in(item)]
    return []


def _argument_names(function, args):
    """The call's parameter names, and the public attributes of every record it is given."""
    names = set(inspect.signature(function).parameters)
    for arg in args:
        if dataclasses.is_dataclass(arg):
            names |= {name for name in dir(arg) if not name.startswith("_")}
    return names


def _public_callables():
    return {
        name: getattr(ridgeiv, name)
        for name in ridgeiv.__all__
        if callable(getattr(ridgeiv, name))
    }


def test_every_public_callable_has_a_strategy():
    # a new public callable without an entry would escape the rule below
    assert sorted(_ARGUMENTS) == sorted(_public_callables())


# 38 callables at 40 examples each: 6.3-7.0 s of calls in all on a 2-core x86-64
# host, 0.1 s of it shifted_ratio's
@pytest.mark.parametrize("name", sorted(_ARGUMENTS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_every_result_is_finite_a_documented_nan_or_named(name, data):
    function = _public_callables()[name]
    strategy, nan_documented = _ARGUMENTS[name]
    args = data.draw(strategy, label="args")
    try:
        result = function(*args)
    except (TypeError, ValueError, ArithmeticError) as exc:
        assert _names_a_field(exc, _argument_names(function, args)), repr(exc)
        return
    values = np.array(_floats_in(result))
    if np.isfinite(values).all():
        return
    assert not np.isinf(values).any(), result
    assert nan_documented is not None and nan_documented(result, args), result


# A float rounds to inf from max + half its last place, 2**970, up.
_ROUNDS_TO_INF = Fraction(sys.float_info.max) + Fraction(2) ** 970


def _composite_variance_beyond_the_float_range(params):
    """first_stage_error_var: sigma_eta^2 + (eps_loading sigma_eps)^2, taken exactly."""
    loading, s_eps, s_eta = map(Fraction, (params.eps_loading, params.sigma_eps, params.sigma_eta))
    return s_eta**2 + (loading * s_eps) ** 2 >= _ROUNDS_TO_INF


def _std_error_beyond_the_float_range(estimate):
    """std_error's documented inf: a zero pi1_hat or sigma_z_hat, or an exact quotient beyond."""
    if estimate.pi1_hat == 0.0 or estimate.sigma_z_hat == 0.0:
        return True
    quotient = Fraction(estimate.sigma_eps_hat) / Fraction(estimate.pi1_hat)
    quotient /= Fraction(estimate.sigma_z_hat) * Fraction(math.sqrt(estimate.n))
    return abs(quotient) >= _ROUNDS_TO_INF


# The properties of the records above that may leave the float range: a strategy
# for the record, and where the docstring documents an inf, a predicate that says
# whether this record is one it documents.
_PROPERTIES = {
    "DgpParams.eps_loading": (_PARAMS, None),
    "DgpParams.first_stage_error_var": (_PARAMS, _composite_variance_beyond_the_float_range),
    "Estimate.std_error": (
        _ARGUMENTS["Estimate"][0].map(lambda args: Estimate(*args)),
        _std_error_beyond_the_float_range,
    ),
}


@pytest.mark.parametrize("name", sorted(_PROPERTIES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_every_property_is_finite_or_a_documented_inf(name, data):
    strategy, inf_documented = _PROPERTIES[name]
    record = data.draw(strategy, label="record")
    value = getattr(record, name.split(".")[1])
    if math.isfinite(value):
        return
    assert math.isinf(value) and inf_documented is not None and inf_documented(record), value


_RESULT = SweepResult(
    GridVariable.BETA1, 3, 1, (SweepCell(1.0, 0.0, *[0.5] * 8, 0),), np.full((1, 1), 1.5)
)
# The cli writers' arguments, valid; os.devnull takes what a valid call writes
_WRITERS = {
    "write_sweep_csv": st.just((_RESULT, os.devnull)),
    "write_raw_csv": st.just((_RESULT, os.devnull)),
    "emit_plot": st.just((_RESULT, 0.0, os.devnull)),
}
# One record of each record and enum type the public signatures name; each is
# a wrong record wherever a parameter names another class
_RECORDS = (
    ridgeiv.Dataset([1.0, 2.0, 4.0], [1.0, 3.0, 2.0], [0.0, 1.0, 3.0]),
    ridgeiv.aer_calibration(),
    PenaltySchedule(PenaltyRate.CONSTANT, 0.0),
    SweepConfig(ridgeiv.aer_calibration(), GridVariable.BETA1, (1.0,), (0.0,), 3, 1, 0),
    _RESULT,
    PenaltyRate.CONSTANT,
    GridVariable.PI1,
)


def _typed_callables():
    return {**_public_callables(), **{name: getattr(cli, name) for name in _WRITERS}}


def _record_parameters():
    """(callable, parameter, class) for every parameter typed as a record or an enum."""
    found = []
    for name, function in sorted(_typed_callables().items()):
        for parameter, cls in typing.get_type_hints(function).items():
            record = isinstance(cls, type) and (
                dataclasses.is_dataclass(cls) or issubclass(cls, enum.Enum)
            )
            if record and parameter != "return":
                found.append((name, parameter, cls))
    return found


_RECORD_PARAMETERS = _record_parameters()


@pytest.mark.parametrize(
    "name, parameter, cls", _RECORD_PARAMETERS, ids=[f"{n}-{p}" for n, p, _ in _RECORD_PARAMETERS]
)
# no shrinking: a failure does not depend on the other arguments, and shrinking
# them took minutes per failure
@settings(derandomize=True, max_examples=3, deadline=None, phases=[Phase.generate])
@given(data=st.data())
def test_a_wrong_record_is_named(name, parameter, cls, data):
    function = _typed_callables()[name]
    strategy = _WRITERS[name] if name in _WRITERS else _ARGUMENTS[name][0]
    args = list(data.draw(strategy, label="args"))
    parameters = list(inspect.signature(function).parameters)
    try:
        function(*args)
    except (TypeError, ValueError, ArithmeticError) as exc:
        # another argument is invalid, and checked first
        assume(not _names_a_field(exc, set(parameters) - {parameter}))
    for wrong in [None, {}] + [record for record in _RECORDS if not isinstance(record, cls)]:
        args[parameters.index(parameter)] = wrong
        with pytest.raises(TypeError) as raised:
            function(*args)
        assert _names_a_field(raised.value, {parameter}), repr(raised.value)
        assert str(raised.value) == f"{parameter} must be a {cls.__name__}, got {wrong!r}"
