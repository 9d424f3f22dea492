"""The parameter domain of both security bounds, t/E >= 0, an integer M >= 2,
an integer k >= 1, 0 < epsilon < 1 and 0 < tau <= 1, is checked by the same
five rules (codestates) in every library entry point that takes one, and the
entry point keeps the Python value the rule returns."""

import dataclasses
import math

import numpy as np
import pytest

from phasebc.codestates import CodeParams
from phasebc.fock import cutoff_for_energy
from phasebc.phasespace import GridSpec
from phasebc.protocol import ProtocolParams
from phasebc.security import (epsilon_secure_check, find_params, numeric_trace_norm_check,
                              pca_exact, pcb_bound, security_report, trace_norm_bound)
from phasebc.transport import ChannelModel

# Each entry point with valid arguments and the rule of each position:
# r a non-negative real, o an order, c a count, p a probability, t a
# transmittivity.  CodeParams' cutoff is not among the five rules.
ENTRY_POINTS = {
    "ProtocolParams": (ProtocolParams, (1.0, 8, 4, 0.01, 0.5), "rocpt"),
    "CodeParams": (lambda t, M: CodeParams(t, M, 30), (1.0, 8), "ro"),
    "ChannelModel": (ChannelModel, (0.5,), "t"),
    "cutoff_for_energy": (cutoff_for_energy, (1.0, 1e-12), "rp"),
    "trace_norm_bound": (trace_norm_bound, (1.0, 8), "ro"),
    "numeric_trace_norm_check": (numeric_trace_norm_check, (1.0, 8), "ro"),
    "pcb_bound": (pcb_bound, (1.0, 8, 4), "roc"),
    "pca_exact": (pca_exact, (1.0, 4, 8), "rco"),
    "epsilon_secure_check": (epsilon_secure_check, (1.0, 8, 4, 0.01), "rocp"),
    "security_report": (security_report, (1.0, 8, 4, 0.01), "rocp"),
    "find_params": (find_params, (0.01, 1.0, 64), "pro"),
    "GridSpec": (lambda points: GridSpec((-1.0, 1.0), (-1.0, 1.0), points), (8,), "o"),
}
BAD_VALUES = {"True": True, "1e400": 10 ** 400, "nan": math.nan, "inf": math.inf,
              "-inf": -math.inf, "-1.0": -1.0, "'1'": "1"}
# 8.5 and 8.0 are valid reals and invalid tau or epsilon already
BAD_INTEGERS = {"8.5": 8.5, "np.float64(8.0)": np.float64(8.0)}


def _positions():
    for name, (_, args, rules) in ENTRY_POINTS.items():
        for i, rule in enumerate(rules):
            yield name, i, rule


def _bad_cases():
    for name, i, rule in _positions():
        bad = BAD_VALUES | (BAD_INTEGERS if rule in "oc" else {})
        for label, value in bad.items():
            yield pytest.param(name, i, value, id=f"{name}-arg{i}-{label}")


def _call(name, i, value):
    fn, args, _ = ENTRY_POINTS[name]
    return fn(*args[:i], value, *args[i + 1:])


@pytest.mark.parametrize("name, i, value", list(_bad_cases()))
def test_bad_value_raises_value_error(name, i, value):
    with pytest.raises(ValueError):
        _call(name, i, value)


# The calls that once returned a number, raised TypeError or OverflowError, or
# took a bool as a real
@pytest.mark.parametrize("call", [
    lambda: pca_exact(-1.0, 1, 8),
    lambda: pca_exact(math.nan, 1, 8),
    lambda: pcb_bound(1.0, 8.5, 2.5),
    lambda: pcb_bound(1.0, 8, True),
    lambda: numeric_trace_norm_check(1.0, 8.5),
    lambda: security_report(1.0, 8.0, 1, 0.01),
    lambda: trace_norm_bound(1.0, 10 ** 400),
    lambda: pcb_bound(1.0, 8, 10 ** 400),
    lambda: pca_exact(1.0, 10 ** 400, 8),
    lambda: epsilon_secure_check(1.0, 8, 10 ** 400, 0.01),
    lambda: find_params(0.01, 1.0, 10.5),
    lambda: ProtocolParams(True, 8, 1),
    lambda: ProtocolParams(1.0, 8, 1, 0.01, True),
    lambda: CodeParams(True, 8, 30),
    lambda: ChannelModel(True),
    lambda: find_params(0.01, True),
    lambda: cutoff_for_energy(True, 1e-12),
], ids=["pca_exact-negative-energy", "pca_exact-nan-energy", "pcb_bound-float-M-and-k",
        "pcb_bound-bool-k", "numeric_trace_norm_check-float-M", "security_report-float-M",
        "trace_norm_bound-huge-M", "pcb_bound-huge-k", "pca_exact-huge-k",
        "epsilon_secure_check-huge-k", "find_params-float-scan-limit",
        "ProtocolParams-bool-energy", "ProtocolParams-bool-tau", "CodeParams-bool-t",
        "ChannelModel-bool-tau", "find_params-bool-t", "cutoff_for_energy-bool-energy"])
def test_reported_bad_call_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def _edge_cases():
    # t = 0 in every real position (the planner alone requires t > 0), and
    # NumPy scalars in every position
    for name, i, rule in _positions():
        if rule == "r" and name != "find_params":
            yield pytest.param(name, i, 0.0, id=f"{name}-arg{i}-zero")
        value = ENTRY_POINTS[name][1][i]
        typed = np.int64(value) if rule in "oc" else np.float32(value)
        yield pytest.param(name, i, typed, id=f"{name}-arg{i}-{type(typed).__name__}")


def _scalars(result):
    """The leaves of a result: dataclass fields and tuple items, recursively."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, tuple):
        for item in result:
            yield from _scalars(item)
    else:
        yield result


def _assert_python_result(result):
    # exact types: np.float64 is a float subclass and np.True_ is no bool
    types = set(map(type, _scalars(result)))
    assert types <= {bool, int, float, str, type(None)}, types


@pytest.mark.parametrize("name, i, value", list(_edge_cases()))
def test_valid_edge_value_passes(name, i, value):
    result = _call(name, i, value)
    _assert_python_result(result)
    if ENTRY_POINTS[name][2][i] in "oc":
        assert result == _call(name, i, int(value))


# An order beyond int32 as a NumPy scalar: M * M once overflowed (with a
# sufficient pair of (True, np.True_)) and -M wrapped around for np.uint64
# (a simplified bound of inf)
@pytest.mark.parametrize("typed", [np.int64, np.uint64])
@pytest.mark.parametrize("name", ["trace_norm_bound", "epsilon_secure_check",
                                  "security_report"])
def test_numpy_order_matches_python_int(name, typed):
    i = ENTRY_POINTS[name][2].index("o")
    result = _call(name, i, typed(2 ** 32))
    _assert_python_result(result)
    assert result == _call(name, i, 2 ** 32)


def test_largest_values_pass():
    assert ProtocolParams(1.0, 2 ** 63, 1).M == 2 ** 63
    assert pcb_bound(1.0, 8, 10 ** 300) == 10 ** 300 * trace_norm_bound(1.0, 8).value
    # every residue class beyond the cutoff holds one weight, so no class
    # contributes, and the classes are not laid out M wide
    assert numeric_trace_norm_check(1.0, 2 ** 63)[0] == 0.0


def test_planner_requires_positive_amplitude():
    with pytest.raises(ValueError, match="positive"):
        find_params(0.01, 0.0)
