"""The names the benchmark's tracer patches must keep resolving.

corebench/tracing.py wraps functions at the module attributes listed in its
WRAP_POINTS, reads the pair-table cache counters and counts the arrays of
each profile an op returns; its checks read profile attributes and its
self-test corrupts profiles with dataclasses.replace.  tracing.py is loaded
by path and nothing else in the benchmark runs here.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from corewalk import residue_walk
from corewalk.residue_walk import lambda_profile

TRACING = Path(__file__).resolve().parents[1] / "corebench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("corebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr, span", _tracing().WRAP_POINTS)
def test_wrap_point_resolves(module_name, attr, span):
    module = importlib.import_module(f"corewalk.{module_name}")
    assert callable(getattr(module, attr)), span


def test_pair_tables_expose_cache_counters():
    assert callable(residue_walk._coprime_pair_tables.cache_info)


def test_profile_replace_does_not_validate():
    prof = lambda_profile(11)
    m = prof.m.copy()
    m[3] += 1
    assert dataclasses.replace(prof, m=m).m[3] == prof.m[3] + 1


def test_tracer_counts_the_profile_arrays():
    # Tracer.count_profile reads m, b, d, c_prefix, x and y
    prof = lambda_profile(11)
    tracer = _tracing().Tracer({"residue_walk": residue_walk})
    tracer.count_profile(prof)
    assert tracer.walk_edges == 71
    arrays = (prof.m, prof.b, prof.d, prof.c_prefix, prof.x, prof.y)
    assert tracer.profile_bytes == sum(a.nbytes for a in arrays)


def test_profile_row_counts_stay_int64():
    # checks.py's row_stacking_size casts m with np.asarray(m, dtype=np.int64): an
    # int64 m passes through as a view, a narrower one would be copied whole while
    # the profile is alive and raise the benchmark's peak RSS
    prof = lambda_profile(1009)
    assert prof.m.dtype == np.int64
    assert prof.x.dtype == prof.y.dtype == np.int32


def test_profile_keeps_the_attributes_the_checks_read():
    # checks.py reads p, m, x, y and size; selftest.py replaces m, x and y
    prof = lambda_profile(11)
    assert (prof.p, prof.size) == (11, 29773)
    for name in ("m", "x", "y"):
        assert getattr(prof, name).shape == (11,)
    init_fields = {field.name for field in dataclasses.fields(prof) if field.init}
    assert {"m", "x", "y"} <= init_fields


def test_derived_profile_arrays_follow_m():
    # Tracer.count_profile reads b, d and c_prefix; selftest.py replaces m
    prof = lambda_profile(11)
    assert {"b", "d", "c_prefix"}.isdisjoint(field.name for field in dataclasses.fields(prof))
    m2 = prof.m.copy()
    m2[3] += 5
    bad = dataclasses.replace(prof, m=m2)
    for name in ("b", "d", "c_prefix"):
        arr = getattr(bad, name)
        assert arr.dtype == np.int64 and arr.shape == (11,) and arr[0] == 0, name
    assert bad.b[1:].tolist() == np.cumsum(m2[1:]).tolist()
    assert bad.d[1:].tolist() == (11 - m2[1:]).tolist()
    assert bad.c_prefix.tolist() == [i * 11 - b for i, b in enumerate(bad.b.tolist())]
