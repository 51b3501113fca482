"""The names the benchmark's tracer patches must keep resolving.

corebench/tracing.py wraps functions at the module attributes listed in its
WRAP_POINTS and reads the pair-table cache counters; its self-test corrupts
profiles with dataclasses.replace.  The file is loaded by path and only
read, so nothing in the benchmark runs here.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from corewalk import residue_walk
from corewalk.residue_walk import lambda_profile

TRACING = Path(__file__).resolve().parents[1] / "corebench" / "tracing.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("corebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


@pytest.mark.parametrize("module_name, attr, span", _wrap_points())
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
