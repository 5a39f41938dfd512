"""The public names: what ``kcg`` exports and what the benchmark's tracer
patches must exist, so that a removal shows up here before it breaks
``bench/run.py --trace 1``."""

import importlib

import pytest

import kcg
from bench import spans


@pytest.mark.parametrize("name", kcg.__all__)
def test_exported_name_resolves(name):
    assert getattr(kcg, name) is not None


@pytest.mark.parametrize("metric", sorted(spans.TRACED))
def test_traced_function_resolves(metric):
    module, path = spans.TRACED[metric]
    importlib.import_module(module)
    owner, attr = spans._resolve(module, path)
    assert callable(getattr(owner, attr))
