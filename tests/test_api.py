"""The public names: what ``kcg`` exports and what the benchmark's tracer
patches must exist, so that a removal shows up here before it breaks
``bench/run.py --trace 1``; the names ``kcg`` loads on first access are
the objects of the layers that define them."""

import importlib
import os
import subprocess
import sys

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


@pytest.mark.parametrize("name", sorted(kcg._LAZY))
def test_lazy_name_is_its_layers_object(name):
    layer = importlib.import_module(f"kcg.{kcg._LAZY[name]}")
    value = getattr(kcg, name)
    assert value is getattr(layer, name)
    assert getattr(value, "__module__", layer.__name__) == layer.__name__
    assert vars(kcg)[name] is value


def test_every_exported_name_is_eager_or_lazy():
    # the names of errors and laurent, which ``import kcg`` loads
    eager = {"Factorization", "KcgError", "LaurentPoly", "canonicalize", "eval_int",
             "factor", "is_symmetric", "mul", "poly_from_text", "reciprocal"}
    assert eager | set(kcg._LAZY) == set(kcg.__all__)
    assert not eager & set(kcg._LAZY)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from kcg import *", namespace)
    assert {name: namespace[name] for name in kcg.__all__} == {
        name: getattr(kcg, name) for name in kcg.__all__}


def test_layers_resolve_after_a_bare_import():
    layers = ["bounds", "foxmilnor", "seifert", "tabledata"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kcg; "
            "print(*(getattr(kcg, layer).__name__ for layer in sys.argv[2:]))")
    proc = subprocess.run([sys.executable, "-c", code, os.path.dirname(kcg.__path__[0]),
                           *layers], capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == [f"kcg.{layer}" for layer in layers]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        kcg.no_such_name
    assert not hasattr(kcg, "cli_main")
