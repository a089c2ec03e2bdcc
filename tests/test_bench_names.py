"""Every name the benchmark's traced run wraps still resolves to a callable.

The traced run looks each wrapped function up by module and attribute
name, so a rename or deletion in the package would only show there.
This imports the catalogue without installing the tracer.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402


@pytest.mark.parametrize("name", sorted(layers.FUNCTIONS))
def test_wrapped_function_resolves(name):
    module, attr = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", [layers.KHOP, layers.CRITIQUE])
def test_wrapped_method_resolves(name):
    module, cls, attr = name.rsplit(".", 2)
    assert callable(getattr(getattr(importlib.import_module(module), cls), attr))
