"""The package's public names, which resolve lazily from their submodules."""

import importlib
import subprocess
import sys

import pytest

import occlusion_meter
from occlusion_meter import classifier


@pytest.mark.parametrize("name", occlusion_meter.__all__)
def test_export_is_the_submodule_attribute(name):
    namespace = {}
    exec(f"from occlusion_meter import {name}", namespace)
    obj = namespace[name]
    assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from occlusion_meter import *", namespace)
    assert set(occlusion_meter.__all__) <= set(namespace)


def test_dir_lists_every_export():
    assert set(occlusion_meter.__all__) <= set(dir(occlusion_meter))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'occlusion_meter' has no attribute 'no_such_name'$"):
        occlusion_meter.no_such_name
    with pytest.raises(ImportError):
        exec("from occlusion_meter import no_such_name", {})


def test_export_follows_a_rebound_submodule_attribute(monkeypatch):
    # Nothing is cached in the package, so a wrapper installed on the
    # submodule (a tracer, a mock) is seen there and gone once removed.
    original = classifier.classify_frame
    monkeypatch.setattr(classifier, "classify_frame", lambda *args: None)
    assert occlusion_meter.classify_frame is classifier.classify_frame
    monkeypatch.undo()
    assert occlusion_meter.classify_frame is original
    assert "classify_frame" not in vars(occlusion_meter)


def test_bare_import_loads_no_submodule_and_resolves_them():
    code = (
        "import sys, occlusion_meter\n"
        "print(sorted(name for name in sys.modules if name.startswith('occlusion_meter.')))\n"
        "print(occlusion_meter.synthetic.__name__, occlusion_meter.geometry.clip.__module__)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "occlusion_meter.synthetic occlusion_meter.geometry"]
