"""The package's public names, which resolve lazily from their submodules, and the functions its subcommands reach."""

import importlib
import json
import subprocess
import sys

import pytest

from conftest import FIXTURE_DIR

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


# Every function src/occlusion_meter/*.py defines that no subcommand reaches, with why it stays.
UNREACHED = {
    "occlusion_meter.__getattr__": "the package's lazy public names, for library use; the CLI imports submodules",
    "occlusion_meter.__dir__": "lists those lazy names for dir() and completion",
    "occlusion_meter.evaluation.band_confusion": "the oracle benchmark's closing step (perfbench/worker.py), traced",
    "occlusion_meter.geometry.clip": "acceptance criterion 5's clipping API; the benchmark traces it",
    "occlusion_meter.geometry.visible_area": "acceptance criterion 5's exact-area API; the benchmark traces it",
    "occlusion_meter.geometry.Polygon.__repr__": "a polygon's text in a failed assertion or a debugger",
    "occlusion_meter.model.VisibilityReport.to_dict": "the reference the JSON report writer matches byte for byte",
    "occlusion_meter.synthetic.Scene.to_dict": "the scene fingerprint the benchmark's oracle workloads read",
    "occlusion_meter.synthetic.Scene.to_json": "the scene fingerprint the benchmark's oracle workloads read",
}

# Runs cli.main in this fresh interpreter under sys.setprofile, the package's import included (the default template's
# checks run there), then prints the exit codes and every function defined in the package's files that no run called.
# Functions are told apart by code object: Python 3.10's code objects have no co_qualname.
_REACH_PROBE = r"""
import importlib, inspect, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from pathlib import Path

called = set()
sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None)
cli = importlib.import_module("occlusion_meter.cli")  # not `from occlusion_meter import`, which asks __getattr__
codes = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)


def members(owner):
    for member in vars(owner).values():
        if inspect.isclass(member) and member.__module__ == owner.__name__:
            yield from members(member)
        elif isinstance(member, property):
            yield from (member.fget, member.fset, member.fdel)
        elif isinstance(member, cached_property):
            yield member.func
        else:
            yield getattr(member, "__func__", member)  # a classmethod's or staticmethod's function


names = {}
for path in Path(sys.modules["occlusion_meter"].__file__).parent.glob("*.py"):
    module = importlib.import_module("occlusion_meter" + ("" if path.stem == "__init__" else "." + path.stem))
    for function in members(module):
        # Defined in this file: not imported from another, nor generated (a dataclass's __init__ and __eq__).
        if inspect.isfunction(function) and function.__code__.co_filename == module.__file__:
            names[function.__code__] = f"{function.__module__}.{function.__qualname__}"
print(json.dumps({"codes": codes, "unreached": sorted(names[code] for code in names.keys() - called)}))
"""


def test_every_function_is_reached_by_a_subcommand_or_listed(tmp_path):
    # The four subcommands over their formats and options, a config with wheel fractions, a frame with surplus parts
    # (pruned by confidence and bbox area) and one malformed document: a bbox of zero width, then a missing field.
    wheel = {"class": "wheel", "confidence": 0.9, "x": 100, "y": 300, "width": 100, "height": 100}
    frames = {
        "surplus": [
            wheel, dict(wheel, x=250, confidence=0.8), dict(wheel, x=175, width=90, confidence=0.7),
            dict(wheel, **{"class": "frame", "x": 175, "y": 260, "width": 120, "height": 80}),
            dict(wheel, **{"class": "frame", "x": 180, "y": 260, "width": 100, "height": 70, "confidence": 0.6}),
            dict(wheel, **{"class": "handlebar", "x": 230, "y": 210, "width": 20, "height": 10}),
        ],
        "malformed": [dict(wheel, width=0), {"class": "wheel"}],
    }
    for name, predictions in frames.items():
        document = {"image": {"id": name, "width": 640, "height": 640}, "predictions": predictions}
        (tmp_path / f"{name}.json").write_text(json.dumps(document), encoding="utf-8")
    (tmp_path / "threshold.json").write_text('{"confidence_threshold": 0.4}', encoding="utf-8")
    (tmp_path / "fractions.json").write_text('{"wheel_fractions": [[0.9, 1.0], [0.5, 0.6], [0.0, 0.3]]}', "utf-8")
    scenarios = str(FIXTURE_DIR)
    runs = [
        ["classify", f"{scenarios}/scenario_a.json"],
        ["classify", f"{scenarios}/scenario_b.json", "--format", "json", "--permissive"],
        ["batch", scenarios],
        ["batch", scenarios, "--format", "json", "--config", str(tmp_path / "threshold.json")],
        ["synth", "--scenes", "3", "--seed", "1", "--occluders", "3"],
        ["synth", "--scenes", "3", "--seed", "1", "--coverage", "0.3"],
        ["calibrate", str(FIXTURE_DIR.parent / "calibration_labels.csv")],
        ["classify", f"{scenarios}/scenario_a.json", "--config", str(tmp_path / "fractions.json")],
        ["classify", str(tmp_path / "surplus.json")],
        ["classify", str(tmp_path / "malformed.json")],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _REACH_PROBE, json.dumps(runs)], capture_output=True, text=True, check=False
    )
    assert result.returncode == 0, result.stderr
    reach = json.loads(result.stdout)
    assert reach["codes"] == [0] * 9 + [2]
    # Both ways: a function left unreached must be listed, and a listed one reached again or deleted leaves the list.
    assert set(reach["unreached"]) == set(UNREACHED)
