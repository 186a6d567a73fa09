"""The package's names, each imported from the module that defines it, and the functions its subcommands reach."""

import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR

import occlusion_meter

README = Path(__file__).resolve().parent.parent / "README.md"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'occlusion_meter' has no attribute 'no_such_name'$"):
        occlusion_meter.no_such_name
    with pytest.raises(ImportError):
        exec("from occlusion_meter import no_such_name", {})


def test_bare_import_loads_no_submodule():
    code = "import sys, occlusion_meter\nprint([name for name in sys.modules if name.startswith('occlusion_meter.')])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]


def package_layout_rows():
    """The README's "Package layout" table: each row's module and the backticked names in its contents."""
    section = README.read_text(encoding="utf-8").split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(occlusion_meter\.\w+)` \| (.*) \|$", section, re.MULTILINE)
    names = r"`([A-Za-z_]\w*(?:\.\w+)*)`"
    return [(module, list(dict.fromkeys(re.findall(names, contents)))) for module, contents in rows]


def defined_names(module):
    """The public classes and functions ``module`` defines, not those it imports."""
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == module.__name__
    }


PACKAGE_LAYOUT = package_layout_rows()


def test_package_layout_has_a_row_per_module():
    package = Path(occlusion_meter.__file__).parent
    assert sorted(module for module, _ in PACKAGE_LAYOUT) == sorted(
        f"occlusion_meter.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"
    )


@pytest.mark.parametrize("module, names", PACKAGE_LAYOUT, ids=[module for module, _ in PACKAGE_LAYOUT])
def test_package_layout_lists_every_definition(module, names):
    # The table is the package's one index of names: a module's row names every public class and function it defines.
    assert defined_names(importlib.import_module(module)) - set(names) == set()


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in PACKAGE_LAYOUT for name in names],
    ids=[f"{module.rsplit('.', 1)[1]}:{name}" for module, names in PACKAGE_LAYOUT for name in names],
)
def test_package_layout_name_resolves(module, name):
    # Each Python name in a row is an attribute of that row's module, or, when dotted (classifier.occlusion_band), of
    # the package's submodule it names. A class or function listed undotted is defined there: its one import path.
    first, *rest = name.split(".")
    target = importlib.import_module(f"occlusion_meter.{first}" if rest else module)
    for attribute in rest or [first]:
        assert hasattr(target, attribute), f"{module}: {name}"
        target = getattr(target, attribute)
    if not rest and (inspect.isclass(target) or inspect.isfunction(target)):
        assert target.__module__ == module


# Every function src/occlusion_meter/*.py defines that no subcommand reaches, with why it stays.
UNREACHED = {
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
cli = importlib.import_module("occlusion_meter.cli")
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
    # (pruned by confidence and bbox area), one malformed document (a bbox of zero width, then a missing field) and the
    # same zero-width bbox after an unknown label, both dropped by --permissive.
    wheel = {"class": "wheel", "confidence": 0.9, "x": 100, "y": 300, "width": 100, "height": 100}
    frames = {
        "surplus": [
            wheel, dict(wheel, x=250, confidence=0.8), dict(wheel, x=175, width=90, confidence=0.7),
            dict(wheel, **{"class": "frame", "x": 175, "y": 260, "width": 120, "height": 80}),
            dict(wheel, **{"class": "frame", "x": 180, "y": 260, "width": 100, "height": 70, "confidence": 0.6}),
            dict(wheel, **{"class": "handlebar", "x": 230, "y": 210, "width": 20, "height": 10}),
        ],
        "malformed": [dict(wheel, width=0), {"class": "wheel"}],
        "droppable": [dict(wheel, **{"class": "pedal"}), dict(wheel, width=0), wheel],
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
        ["classify", str(tmp_path / "droppable.json"), "--permissive"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _REACH_PROBE, json.dumps(runs)], capture_output=True, text=True, check=False
    )
    assert result.returncode == 0, result.stderr
    reach = json.loads(result.stdout)
    assert reach["codes"] == [0] * 9 + [2, 0]
    # Both ways: a function left unreached must be listed, and a listed one reached again or deleted leaves the list.
    assert set(reach["unreached"]) == set(UNREACHED)
