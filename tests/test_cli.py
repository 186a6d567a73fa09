import ast
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_CONFIG_IDS, BAD_CONFIGS, FIXTURE_DIR, INT_DIGIT_LIMIT
from occlusion_meter.cli import EXIT_INPUT, EXIT_OK, main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_fully_visible_scenario(self, capsys):
        code, out, err = run_main(capsys, "classify", str(FIXTURE_DIR / "scenario_e.json"))
        assert code == EXIT_OK
        assert "scenario_e,0,82.0,17.0,1.0,100.0,0.0,low_or_none" in out

    def test_json_format_full_precision(self, capsys):
        code, out, _ = run_main(capsys, "classify", str(FIXTURE_DIR / "scenario_a.json"), "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data) == 1
        assert data[0]["visibility_pct"] == pytest.approx(87.7, abs=0.05)
        assert data[0]["band"] == "partial"

    def test_malformed_file_exits_2_and_names_path(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_main(capsys, "classify", str(bad))
        assert code == EXIT_INPUT
        assert str(bad) in err
        assert "malformed JSON" in err

    @pytest.mark.parametrize(
        "document, path",
        [
            ('{"image": {"id": "f", "width": Infinity, "height": 640}, "predictions": []}', "image.width"),
            (
                '{"image": {"id": "f", "width": 640, "height": 640}, "predictions": [{"class": "wheel", '
                '"confidence": 0.9, "x": NaN, "y": 320, "width": 100, "height": 100}]}',
                "predictions[0].x",
            ),
        ],
    )
    @pytest.mark.parametrize("permissive", [(), ("--permissive",)])
    def test_non_finite_number_exits_2_and_names_path(self, tmp_path, capsys, document, path, permissive):
        bad = tmp_path / "non_finite.json"
        bad.write_text(document, encoding="utf-8")
        code, out, err = run_main(capsys, "classify", str(bad), *permissive)
        assert code == EXIT_INPUT
        assert f"{path}: expected a finite number" in err
        assert "internal error" not in err
        assert out == ""

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_main(capsys, "classify", "/nonexistent/input.json")
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_empty_after_filter_warns_but_succeeds(self, tmp_path, capsys):
        doc = {
            "image": {"id": "faint", "width": 640, "height": 640},
            "predictions": [
                {"class": "wheel", "confidence": 0.2, "x": 100, "y": 100, "width": 50, "height": 50}
            ],
        }
        path = tmp_path / "faint.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_main(capsys, "classify", str(path))
        assert code == EXIT_OK
        assert "warning" in err
        assert out.splitlines()[0].startswith("image_id,")
        assert len(out.splitlines()) == 1

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "reports.csv"
        code, out, _ = run_main(capsys, "classify", str(FIXTURE_DIR / "scenario_d.json"), "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert "scenario_d,0,20.5,0.0,0.0,20.5,79.5,heavy" in target.read_text()

    def test_config_file_overrides_threshold(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"confidence_threshold": 0.95}), encoding="utf-8")
        code, out, _ = run_main(
            capsys, "classify", str(FIXTURE_DIR / "scenario_a.json"), "--config", str(config_path)
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1  # every prediction filtered out

    def test_config_env_var(self, tmp_path, capsys, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"confidence_threshold": 0.95}), encoding="utf-8")
        monkeypatch.setenv("OCCLUSION_METER_CONFIG", str(config_path))
        code, out, _ = run_main(capsys, "classify", str(FIXTURE_DIR / "scenario_a.json"))
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"confidence_threshold": 0.95}), encoding="utf-8")
        code, out, _ = run_main(
            capsys,
            "classify",
            str(FIXTURE_DIR / "scenario_a.json"),
            "--config",
            str(config_path),
            "--confidence-threshold",
            "0.5",
        )
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2


class TestBatch:
    def test_all_fixtures_summary(self, capsys):
        code, out, _ = run_main(capsys, "batch", str(FIXTURE_DIR))
        assert code == EXIT_OK
        assert out.count("scenario_") == 9
        assert "visibility_mean=74.59" in out
        assert "visibility_min=20.50" in out
        assert "visibility_max=100.00" in out

    def test_rerun_byte_identical(self, capsys):
        _, first, _ = run_main(capsys, "batch", str(FIXTURE_DIR))
        _, second, _ = run_main(capsys, "batch", str(FIXTURE_DIR))
        assert first == second

    def test_lexicographic_order(self, capsys):
        _, out, _ = run_main(capsys, "batch", str(FIXTURE_DIR))
        ids = [line.split(",")[0] for line in out.splitlines()[1:10]]
        assert ids == sorted(ids)

    def test_empty_directory_header_only_with_warning(self, tmp_path, capsys):
        code, out, err = run_main(capsys, "batch", str(tmp_path))
        assert code == EXIT_OK
        assert "warning" in err
        assert out.splitlines()[0].startswith("image_id,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["missing_dir", "scenario_a.json"])
    def test_path_not_a_directory_exit_2_naming_it(self, tmp_path, capsys, fmt, name):
        (tmp_path / "scenario_a.json").write_bytes((FIXTURE_DIR / "scenario_a.json").read_bytes())
        path = tmp_path / name
        code, out, err = run_main(capsys, "batch", str(path), "--format", fmt)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.splitlines() == [f"error: {path}: not a directory"]

    def test_json_format_bundles_summary(self, capsys):
        code, out, _ = run_main(capsys, "batch", str(FIXTURE_DIR), "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["reports"]) == 9
        assert data["summary"]["visibility_mean"] == pytest.approx(74.59, abs=0.005)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_names_every_bad_file(self, tmp_path, capsys, fmt):
        (tmp_path / "a.json").write_bytes((FIXTURE_DIR / "scenario_a.json").read_bytes())
        (tmp_path / "b.json").write_text('{"image": 5}', encoding="utf-8")
        (tmp_path / "c.json").write_text("not json", encoding="utf-8")
        (tmp_path / "d.json").write_bytes(b"\xff{")
        (tmp_path / "e.json").mkdir()
        if INT_DIGIT_LIMIT:
            huge = "1" + "0" * INT_DIGIT_LIMIT
            (tmp_path / "d_int.json").write_text(f'{{"image": {{"id": "d", "width": {huge}, "height": 640}}}}')
        code, out, err = run_main(capsys, "batch", str(tmp_path), "--format", fmt)
        assert code == EXIT_INPUT
        assert out == ""
        lines = err.splitlines()
        if INT_DIGIT_LIMIT:
            assert lines.pop(3).startswith(f"error: {tmp_path / 'd_int.json'}: malformed JSON: Exceeds the limit (")
        *parsed, unreadable = lines
        assert parsed == [
            f"error: {tmp_path / 'b.json'}: image: expected an object",
            f"error: {tmp_path / 'c.json'}: malformed JSON: Expecting value: line 1 column 1 (char 0)",
            f"error: {tmp_path / 'd.json'}: malformed JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte",
        ]
        assert unreadable.startswith("error: ") and str(tmp_path / "e.json") in unreadable


def deeply_nested(depth=100_000):
    return "[" * depth + "]" * depth


class TestDeeplyNestedJson:
    """JSON nested past the decoder's recursion limit is an input error naming the file, not an internal error."""

    def test_classify(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"image": {"id": "d", "width": 640, "height": 640}, "predictions": ' + deeply_nested() + "}")
        code, out, err = run_main(capsys, "classify", str(path))
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {path}: JSON nested too deeply\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_batch_names_the_file(self, tmp_path, capsys, fmt):
        (tmp_path / "a.json").write_bytes((FIXTURE_DIR / "scenario_a.json").read_bytes())
        (tmp_path / "b.json").write_text(deeply_nested(), encoding="utf-8")
        code, out, err = run_main(capsys, "batch", str(tmp_path), "--format", fmt)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {tmp_path / 'b.json'}: JSON nested too deeply\n")

    @pytest.mark.parametrize("command", ["classify", "batch", "synth"])
    def test_config_file(self, tmp_path, capsys, monkeypatch, command):
        config = tmp_path / "config.json"
        config.write_text('{"wheel_fractions": ' + deeply_nested() + "}", encoding="utf-8")
        argv = {"classify": [str(FIXTURE_DIR / "scenario_a.json")], "batch": [str(FIXTURE_DIR)],
                "synth": ["--scenes", "1", "--seed", "1"]}[command]
        expected = (EXIT_INPUT, "", f"error: {config}: JSON nested too deeply\n")
        assert run_main(capsys, command, *argv, "--config", str(config)) == expected
        monkeypatch.setenv("OCCLUSION_METER_CONFIG", str(config))
        assert run_main(capsys, command, *argv) == expected


UNREADABLE_CONFIGS = [
    pytest.param(b"{", "malformed JSON: Expecting property name enclosed in double quotes", id="malformed"),
    pytest.param(b"\xff{", "malformed JSON: 'utf-8' codec can't decode byte 0xff", id="bad-utf8"),
    pytest.param(b'{"nope": 1}', "nope: unknown field", id="unknown-field"),
    pytest.param(
        b'{"confidence_threshold": 1' + b"0" * INT_DIGIT_LIMIT + b"}", "malformed JSON: Exceeds the limit (",
        id="int-past-digit-limit", marks=pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no int digit limit"),
    ),
]


class TestConfigFile:
    """A config file that cannot be read as a config is an input error naming the file, for every command."""

    @pytest.mark.parametrize("document, message", UNREADABLE_CONFIGS)
    @pytest.mark.parametrize("command", ["classify", "batch", "synth"])
    def test_names_the_file(self, tmp_path, capsys, monkeypatch, command, document, message):
        config = tmp_path / "config.json"
        config.write_bytes(document)
        argv = {"classify": [str(FIXTURE_DIR / "scenario_a.json")], "batch": [str(FIXTURE_DIR)],
                "synth": ["--scenes", "1", "--seed", "1"]}[command]

        def check(*extra):
            code, out, err = run_main(capsys, command, *argv, *extra)
            assert (code, out) == (EXIT_INPUT, "")
            assert err.startswith(f"error: {config}: {message}") and err.count("\n") == 1

        check("--config", str(config))
        monkeypatch.setenv("OCCLUSION_METER_CONFIG", str(config))
        check()


class TestSynth:
    def test_single_clean_scene(self, capsys):
        code, out, _ = run_main(capsys, "synth", "--scenes", "1", "--seed", "7", "--occluders", "0")
        assert code == EXIT_OK
        assert "mean_abs_error=0.0000" in out
        assert "band_agreement_rate=1.0000" in out

    def test_rerun_identical(self, capsys):
        args = ("synth", "--scenes", "5", "--seed", "3")
        _, first, _ = run_main(capsys, *args)
        _, second, _ = run_main(capsys, *args)
        assert first == second
        assert "confusion" not in first  # matrix rendered with band labels
        assert "low_or_none" in first

    def test_fixed_coverage(self, capsys):
        code, out, _ = run_main(capsys, "synth", "--scenes", "2", "--seed", "1", "--coverage", "0.3")
        assert code == EXIT_OK
        assert "coverage=0.3" in out


    def test_crowded_scenes(self, capsys):
        code, out, _ = run_main(capsys, "synth", "--scenes", "20", "--seed", "7", "--occluders", "6")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "scenes=20 seed=7 occluders=6 coverage=random"
        for line, key in zip(lines[1:4], ("mean_abs_error", "max_abs_error", "band_agreement_rate")):
            assert line.startswith(f"{key}=")
            float(line.split("=", 1)[1])
        assert lines[4].startswith("exact \\ estimated")
        rows = [line.split() for line in lines[5:]]
        assert [row[0] for row in rows] == ["low_or_none", "partial", "heavy", "severe"]
        assert sum(int(v) for row in rows for v in row[1:]) == 20


    @pytest.mark.parametrize("floor, message", [
        ("-1", "detectability_floor must be in [0, 1], got -1.0"),
        ("5", "detectability_floor must be in [0, 1], got 5.0"),
        ("NaN", "detectability_floor: expected a finite number, got nan"),
    ])
    def test_bad_detectability_floor_exits_2(self, tmp_path, capsys, floor, message):
        config = tmp_path / "config.json"
        config.write_text(f'{{"detectability_floor": {floor}}}', encoding="utf-8")
        code, out, err = run_main(capsys, "synth", "--scenes", "1", "--seed", "1", "--config", str(config))
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {config}: {message}\n")

    @pytest.mark.parametrize("document, message", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_bad_config_exits_2_naming_field(self, tmp_path, capsys, monkeypatch, document, message):
        config = tmp_path / "config.json"
        config.write_text(document, encoding="utf-8")
        code, _, err = run_main(capsys, "synth", "--scenes", "1", "--seed", "1", "--config", str(config))
        assert code == EXIT_INPUT
        assert err.startswith(f"error: {config}: {message}") and err.count("\n") == 1
        monkeypatch.setenv("OCCLUSION_METER_CONFIG", str(config))
        code, _, err = run_main(capsys, "synth", "--scenes", "1", "--seed", "1")
        assert code == EXIT_INPUT
        assert err.startswith(f"error: {config}: {message}") and err.count("\n") == 1


class TestCalibrate:
    def _write_labels(self, path, rows, header="width,height,fraction"):
        lines = [header] + [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_recovers_default_thresholds(self, tmp_path, capsys):
        rows = []
        for i in range(1, 101):
            ratio = i / 100
            fraction = 1.0 if ratio >= 0.85 else 0.7 if ratio >= 0.6 else 0.5 if ratio >= 0.45 else 0.4
            rows.append((100, i, fraction))
        labels = tmp_path / "labels.csv"
        self._write_labels(labels, rows)
        code, out, _ = run_main(capsys, "calibrate", str(labels))
        assert code == EXIT_OK
        config = json.loads(out)
        assert [pair[0] for pair in config["wheel_fractions"]] == [0.85, 0.6, 0.45, 0.0]

    def test_corner_based_labels(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        self._write_labels(
            labels,
            [(0, 0, 100, 90, 1.0), (0, 0, 100, 70, 0.7), (0, 0, 100, 50, 0.5), (0, 0, 100, 30, 0.4)],
            header="x_min,y_min,x_max,y_max,fraction",
        )
        code, out, _ = run_main(capsys, "calibrate", str(labels), "--grid-step", "0.05")
        assert code == EXIT_OK
        config = json.loads(out)
        assert len(config["wheel_fractions"]) == 4

    def test_conflicting_labels_exit_2(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        self._write_labels(labels, [(100, 70, 1.0), (100, 70, 0.5)])
        code, _, err = run_main(capsys, "calibrate", str(labels))
        assert code == EXIT_INPUT
        assert "conflicting labels" in err

    def test_empty_file_exits_2(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("", encoding="utf-8")
        code, out, err = run_main(capsys, "calibrate", str(labels))
        assert (code, out) == (EXIT_INPUT, "")
        assert f"{labels}: empty labels file" in err and "internal error" not in err

    def test_bad_header_exit_2(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("a,b\n1,2\n", encoding="utf-8")
        code, _, err = run_main(capsys, "calibrate", str(labels))
        assert code == EXIT_INPUT
        assert "labels need columns" in err

    @pytest.mark.parametrize(
        "text, where, what",
        [
            ("width,height,fraction\n10,10\n", "line 2, column fraction", "got None"),
            ("width,height,fraction\n100,90,1.0\nabc,10,1\n", "line 3, column width", "got 'abc'"),
            ("width,height,fraction\nnan,10,1\n", "line 2, column width", "got 'nan'"),
            ("width,height,fraction\n10,-inf,1\n", "line 2, column height", "got '-inf'"),
            ("x_min,y_min,x_max,y_max,fraction\n0,0,10,\n", "line 2, column y_max", "got ''"),
            ("width,height,fraction\n0,10,1\n", "line 2", "positive width and height"),
        ],
        ids=["short-row", "not-a-number", "nan", "infinite", "empty-cell", "zero-width"],
    )
    def test_bad_cell_exits_2_naming_line_and_column(self, tmp_path, capsys, text, where, what):
        labels = tmp_path / "labels.csv"
        labels.write_text(text, encoding="utf-8")
        code, _, err = run_main(capsys, "calibrate", str(labels))
        assert code == EXIT_INPUT
        assert f"{labels}, {where}" in err and what in err and "internal error" not in err

    def test_unreadable_csv_exits_2(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("width,height,fraction\n1,1,1\n2," + "9" * 200_000 + ",1\n", encoding="utf-8")
        code, _, err = run_main(capsys, "calibrate", str(labels))
        assert code == EXIT_INPUT
        assert f"{labels}: field larger than field limit" in err

    def test_labels_not_utf8_exit_2_naming_file(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"width,height,fraction\n100,90,1.0\n\xff\n")
        code, _, err = run_main(capsys, "calibrate", str(labels))
        assert code == EXIT_INPUT
        assert f"{labels}: 'utf-8' codec can't decode byte 0xff" in err and "internal error" not in err

    def test_grid_step_below_limit_exits_2(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        self._write_labels(labels, [(100, 90, 1.0)])
        code, out, err = run_main(capsys, "calibrate", str(labels), "--grid-step", "1e-9")
        assert (code, out) == (EXIT_INPUT, "")
        assert "grid_step must be in [0.005, 0.5), got 1e-09" in err


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "occlusion_meter.cli", "classify", str(FIXTURE_DIR / "scenario_e.json")],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == EXIT_OK
        assert "100.0,0.0,low_or_none" in result.stdout

    def test_runtime_loads_no_numpy(self):
        # The package is stdlib-only; numpy is a test dependency.
        code = (
            "import sys, occlusion_meter.cli\n"
            "from occlusion_meter.synthetic import estimator_error, generate_scene\n"
            "estimator_error(generate_scene(1, 3, 0.4))\n"
            "print('numpy' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


# Runs cli.main on its arguments in this fresh interpreter, its stdout discarded, then prints the exit code and the
# modules loaded since start-up: those site loaded before the first line are not counted.
_LOADS_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import io\n"
    "from contextlib import redirect_stdout\n"
    "from occlusion_meter import cli\n"
    "with redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(repr((code, sorted(set(sys.modules) - before))))"
)
# The modules only some calls load.
_CALL_LOADED = ("logging", "occlusion_meter.evaluation", "occlusion_meter.synthetic", "occlusion_meter.geometry")


def loaded_by(*argv):
    """The exit code, the stderr and the loaded modules of ``cli.main(argv)`` in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", _LOADS_PROBE, *argv], capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    code, loaded = ast.literal_eval(result.stdout)
    return code, result.stderr, set(loaded)


@pytest.mark.parametrize(
    ("argv", "loads"),
    [
        (["classify", str(FIXTURE_DIR / "scenario_a.json")], set()),
        (["classify", str(FIXTURE_DIR / "scenario_b.json"), "--format", "json"], set()),
        (["calibrate", str(FIXTURE_DIR.parent / "calibration_labels.csv")], set()),
        (["batch", str(FIXTURE_DIR)], {"occlusion_meter.evaluation"}),
        (["batch", str(FIXTURE_DIR), "--format", "json"], {"occlusion_meter.evaluation"}),
        (["synth", "--scenes", "2", "--seed", "1"], set(_CALL_LOADED) - {"logging"}),
    ],
    ids=["classify-csv", "classify-json", "calibrate", "batch-csv", "batch-json", "synth"],
)
def test_a_subcommand_loads_only_what_it_uses(argv, loads):
    # logging only for a permissive drop, evaluation only for batch's summary and synth's confusion, the oracle only
    # for synth.
    code, err, loaded = loaded_by(*argv)
    assert (code, err) == (EXIT_OK, "")
    assert loaded.intersection(_CALL_LOADED) == loads


def test_a_permissive_drop_loads_logging_to_warn(tmp_path):
    wheel = {"class": "wheel", "confidence": 0.9, "x": 100, "y": 300, "width": 100, "height": 100}
    path = tmp_path / "pedal.json"
    path.write_text(json.dumps({"image": {"id": "p", "width": 640, "height": 640}, "predictions": [
        dict(wheel, **{"class": "pedal"}), wheel,
    ]}), encoding="utf-8")
    code, err, loaded = loaded_by("classify", str(path), "--permissive")
    assert (code, err) == (EXIT_OK, "dropping predictions[0]: unknown part label: pedal\n")
    assert loaded.intersection(_CALL_LOADED) == {"logging"}


def test_the_oracle_loads_no_reader_writer_or_logging():
    # One scene's estimate against its ground truth: json only Scene.to_json, evaluation only a batch's stats need.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from occlusion_meter.synthetic import estimator_error, generate_scene\n"
        "estimator_error(generate_scene(1, 1, 0.3))\n"
        "print(repr(sorted(set(sys.modules) - before)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    loaded = set(ast.literal_eval(result.stdout))
    assert "occlusion_meter.geometry" in loaded
    assert loaded.intersection(("json", "logging", "occlusion_meter.evaluation", "occlusion_meter.ingest")) == set()

# JSON values of every type, with numbers at the edges: non-finite floats,
# ints beyond the float range, subnormals.
_numbers = st.one_of(
    st.integers(-1000, 1000),
    st.floats(),
    st.sampled_from([1e308, -1e308, 5e-324, 10**400, -(10**400), 2**63]),
)
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _or_junk(plausible):
    # Two draws in three are well formed, so a document gets past its first field.
    return st.one_of(plausible, plausible, _json)


def _optional(**entries):
    return st.fixed_dictionaries({}, optional={k: _or_junk(v) for k, v in entries.items()})


_coordinate = st.floats(-50, 700)
_point = _or_junk(st.fixed_dictionaries({"x": _or_junk(_coordinate), "y": _or_junk(_coordinate)}))
_prediction = st.fixed_dictionaries(
    {
        "class": _or_junk(st.sampled_from(["wheel", " Frame", "handlebar", "pedal"])),
        "confidence": _or_junk(st.floats(0, 1)),
    },
    optional={
        **{k: _or_junk(_coordinate) for k in ("x", "y", "width", "height", "x_min", "y_min", "x_max", "y_max")},
        "points": _or_junk(st.lists(_point, max_size=5)),
    },
)
_image = st.fixed_dictionaries(
    {"id": _or_junk(st.text(max_size=4)), "width": _or_junk(st.integers(1, 2000)), "height": _or_junk(st.integers(1, 2000))}
)
_document = _or_junk(
    st.fixed_dictionaries(
        {"image": _or_junk(_image), "predictions": _or_junk(st.lists(_or_junk(_prediction), max_size=6))}
    )
)
_config = _or_junk(
    _optional(
        confidence_threshold=st.floats(0, 1),
        wheel_fractions=st.lists(st.lists(st.floats(0, 1) | _numbers, min_size=2, max_size=2), max_size=5),
        detectability_floor=st.floats(0, 1),
        grouping_distance_factor=st.floats(0, 10),
        area_model=_optional(wheel_share_pct=_numbers, frame_share_pct=_numbers, handlebar_share_pct=_numbers),
    )
)


# Label CSVs: a known or junk header, then rows of number-like, junk or missing cells.
_cell = st.one_of(
    st.floats(0, 200).map(str),
    st.sampled_from(["1.0", "0.7", "0.5", "0.4", "0", "-1", "nan", "inf", "1e999", "", " 7 ", "1_0", "0x1"]),
    st.text(max_size=4),
)
_labels = st.tuples(
    st.sampled_from(["width,height,fraction", "x_min,y_min,x_max,y_max,fraction", "fraction,width", ""]),
    st.lists(st.lists(_cell, max_size=6).map(",".join), max_size=6),
).map(lambda t: "\n".join([t[0], *t[1]]) + "\n")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestInputContractFuzz:
    """Every input ends in a report (exit 0) or an input error (exit 2), never an internal error."""

    @given(document=_document, config=st.none() | _config, permissive=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_classify_exits_0_or_2(self, fuzz_dir, document, config, permissive):
        path = fuzz_dir / "detections.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = ["classify", str(path)] + ["--permissive"] * permissive
        if config is not None:
            config_path = fuzz_dir / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(config_path)]
        code, err = _exit_code(argv)
        assert code in (EXIT_OK, EXIT_INPUT), err

    @given(config=_config)
    @settings(max_examples=60, deadline=None)
    def test_synth_exits_0_or_2(self, fuzz_dir, config):
        path = fuzz_dir / "synth_config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, err = _exit_code(["synth", "--scenes", "1", "--seed", "3", "--config", str(path)])
        assert code in (EXIT_OK, EXIT_INPUT), err

    @given(labels=_labels)
    @settings(max_examples=150, deadline=None)
    def test_calibrate_exits_0_or_2(self, fuzz_dir, labels):
        path = fuzz_dir / "labels.csv"
        path.write_text(labels, encoding="utf-8")
        code, err = _exit_code(["calibrate", str(path), "--grid-step", "0.1"])
        assert code in (EXIT_OK, EXIT_INPUT), err
