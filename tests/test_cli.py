"""Command line interface: exit codes, file output, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import scaledim
from scaledim import covers
from scaledim.cli import main


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


# --- estimate ----------------------------------------------------------------


def test_estimate_writes_csv_with_provenance(tmp_path):
    code, out = run(tmp_path, "e.csv", ["estimate", "--grid=-96:-24:4", "--tol", "1e-3"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "# grid: -96.0:-24.0:4"
    assert lines[2] == "log2_delta,s_lower,s_upper"
    assert lines[3] == "-24.0,0.341796875,0.361328125"
    assert lines[-1] == "-96.0,0.3349609375,0.3408203125"
    assert len(lines) == 7


def test_estimate_brackets_tighten_down_the_grid(tmp_path):
    _, out = run(tmp_path, "e.csv", ["estimate", "--grid=-96:-24:4", "--tol", "1e-3"])
    rows = [
        [float(x) for x in line.split(",")]
        for line in out.read_text().splitlines()[3:]
    ]
    for row in rows:
        assert row[1] <= row[2]
    widths = [r[2] - r[1] for r in rows]
    assert widths[-1] <= widths[0]


# --- bounds --------------------------------------------------------------------


def test_bounds_general_lower_value(tmp_path):
    code, out = run(
        tmp_path,
        "b.json",
        [
            "bounds",
            "--formula",
            "general_lower",
            "--inputs",
            '{"box_lower": 0.5, "box_upper": 0.5, "assouad": 1.0, "theta": 0.5}',
        ],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["value"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert doc["command"] == "bounds"
    assert "config_digest" in doc["provenance"]


def test_bounds_interior_formula_reports_dimension_zero_as_inapplicable(tmp_path):
    code, out = run(
        tmp_path,
        "m.json",
        [
            "bounds",
            "--formula",
            "maincty",
            "--inputs",
            '{"dim_phi_F": 0.0, "assouad": 1.0, "eta": 0.111}',
        ],
    )
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert result["applicable"] is False
    assert "dimension 0" in result["note"]


# --- carpet --------------------------------------------------------------------


def test_carpet_reference_dimensions(tmp_path):
    code, out = run(tmp_path, "c.json", ["carpet"])
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert result["dim_hausdorff"] == pytest.approx(math.log2(3.0), abs=1e-15)
    assert result["dim_box"] == pytest.approx(1.8516456890593307, abs=1e-15)
    assert result["dim_assouad"] == 2.0
    assert result["bound_gradient"] == pytest.approx(0.13734981015332892, abs=1e-15)
    assert result["external_comparison"] == 0.352


# --- phi ------------------------------------------------------------------------


def test_phi_tabulates_and_compares(tmp_path):
    code, out = run(
        tmp_path,
        "p.json",
        [
            "phi",
            "--phi",
            "power_law:0.5",
            "--phi2",
            "log_corrected",
            "--grid=-48:-12:10",
            "--format",
            "json",
        ],
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["admissibility"]["admissible"] is True
    assert doc["exponent_pair"] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert doc["precedes"]["satisfied"] is True
    assert len(doc["rows"]) == 10
    # power law rows: log2 phi is exactly twice log2 delta
    for log2_delta, log2_phi in doc["rows"]:
        assert log2_phi == pytest.approx(2.0 * log2_delta, abs=1e-12)


# --- frostman --------------------------------------------------------------------


def test_frostman_emits_atom_rows(tmp_path):
    code, out = run(tmp_path, "f.csv", ["frostman", "--s", "0.5"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "location,mass"
    assert len(lines) == 3580  # 3577 atoms after the two comment lines + header
    first = lines[3].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) > 0.0


# --- interpolate -----------------------------------------------------------------


def test_interpolate_emits_ordered_tables(tmp_path):
    code, out = run(
        tmp_path, "i.csv", ["interpolate", "--s-grid", "0.2:0.6:3", "--grid=-36:-12:3"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "s,log2_delta,log2_phi_s,at_cap"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 9
    # above the box dimension the cap flag switches on
    assert all(r[3] == "true" for r in rows if r[0] == "0.6")
    assert all(r[3] == "false" for r in rows if r[0] != "0.6")
    # at fixed scale the window bottom rises with s
    at_12 = [float(r[2]) for r in rows if r[1] == "-12.0"]
    assert at_12 == sorted(at_12)


# --- verify ----------------------------------------------------------------------


def test_verify_battery_passes(tmp_path):
    code, out = run(tmp_path, "v.json", ["verify"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "dp-matches-exhaustive",
        "window-monotonicity",
        "s-monotonicity",
        "translation-invariance",
        "sandwich-ordering",
        "holder-image-consistency",
        "mutual-dependency",
    ]
    assert all(c["pass"] for c in doc["checks"])
    assert doc["seed"] == 20260816


# --- exit codes and atomicity ------------------------------------------------------


def test_invalid_window_exponent_exits_two(tmp_path):
    out = tmp_path / "x.csv"
    code = main(["estimate", "--phi", "power_law:0.0", "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--model", '{"kind": "sequence"}'],
        ["estimate", "--phi", "power_law:abc"],
        ["estimate", "--phi", '{"variant": "power_law"}'],
        [
            "bounds", "--formula", "continuity_upper", "--inputs",
            '{"box_lower": 0.5, "box_upper": 0.5, "assouad": 1.0, "theta": 0.5}',
        ],
    ],
    ids=["model-missing-p", "phi-not-a-number", "phi-missing-theta", "bounds-missing-dim-theta"],
)
def test_malformed_spec_exits_two(tmp_path, capsys, args):
    out = tmp_path / "x.out"
    code = main(args + ["--grid=-48:-24:2", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_unordered_grid_exits_two(tmp_path):
    out = tmp_path / "x.csv"
    code = main(["estimate", "--grid=-24:-96:4", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_unreachable_resolution_exits_three(tmp_path):
    out = tmp_path / "x.json"
    code = main(
        ["frostman", "--s", "0.6", "--base", "3", "--log2-delta", "-60",
         "--format", "json", "--out", str(out)]
    )
    assert code == 3
    assert not out.exists()


def test_frostman_cube_indices_past_64_bits_exit_three(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(
        ["frostman", "--model", '{"kind": "point", "location": 0.3}', "--s", "0.5",
         "--log2-delta", "-36", "--out", str(out)]
    )
    assert code == 3
    assert capsys.readouterr().err == "error: level-16 cube indices do not fit in 64 bits\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "model",
    [
        '{"kind": "point", "location": NaN}',
        '{"kind": "point", "location": Infinity}',
        '{"kind": "sequence", "p": 1.0, "offset": -Infinity}',
        '{"kind": "grid", "spacing": 0.1, "offset": NaN}',
        '{"kind": "cantor", "blocks": [[8, 0.25]], "offset": Infinity}',
    ],
    ids=["point-nan", "point-inf", "sequence-minus-inf", "grid-nan", "cantor-inf"],
)
def test_frostman_non_finite_position_exits_two(tmp_path, capsys, model):
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["frostman", "--model", model, "--s", "0.5", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err


@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_exits_two(tmp_path, capsys, via):
    out = tmp_path / "v.json"
    if via == "flag":
        args = ["verify", "--seed", "-1"]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": -1}))
        args = ["verify", "--config", str(cfg)]
    code = main(args + ["--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_out_exits_two(tmp_path, capsys, target):
    out = tmp_path / target
    code = main(["carpet", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write --out ")
    assert os.listdir(tmp_path) == []  # no temp file left behind


def test_cover_graph_over_the_move_budget_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(covers, "_MOVE_CAP", 1000)
    out = tmp_path / "x.json"
    model = '{"kind": "holder", "base": {"kind": "sequence", "p": 1.0}, "alpha": 0.5}'
    code = main(
        ["interpolate", "--model", model, "--grid=-5.5:-5:2", "--s-grid", "0.3:0.5:2",
         "--out", str(out)]
    )
    assert code == 3
    assert "exceeded 1000 moves" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_with_tol_below_float_spacing_ends(tmp_path):
    # both bisections used to run forever here, so the run is a child
    # process that a timeout can stop
    out = tmp_path / "e.csv"
    src = os.path.dirname(os.path.dirname(scaledim.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "scaledim.cli", "estimate", "--tol", "1e-300",
         "--grid=-24:-24:2", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    _, fine = run(tmp_path, "fine.csv", ["estimate", "--tol", "1e-12", "--grid=-24:-24:2"])
    row = [float(v) for v in out.read_text().splitlines()[3].split(",")]
    fine_row = [float(v) for v in fine.read_text().splitlines()[3].split(",")]
    assert row == pytest.approx(fine_row, abs=1e-12)


# --- determinism and configuration ---------------------------------------------------


@pytest.mark.parametrize(
    "name,args",
    [
        ("estimate.csv", ["estimate", "--grid=-96:-24:4"]),
        (
            "bounds.json",
            [
                "bounds",
                "--formula",
                "general_lower",
                "--inputs",
                '{"box_lower": 0.5, "box_upper": 0.5, "assouad": 1.0, "theta": 0.5}',
            ],
        ),
        ("phi.csv", ["phi", "--grid=-48:-12:10"]),
        ("frostman.csv", ["frostman", "--s", "0.5"]),
        ("interpolate.csv", ["interpolate", "--s-grid", "0.2:0.6:3", "--grid=-36:-12:3"]),
        ("carpet.json", ["carpet"]),
        ("verify.json", ["verify"]),
    ],
)
def test_repeat_runs_are_byte_identical(tmp_path, name, args):
    _, first = run(tmp_path, "a_" + name, args)
    _, second = run(tmp_path, "b_" + name, args)
    assert first.read_bytes() == second.read_bytes()


def test_config_file_supplies_defaults_flags_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"phi": "power_law:0.25", "grid": "-120:-60:3", "tol": 1e-2})
    )
    out = tmp_path / "e.csv"
    code = main(
        ["estimate", "--config", str(cfg), "--tol", "1e-3", "--out", str(out)]
    )
    assert code == 0
    rows = [
        [float(x) for x in line.split(",")]
        for line in out.read_text().splitlines()[3:]
    ]
    # theta = 0.25 on the p=1 sequence: dimension 0.25/1.25 = 0.2
    mid = 0.5 * (rows[-1][1] + rows[-1][2])
    assert mid == pytest.approx(0.2, abs=0.01)
    # flag tolerance (1e-3) beat the config file's 1e-2: bracket is tight
    assert rows[-1][2] - rows[-1][1] <= 2e-2


def test_unknown_config_key_exits_two(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"phii": "power_law:0.25"}))
    out = tmp_path / "e.csv"
    code = main(["estimate", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"tol": "abc"},
        {"seed": "x"},
        {"base": "x"},
        {"s": "x"},
        {"log2_delta": "x"},
        {"grid": 5},
        {"s_grid": 5},
        {"seed": 1e300 * 1e300},
        {"alphas": ["x"]},
    ],
    ids=lambda cfg: "-".join(f"{k}={v}" for k, v in cfg.items()),
)
def test_malformed_config_values_exit_two(tmp_path, capsys, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.json"
    code = main(["carpet", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["phi", "--phi2", "log_corrected", "--alphas", "x"],
        ["frostman", "--base", "1"],
        ["frostman", "--base", "0"],
        ["frostman", "--base", "-3"],
        ["phi", "--grid=-inf:-1:3"],
        ["phi", "--grid=-4:nan:3"],
        ["interpolate", "--s-grid", "0.2:inf:3"],
    ],
    ids=lambda args: " ".join(args),
)
def test_malformed_flags_exit_two(tmp_path, capsys, args):
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args + ["--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")
