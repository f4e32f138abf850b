"""Command line interface: exit codes, file output, determinism."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import scaledim
from scaledim import cli, covers
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


def test_estimate_labels_a_deep_cantor_schedule_briefly(tmp_path, capsys):
    code, out = run(
        tmp_path,
        "e.json",
        ["estimate", "--model", '{"kind": "cantor", "blocks": [[1e308, 0.3]]}',
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out.read_text())["model"] == "cantor[1e+308x0.3]@0"
    assert capsys.readouterr().out.startswith("estimate[cantor[1e+308x0.3]@0]: ")


# --- bounds --------------------------------------------------------------------


def test_bounds_csv_quotes_a_field_with_a_comma(tmp_path):
    code, out = run(
        tmp_path,
        "b.csv",
        ["bounds", "--formula", "maincty", "--format", "csv", "--inputs",
         '{"dim_phi_F": 0, "assouad": 1, "eta": 0.5}'],
    )
    assert code == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert lines[-1] == 'note,"bound not applicable, dimension 0 case"'
    rows = list(csv.reader(lines))
    assert rows[-1] == ["note", "bound not applicable, dimension 0 case"]
    assert all(len(row) == 2 for row in rows)


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


def test_verify_battery_reports_a_violation(tmp_path, capsys, monkeypatch):
    # a translation that moves the set to another set breaks invariance
    monkeypatch.setattr(cli, "translate", lambda model, dx: scaledim.SequenceSet(2.0))
    code, out = run(tmp_path, "v.json", ["verify"])
    assert code == 0  # finding a violation is the report, not an error
    doc = json.loads(out.read_text())
    assert doc["pass"] is False
    failed = [c for c in doc["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["translation-invariance"]
    assert failed[0]["detail"]["max_abs_diff"] > 1e-12
    assert failed[0]["detail"]["instances"] == 20
    assert capsys.readouterr().out == f"verify: FAIL (6/7 checks) -> {out}\n"


# --- exit codes and atomicity ------------------------------------------------------


def test_invalid_window_exponent_exits_two(tmp_path):
    out = tmp_path / "x.csv"
    code = main(["estimate", "--phi", "power_law:0.0", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def _min_family_active_below(value: str) -> str:
    member = '{"variant": "power_law", "params": {"theta": 0.5}}'
    return (
        '{"variant": "min_family", "params": {"members": [%s], "active_below": [%s]}}'
        % (member, value)
    )


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
        ["estimate", "--model", '{"kind": "sequence", "p": true}'],
        [
            "carpet", "--model",
            '{"kind": "carpet", "m": 2.7, "n": 100, "column_counts": [1, 100]}',
        ],
        ["estimate", "--model", '{"kind": "cantor", "blocks": [[true, 0.25]]}'],
        ["estimate", "--phi", '{"variant": "stretched_exp", "params": {"c": true}}'],
        # -1 was the "derive the default" sentinel: it exited 0 with domain_upper 1.0
        [
            "estimate", "--phi",
            '{"variant": "stretched_exp", "params": {"c": 0.5}, "domain_upper": -1}',
        ],
        [
            "bounds", "--formula", "general_lower", "--inputs",
            '{"box_lower": 0.5, "box_upper": 0.5, "assouad": true}',
        ],
        ["phi", "--phi", _min_family_active_below('"a"')],
        ["phi", "--phi", _min_family_active_below("true")],
        [
            "phi", "--phi",
            '{"variant": "tabulated", "params": {"log_breakpoints": [[-30, -60], [true, -2]]}}',
        ],
        [
            "phi", "--phi",
            '{"variant": "tabulated", "params": {"breakpoints": [[0.5, 0.1], [0.25, true]]}}',
        ],
        [
            "phi", "--phi",
            '{"variant": "interpolated", "params": {"s": 1, "model_id": "p",'
            ' "log_breakpoints": [[-30, -60], [-10, true]]}}',
        ],
        # non-finite bound inputs wrote NaN, 0.5 or inf and exited 0
        [
            "bounds", "--formula", "holder", "--inputs",
            '{"alpha": 0.5, "gamma": 1.5, "dim_phi_F": NaN, "assouad_image": 1.0}',
        ],
        [
            "bounds", "--formula", "general_lower", "--inputs",
            '{"box_lower": NaN, "box_upper": 0.5, "assouad": 1.0}',
        ],
        [
            "bounds", "--formula", "holder", "--inputs",
            '{"alpha": 0.5, "gamma": 1.5, "dim_phi_F": 0.5, "assouad_image": Infinity}',
        ],
        # non-finite JSON numbers exited 0 and went into the artifact as
        # NaN or Infinity, which is not JSON
        [
            "bounds", "--formula", "general_lower", "--inputs",
            '{"box_lower": 0.5, "box_upper": 0.5, "assouad": 1, "theta": 0.5, "eta": NaN}',
        ],
        [
            "bounds", "--formula", "general_lower", "--inputs",
            '{"box_lower": 0.5, "box_upper": 0.5, "assouad": 1, "theta": 0.5, "eta": 1e999}',
        ],
        [
            "estimate", "--format", "json", "--phi",
            '{"variant": "interpolated", "params": {"s": NaN, "model_id": "x",'
            ' "log_breakpoints": [[-300, -600], [-1, -2]]}}',
        ],
        [
            "estimate", "--phi",
            '{"variant": "tabulated", "params": {"log_breakpoints": [[-300, -600], [Infinity, -2]]}}',
        ],
        ["estimate", "--phi", _min_family_active_below("NaN")],
        # results that overflowed wrote Infinity and exited 0; the continuity
        # bound is at most A, but (phi - theta) * d * (A - d) overflows
        [
            "bounds", "--formula", "continuity_upper", "--inputs",
            '{"box_lower": 0.5, "box_upper": 0.5, "assouad": 1e300, "theta": 0.5,'
            ' "dim_theta": 5e299, "phi_target": 0.9}',
        ],
        [
            "bounds", "--formula", "product", "--inputs",
            '{"e_dims": [0, 1e308, 1.5e308], "f_dims": [0, 1e308, 1.5e308]}',
        ],
        # Cantor depths whose log length leaves the float range raised
        # OverflowError from the block edges or from the slack (depth + 1) * log 2
        ["estimate", "--model", '{"kind": "cantor", "blocks": [[%d, 0.3]]}' % 10**400],
        [
            "interpolate", "--model",
            '{"kind": "cantor", "blocks": [[1e308, 0.3], [1e308, 0.3]]}',
        ],
    ],
    ids=[
        "model-missing-p", "phi-not-a-number", "phi-missing-theta",
        "bounds-missing-dim-theta", "model-bool-p", "carpet-fractional-m",
        "cantor-bool-count", "phi-bool-c", "stretched-domain-minus-one", "bounds-bool-assouad",
        "min-family-string-active-below", "min-family-bool-active-below",
        "tabulated-bool-log-breakpoint", "tabulated-bool-breakpoint",
        "interpolated-bool-log-breakpoint", "bounds-nan-dim-phi-f", "bounds-nan-box-lower",
        "bounds-inf-assouad-image", "bounds-nan-unused-key", "bounds-1e999-unused-key",
        "interpolated-nan-s", "tabulated-inf-log-delta", "min-family-nan-active-below",
        "continuity-upper-overflow", "product-overflow",
        "cantor-count-past-float", "cantor-log-length-past-float",
    ],
)
def test_malformed_spec_exits_two(tmp_path, capsys, args):
    out = tmp_path / "x.out"
    code = main(args + ["--grid=-48:-24:2", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if args[0] == "phi":
        assert err.startswith("error: malformed phi spec ")


@pytest.mark.parametrize(
    "command",
    [["phi"], ["frostman", "--s", "0.5"]],
    ids=["phi", "frostman"],
)
def test_log_phi_below_the_float_range_exits_two(tmp_path, capsys, command):
    # theta = 5e-324 puts log phi at -inf: phi wrote -Infinity into its JSON
    # rows and exited 0, frostman raised OverflowError from its level count
    out = tmp_path / "x.json"
    code = main(
        command + ["--phi", "power_law:5e-324", "--format", "json",
                   "--grid=-12:-1:3", "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: scale function produced invalid log value -inf")


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


def test_grid_spacing_below_the_float_range_exits_three(tmp_path, capsys):
    # 1 / 5e-324 is inf, and int(floor(inf)) raised OverflowError
    out = tmp_path / "x.json"
    code = main(
        ["frostman", "--model", '{"kind": "grid", "spacing": 5e-324}', "--s", "0.5",
         "--out", str(out)]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "error: grid skeleton would need inf points, above the 1048576 cap\n"
    )
    assert not out.exists()


def test_holder_base_resolution_below_the_float_range_exits_three(tmp_path, capsys):
    # resolution ** (1/alpha) underflows to 0: the message names that base
    # resolution, not a resolution the user never gave
    out = tmp_path / "x.json"
    model = '{"kind": "holder", "base": {"kind": "point", "location": 0.5}, "alpha": 1e-300}'
    code = main(["estimate", "--model", model, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: the Holder base resolution, 8.27181e-25 ** (1/alpha) at "
        "alpha = 1e-300, underflows to 0\n"
    )
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
    "log2_delta, code, err",
    [
        ("-70", 0, ""),
        ("-519", 3, "error: level-239 cubes in base 20 lie below float range\n"),
        ("-2000", 3, "error: level-925 cubes in base 20 lie below float range\n"),
    ],
    ids=["-70", "-519", "-2000"],
)
def test_frostman_at_deep_levels(tmp_path, capsys, log2_delta, code, err):
    out = tmp_path / "x.json"
    argv = ["frostman", "--model", '{"kind": "point", "location": 0.0}', "--s", "0.5",
            "--log2-delta", log2_delta, "--format", "json", "--out", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err == err
    if code == 0:
        assert json.loads(out.read_text())["atoms"] == 1
    else:
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


#: sha256 of the artifacts written through the DP routes: verify's battery
#: (its holder-image-consistency check forces oracle="dp") at the default
#: seed and at seed 7, and the estimate of a Holder image, whose default
#: route is the DP bisection with its steering sweeps.  Steering only
#: chooses where sweeps happen, so a change to it must keep these bytes.
DP_ARTIFACT_SHA256 = {
    "verify.json": (
        ["verify"],
        "1e3333db2c1c18b186325b58a3eddf4c5611703b2409f014d43408c80d934cbe",
    ),
    "verify7.json": (
        ["verify", "--seed", "7"],
        "24be60ce03c1ed4f0c46f802d158a073a898b0175d75f0346cdff323eb8eb02a",
    ),
    "holder.json": (
        [
            "estimate", "--format", "json", "--grid=-7:-3:5",
            "--model", '{"kind": "holder", "base": {"kind": "sequence", "p": 1.0}, "alpha": 0.5}',
        ],
        "f846eee610ce01e03e029b56d4fbf93e84251143c54b740c3d92dd7a0eca8829",
    ),
}


@pytest.mark.parametrize("name", sorted(DP_ARTIFACT_SHA256))
def test_dp_route_artifacts_keep_their_bytes(tmp_path, name):
    args, digest = DP_ARTIFACT_SHA256[name]
    code, out = run(tmp_path, name, args)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
        {"seed": 7.9},
        {"seed": True},
        {"base": 20.7},
        {"grid": [-12, -6, 4.9]},
        {"s_grid": [0.2, 0.8, True]},
        {"tol": True},
        {"s": True},
        {"log2_delta": False},
        {"grid": [True, -6, 3]},
        {"grid": [-12, True, 3]},
        {"alphas": [True, 0.5]},
        {"s": math.nan},
        {"tol": math.inf},
        {"model": {"kind": "carpet", "m": 2.7, "n": 100, "column_counts": [1, 100]}},
        {"model": {"kind": "carpet", "m": 2, "n": 100, "column_counts": [True, 100]}},
        {"out": True},
        {"out": 5},
    ],
    ids=lambda cfg: "-".join(f"{k}={v}" for k, v in cfg.items()),
)
def test_malformed_config_values_exit_two(tmp_path, monkeypatch, capsys, config):
    monkeypatch.chdir(tmp_path)  # where a config "out" would land
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = [] if "out" in config else ["--out", str(tmp_path / "x.json")]
    code = main(["carpet", "--config", str(cfg)] + out)
    assert code == 2
    assert os.listdir(tmp_path) == ["run.json"]
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "config, args, err",
    [
        ({"model": "ab\0c"}, [], "error: cannot read model file 'ab\\x00c': "),
        ({"out": "ab\0c"}, [], "error: cannot write --out 'ab\\x00c': embedded null byte"),
        (None, ["--config", "a\0b"], "error: cannot read config file 'a\\x00b': "),
        (b"\xff{}", [], "error: cannot read config file "),
        ({"model": "model.json"}, [], "error: cannot read model file 'model.json': "),
    ],
    ids=["model-path", "out-path", "config-path", "config-not-utf8", "model-not-utf8"],
)
def test_unusable_paths_and_files_exit_two(tmp_path, monkeypatch, capsys, config, args, err):
    """A NUL byte in a path, or a file that is not UTF-8, is a bad input."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_bytes(b'{"kind": "point", "location": \xff}')
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        args = ["--config", str(cfg)]
    code = main(["carpet"] + args)
    assert code == 2
    assert capsys.readouterr().err.startswith(err)
    # no artifact and no temporary .scaledim-* file
    assert set(os.listdir(tmp_path)) <= {"run.json", "model.json"}


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
        # counts above the grid cap raised numpy's MemoryError from linspace
        ["estimate", "--grid=-40:-20:10000000000000"],
        ["interpolate", "--s-grid", "0.2:0.8:10000000000000", "--grid=-36:-12:3"],
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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_grid_point_cap_is_inclusive():
    cap = cli.MAX_GRID_POINTS
    assert cli.parse_grid(f"0:1:{cap}") == (0.0, 1.0, cap)
    with pytest.raises(cli.ConfigError, match=f"at most {cap} points"):
        cli.parse_grid(f"0:1:{cap + 1}")


# --- one parser per process ------------------------------------------------------


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_repeated_usage_error_exits_two_with_the_same_message(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--nope"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "usage: scaledim [-h] command ...\n"
        "scaledim: error: unrecognized arguments: --nope\n"
    )


def test_flags_do_not_carry_over_between_runs(tmp_path):
    code, out = run(tmp_path, "v7.json", ["verify", "--seed", "7"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 7 and doc["pass"] is True
    code, out = run(tmp_path, "v.json", ["verify"])
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 20260816


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: scaledim [-h] command ...")
    for name in cli.COMMANDS:
        assert f"\n    {name}" in text


def test_module_entry_point_matches_in_process_run(tmp_path):
    src = os.path.dirname(os.path.dirname(scaledim.__file__))
    child = tmp_path / "child.json"
    done = subprocess.run(
        [sys.executable, "-m", "scaledim.cli", "carpet", "--out", str(child)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    code, out = run(tmp_path, "in.json", ["carpet"])
    assert code == 0
    assert child.read_bytes() == out.read_bytes()


# --- the option table ------------------------------------------------------------

#: config digests of each subcommand's default run
DEFAULT_DIGESTS = {
    "estimate": "e520dc536308c3fb",
    "bounds": "5c919c562d0c2735",
    "phi": "a06d4b2041725b4c",
    "frostman": "c8967f842db6a6f0",
    "interpolate": "1f8660776da56257",
    "carpet": "0ed9c6c343c73a96",
    "verify": "53d7a4665820c037",
}

#: every flag and its help text
FLAG_HELP = {
    "--model": "set model: inline JSON or path to a JSON file",
    "--phi": "scale function: power_law:T, log_corrected, stretched_exp:C, or JSON",
    "--grid": "log2-delta grid a:b:n (a <= b)",
    "--s-grid": "exponent grid a:b:n",
    "--tol": "bisection tolerance (default 1e-3)",
    "--out": "output path (default scaledim_<command>.<fmt>)",
    "--format": "output format",
    "--seed": "seed for generated test instances",
    "--config": "JSON config file (flags override it)",
    "--formula": "one of general_lower, general_lower_derivatives, "
    "continuity_upper, continuity_lower, maincty, holder, product",
    "--inputs": "JSON object of numeric inputs",
    "--s": "target exponent",
    "--log2-delta": "window top (default: finest grid point)",
    "--base": "cube subdivision base (default 20)",
    "--phi2": "second scale function to compare against",
    "--alphas": "comparison exponents, comma-separated",
}
COMMON_FLAGS = ["--model", "--phi", "--grid", "--s-grid", "--tol", "--out", "--format",
                "--seed", "--config"]
COMMAND_FLAGS = {
    "bounds": ["--formula", "--inputs"],
    "frostman": ["--s", "--log2-delta", "--base"],
    "phi": ["--phi2", "--alphas"],
}


@pytest.mark.parametrize("command", sorted(DEFAULT_DIGESTS))
def test_default_config_digests(command):
    cfg = cli.resolve_config(cli.get_args([command]))
    assert cli.config_digest(cfg) == DEFAULT_DIGESTS[command]


def test_config_file_digest(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "phi": "power_law:0.25", "grid": "-120:-60:3", "tol": 1e-2, "seed": 5,
        "alphas": [1.5, 3.0], "inputs": {"alpha": 0.5},
    }))
    cfg = cli.resolve_config(cli.get_args(["estimate", "--config", str(path), "--tol", "1e-3"]))
    assert cli.config_digest(cfg) == "780db52b03c48993"


def _help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_help_lists_the_flags_of_the_option_table(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per flag, or two for a long flag
    options = _help_text(capsys, [command, "--help"]).split("\noptions:\n")[1]
    listed = dict(re.findall(r"^  (--[\w-]+)(?: \S+)?\s+(.+)$", options, re.M))
    expected = COMMON_FLAGS + COMMAND_FLAGS.get(command, [])
    assert sorted(listed) == sorted(expected)
    assert listed == {flag: FLAG_HELP[flag] for flag in expected}
    from_table = {"--" + key.replace("_", "-")
                  for key, opt in cli.OPTIONS.items() if command in opt.commands}
    assert from_table | {"--config"} == set(listed)


def test_bounds_help_names_every_formula(capsys):
    text = " ".join(_help_text(capsys, ["bounds", "--help"]).split())
    for name in cli.FORMULAS:
        assert name in text
    assert len(cli.FORMULAS) == 7


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config-file keys\n")[1].split("\n#")[0]
    rows = re.findall(r"^\| `(\w+)` \|.*\| `(--[\w-]+)`, ([\w, ]+) \|$", section, re.M)
    assert [key for key, _, _ in rows] == list(cli.OPTIONS)
    for key, flag, commands in rows:
        opt = cli.OPTIONS[key]
        assert flag == "--" + key.replace("_", "-")
        assert commands == ("all" if opt.commands == cli.COMMANDS else ", ".join(opt.commands))
