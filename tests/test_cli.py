"""Command-line front end: outputs, determinism, and exit codes."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

CLI = [sys.executable, "-m", "daniell.cli"]


def run_cli(*args, env=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


def run_json(*args):
    p = run_cli("--output", "-", *args)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


def frac(pair):
    return Fraction(pair[0], pair[1])


# -- integrate ----------------------------------------------------------------


def test_integrate_bracket_example():
    out = run_json("integrate", "--function", "t", "--interval", "0", "1",
                   "--depth", "8")
    val = frac(out["result"]["value"])
    assert Fraction(1, 2) - Fraction(1, 256) <= val <= Fraction(1, 2) + Fraction(1, 256)
    assert frac(out["result"]["lower"]) <= Fraction(1, 2) <= frac(out["result"]["upper"])
    assert out["config"]["depth"] == 8


def test_integrate_truncated_bracket_is_not_certified():
    # t on [0, 100) exceeds 2^depth = 4, so the level sums stop short of
    # the integral 5000 and no finite upper bound is certified
    out = run_json("integrate", "--interval", "0", "100", "--depth", "2")
    res = out["result"]
    assert res["upper"] == "+inf"
    assert res["converged"] is False
    assert res["value"] == res["lower"]
    assert frac(res["lower"]) <= 5000


def test_lebesgue_interval():
    out = run_json("lebesgue", "--interval", "1/3", "2", "--depth", "24")
    target = Fraction(5, 3)
    assert frac(out["result"]["lower"]) <= target <= frac(out["result"]["upper"])


# -- decompose -----------------------------------------------------------------


def corner_sup(weights):
    best = Fraction(0)
    for picks in itertools.product((0, 1), repeat=len(weights)):
        best = max(best, sum(w for w, p in zip(weights, picks) if p))
    return best


def test_decompose_matches_corner_oracle():
    for spec in ("2,-1", "1,1,-3", "-2,-2", "0,5,-1,2"):
        weights = [Fraction(w) for w in spec.split(",")]
        out = run_json("decompose", "--weights=" + spec)
        assert frac(out["Splus"]) == corner_sup(weights)
        assert frac(out["Sminus"]) == corner_sup([-w for w in weights])
        assert frac(out["Splus"]) - frac(out["Sminus"]) == sum(weights)
        assert frac(out["Sabs"]) == sum(abs(w) for w in weights)
        assert out["bruteforce_P"] == out["Splus"]


# -- wiener ---------------------------------------------------------------------


def write_cylinder(tmp_path, times, sets):
    p = tmp_path / "cyl.json"
    p.write_text(json.dumps({"times": times, "sets": sets}))
    return str(p)


def test_wiener_full_space_and_paper_kernel(tmp_path):
    cyl = write_cylinder(tmp_path, [[1, 1]], [[["-inf", "+inf"]]])
    out = run_json("wiener", "--cylinder", cyl)
    assert abs(out["value"] - 1.0) < 1e-8
    assert out["quad_error"] < 1e-8
    out = run_json("wiener", "--cylinder", cyl, "--kernel", "paper")
    assert abs(out["value"] - 1 / math.sqrt(2)) < 1e-8


def test_wiener_mc_records_seed(tmp_path):
    cyl = write_cylinder(tmp_path, [[1, 1]], [[[0.0, "+inf"]]])
    out = run_json("wiener", "--cylinder", cyl, "--method", "mc",
                   "--paths", "100000", "--seed", "17")
    assert out["config"]["seed"] == 17
    assert abs(out["value"] - 0.5) < 4 * out["stderr"]


def test_daniell_seed_is_the_fallback_seed(tmp_path):
    cyl = write_cylinder(tmp_path, [[1, 1]], [[[0.0, "+inf"]]])
    args = ("--output", "-", "wiener", "--cylinder", cyl, "--method", "mc", "--paths", "50000")
    env = {k: v for k, v in os.environ.items() if k != "DANIELL_SEED"}
    by_env = run_cli(*args, env={**env, "DANIELL_SEED": "7"})
    by_flag = run_cli(*args, "--seed", "7", env=env)
    assert by_env.returncode == by_flag.returncode == 0
    assert json.loads(by_env.stdout)["config"]["seed"] == 7
    assert by_env.stdout == by_flag.stdout


@pytest.mark.parametrize("args", [
    ("wiener", "--cylinder", "{cyl}", "--method", "mc", "--paths", "1000"),
    ("dirichlet", "--g", "const:1", "--x", "0,0", "--solver", "wos", "--walks", "100"),
], ids=lambda args: args[0])
def test_malformed_daniell_seed_is_bad_input(tmp_path, args):
    cyl = write_cylinder(tmp_path, [[1, 1]], [[[0.0, "+inf"]]])
    p = run_cli(*(a.format(cyl=cyl) for a in args), env={**os.environ, "DANIELL_SEED": "abc"})
    assert p.returncode == 3
    assert p.stderr == "DANIELL_SEED is not an integer: 'abc'\n"


# -- dirichlet --------------------------------------------------------------------


def test_dirichlet_constant_data():
    out = run_json("dirichlet", "--g", "const:1", "--x", "0.3,0.2",
                   "--h", "0.03125")
    assert abs(out["value"] - 1.0) < 1e-6


def test_dirichlet_point_record_has_no_placeholder_fields():
    out = run_json("dirichlet", "--g", "const:1", "--x", "0,0", "--h", "0.0625")
    assert "harnack_gap" not in out
    assert "tol" not in out["config"]
    assert run_cli("dirichlet", "--g", "const:1", "--x", "0,0", "--tol", "0.1").returncode == 2


def test_dirichlet_arc_at_center():
    out = run_json("dirichlet", "--g", "arc:0:pi", "--x", "0,0", "--h", "0.015625")
    assert abs(out["value"] - 0.5) < 1e-3


# -- determinism and exit codes -----------------------------------------------------


def test_byte_identical_reruns(tmp_path):
    cyl = write_cylinder(tmp_path, [[1, 2], [1, 1]],
                         [[[0.0, "+inf"]], [[-1.0, 1.0]]])
    args = ("--output", "-", "wiener", "--cylinder", cyl, "--method", "mc",
            "--paths", "50000", "--seed", "4")
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_unknown_command_fails():
    p = run_cli("frobnicate")
    assert p.returncode != 0


def test_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    p = run_cli("wiener", "--cylinder", str(bad))
    assert p.returncode == 3


def test_bad_interval_exit_code():
    p = run_cli("lebesgue", "--interval", "2", "1")
    assert p.returncode == 3


@pytest.mark.parametrize("args", [
    ("dirichlet", "--g", "const:1", "--x", "0,0", "--h", "0"),
    ("dirichlet", "--g", "arc:0:1", "--x", "0,0", "--h", "0.125", "--depth", "0"),
    ("dirichlet", "--g", "const:1", "--x", "0,0", "--solver", "wos", "--walks", "1"),
    ("dirichlet", "--g", "cos", "--x", "nan,0.2", "--solver", "wos", "--walks", "100"),
    ("dirichlet", "--g", "const:nan", "--x", "0,0"),
    ("dirichlet", "--g", "const:nan", "--x", "0.5,0.5", "--domain", "square"),
    ("dirichlet", "--g", "arc:0:nan", "--x", "0,0"),
    ("dirichlet", "--g", "arc:0:2pi", "--x", "0.5,0.2"),
    ("dirichlet", "--g", "arc:1:5", "--x", "0.5,0.2", "--domain", "square"),
    ("dirichlet", "--g", "cos", "--x", "0,0", "--solver", "wos", "--walks", "100", "--h", "nan"),
    ("wiener", "--cylinder", "{cyl}", "--tol", "0"),
    ("wiener", "--cylinder", "{cyl}", "--method", "mc", "--paths", "0"),
    ("integrate", "--interval", "0", "4", "--depth", "0"),
    ("lebesgue", "--interval", "0", "1", "--depth", "0"),
], ids=lambda args: " ".join(args))
def test_out_of_range_number_is_bad_input(tmp_path, args):
    cyl = write_cylinder(tmp_path, [[1, 1]], [[[0.0, "+inf"]]])
    p = run_cli(*(a.format(cyl=cyl) for a in args))
    assert p.returncode == 3, p.stdout
    assert "Traceback" not in p.stderr
    assert len(p.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("method", ["quad", "mc"])
def test_nan_set_endpoint_is_bad_input(tmp_path, method):
    # a NaN pair is not an empty set; a reversed pair is, and stays accepted
    args = ("wiener", "--method", method, "--paths", "1000", "--cylinder")
    nan = run_cli(*args, write_cylinder(tmp_path, [[1, 1]], [[[0.0, "NaN"]]]))
    assert nan.returncode == 3, nan.stdout
    assert nan.stderr == "bad cylinder spec: a set endpoint is NaN\n"
    out = run_json(*args, write_cylinder(tmp_path, [[1, 1]], [[[1.0, 0.0]]]))
    assert out["value"] == 0.0


# -- values that start with '-' -------------------------------------------------------


def test_dirichlet_point_with_negative_coordinate():
    out = run_json("dirichlet", "--g", "cos", "--x", "-0.3,0.2", "--h", "0.03125")
    assert out["config"]["x"] == "-0.3,0.2"
    assert abs(out["value"] + 0.3) < 30 * 0.03125**2  # u = x for g = cos


def test_interval_with_negative_rational_endpoint():
    out = run_json("lebesgue", "--interval", "-1/4", "1", "--depth", "24")
    assert out["config"]["interval"] == ["-1/4", "1"]
    assert frac(out["result"]["lower"]) <= Fraction(5, 4) <= frac(out["result"]["upper"])
    # integrate takes t on [a, b) with 0 <= a only: a clean input error, not usage
    p = run_cli("integrate", "--interval", "-1/4", "1")
    assert p.returncode == 3
    assert "0 <= a < b" in p.stderr


def test_decompose_leading_negative_weight():
    out = run_json("decompose", "--weights", "-1,2")
    assert out["config"]["weights"] == "-1,2"
    assert frac(out["Splus"]) == 2 and frac(out["Sminus"]) == 1


def test_csv_projection():
    p = run_cli("--output", "-", "--format", "csv", "decompose",
                "--weights", "2,-1")
    assert p.returncode == 0
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    assert len(lines) == 2  # header + one row
    assert "Splus" in lines[0]


# -- layers loaded ----------------------------------------------------------------------


LOADED_LAYERS = """
import contextlib, io, sys
from daniell.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
heavy = ("daniell.dirichlet", "daniell.verify", "daniell.wiener", "numpy", "scipy")
print(code, *(name for name in heavy if name in sys.modules))
"""


# the layers each command's process loads, of those listed in LOADED_LAYERS
COMMAND_LAYERS = {
    "--help": "",
    "integrate": "",
    "lebesgue --interval 0 1": "",
    "decompose --weights 1,-2": "",
    "rings --quick": "daniell.verify",
    "lattice --quick": "daniell.verify",
    "wiener --cylinder {cyl}": "daniell.wiener numpy",
    "dirichlet --g arc:0:pi --x 0.3,0.2 --h 0.03125": "daniell.dirichlet numpy",
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_commands_load_only_their_layers(tmp_path, command):
    # a fresh process imports only what its command runs: the exact commands
    # never import numpy or a numeric solver, and no command imports scipy
    cyl = write_cylinder(tmp_path, [[1, 2], [1, 1]], [[[0.0, "+inf"]], [[-1.0, 1.0]]])
    argv = command.format(cyl=cyl).split()
    p = subprocess.run([sys.executable, "-c", LOADED_LAYERS, *argv],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split() == ["0", *COMMAND_LAYERS[command].split()]


# -- exact outputs ----------------------------------------------------------------------


@pytest.mark.parametrize("args, digest", [
    ("integrate --interval 0 4 --depth 8",
     "6794182829732b9607c2788767dceb7e45848a384f967934576b7cddd0f5969c"),
    ("lebesgue --interval 1/3 2 --depth 20",
     "a3cdfb339dc07231ab19f28cfb7097551d75e52e85e82c2526458dd68404a527"),
    ("decompose --weights 1,-2,1/3,0",
     "f4f9a81c10df2a946c076a9b004f77e942792d60461cf4ac816f48b5492f807e"),
    ("rings --quick",
     "b5da3f46e5705fdb59c3b9e45a8bbffa990ea7caaa641a023489143fc4ec2c51"),
    ("lattice --quick",
     "787f6aa15643c2b36f59bace11c6534ea7328e7617704a9f86d2f595a38ae937"),
])
def test_exact_output_is_byte_identical(args, digest):
    # the exact commands' stdout is pinned by its SHA-256; wiener and
    # dirichlet are left out, as FFT round-off may differ between numpy builds
    p = run_cli(*args.split())
    assert p.returncode == 0, p.stderr
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == digest, p.stdout
