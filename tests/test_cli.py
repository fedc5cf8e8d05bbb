import importlib
import json

import pytest
from click.testing import CliRunner

from maxdiv.cli import main
from maxdiv.errors import NumericalError
from maxdiv.graphs import GRAPH_CAP, METRIC_CAP, FiniteMetric, IrreflexiveGraph
from maxdiv.maximize import SUBSET_CAP

from helpers import THREE_SPECIES

THREE_SPECIES_CSV = "1,0.4,0.4\n0.4,1,0.9\n0.4,0.9,1\n"
NONSYM_CSV = "1,0.5\n0,1\n"
PATH4_GRAPH = "4\n1 2\n2 3\n3 4\n"


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


class TestDiversityCommand:
    def test_value(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", "1,0\n0,1\n")
        a = _write(tmp_path, "p.csv", "0.5,0.5\n")
        result = runner.invoke(main, ["diversity", "--matrix", m, "--abundances", a, "-q", "2"])
        assert result.exit_code == 0
        assert "D_2 = 2" in result.output

    def test_multiple_orders_and_inf(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", THREE_SPECIES_CSV)
        a = _write(tmp_path, "p.csv", "0.5,0.25,0.25\n")
        result = runner.invoke(
            main, ["diversity", "--matrix", m, "--abundances", a, "-q", "0", "-q", "inf"]
        )
        assert result.exit_code == 0
        assert result.output.count("D_") == 2

    def test_nonsymmetric_allowed_here(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", NONSYM_CSV)
        a = _write(tmp_path, "p.csv", "0.5,0.5\n")
        result = runner.invoke(main, ["diversity", "--matrix", m, "--abundances", a, "-q", "2"])
        assert result.exit_code == 0
        assert "1.6" in result.output

    def test_bad_abundances_exit_2(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", "1,0\n0,1\n")
        a = _write(tmp_path, "p.csv", "0.5,0.6\n")
        result = runner.invoke(main, ["diversity", "--matrix", m, "--abundances", a, "-q", "1"])
        assert result.exit_code == 2

    def test_bad_order_exit_2(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", "1,0\n0,1\n")
        a = _write(tmp_path, "p.csv", "0.5,0.5\n")
        result = runner.invoke(main, ["diversity", "--matrix", m, "--abundances", a, "-q", "-1"])
        assert result.exit_code == 2
        assert "error: bad order '-1'" in result.output


class TestProfileCommand:
    def test_constant_profile(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", "1,0\n0,1\n")
        a = _write(tmp_path, "p.csv", "0.5,0.5\n")
        result = runner.invoke(main, ["profile", "--matrix", m, "--abundances", a])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "q,value"
        assert lines[-1].startswith("inf,")
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(2.0, abs=1e-12)

    def test_custom_orders_and_file_output(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", THREE_SPECIES_CSV)
        a = _write(tmp_path, "p.csv", "0.5,0.25,0.25\n")
        out = tmp_path / "prof.csv"
        result = runner.invoke(
            main,
            ["profile", "--matrix", m, "--abundances", a, "--orders", "0,1,2,inf", "-o", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "q,value"
        assert len(lines) == 5
        assert lines[-1].startswith("inf,")
        assert out.read_text().endswith("\n")

    def test_unwritable_output_exit_2(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", "1,0\n0,1\n")
        a = _write(tmp_path, "p.csv", "0.5,0.5\n")
        out = tmp_path / "missing" / "prof.csv"
        result = runner.invoke(main, ["profile", "--matrix", m, "--abundances", a, "-o", str(out)])
        assert result.exit_code == 2
        assert f"error: cannot write {out}" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_output_to_a_directory_exit_2(self, runner, tmp_path):
        args = _command_line(tmp_path, ("profile",), {}) + ["-o", str(tmp_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: cannot write {tmp_path}: ")
        assert "Usage:" not in result.output


class TestMaximizeCommand:
    def test_three_species(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", THREE_SPECIES_CSV)
        result = runner.invoke(main, ["maximize", "--matrix", m])
        assert result.exit_code == 0
        assert "dmax: 1.4557" in result.output
        assert "0.478261, 0.26087, 0.26087" in result.output
        assert "unique maximizer: yes" in result.output

    def test_json_is_bit_exact(self, runner, tmp_path):
        from maxdiv import SimilarityMatrix, maximize

        m = _write(tmp_path, "z.csv", THREE_SPECIES_CSV)
        result = runner.invoke(main, ["maximize", "--matrix", m, "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        lib = maximize(SimilarityMatrix(THREE_SPECIES))
        assert payload["dmax"] == lib.dmax
        assert payload["sample_maximizer"] == list(lib.sample_maximizer.probs)
        assert payload["winners"][0]["support"] == [1, 2, 3]

    def test_families_flag(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", "1,1,0,0\n1,1,1,0\n0,1,1,1\n0,0,1,1\n")
        result = runner.invoke(main, ["maximize", "--matrix", m, "--families"])
        assert result.exit_code == 0
        assert "method: exhaustive" in result.output  # the path is indefinite
        assert "kernel direction" in result.output
        assert "support {1,3}" in result.output

    def test_nonsymmetric_exit_3(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", NONSYM_CSV)
        result = runner.invoke(main, ["maximize", "--matrix", m])
        assert result.exit_code == 3
        assert "symmetric" in result.output

    def test_cap_exit_3(self, runner, tmp_path, monkeypatch):
        def scan(values):
            raise AssertionError("scan_subsets called past the cap")

        monkeypatch.setattr(importlib.import_module("maxdiv.maximize"), "scan_subsets", scan)
        # the path adjacency is indefinite, so no fast path applies
        n = SUBSET_CAP + 1
        m = _write(tmp_path, "z.csv", "\n".join(",".join("1" if abs(i - j) <= 1 else "0" for j in range(n)) for i in range(n)))
        result = runner.invoke(main, ["maximize", "--matrix", m])
        assert result.exit_code == 3
        assert f"exceeds the exhaustive cap {SUBSET_CAP}" in result.output

    def test_default_route_takes_the_fast_path(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", THREE_SPECIES_CSV)
        result = runner.invoke(main, ["maximize", "--matrix", m])
        assert result.exit_code == 0
        assert "method: ultrametric" in result.output
        assert "winners: 1" in result.output

    def test_missing_file_exit_2(self, runner):
        result = runner.invoke(main, ["maximize", "--matrix", "/nonexistent.csv"])
        assert result.exit_code == 2


@pytest.mark.parametrize(
    "command, matrix, args",
    [
        pytest.param("maximize", "1e-310,0\n0,1e-310\n", [], id="maximize"),
        pytest.param("diagnose", "1e-310,0\n0,1e-310\n", [], id="diagnose"),
        # indefinite, so diagnose solves the full set itself, outside the maximizer's analysis
        pytest.param("diagnose", "1e-310,2e-310\n2e-310,1e-310\n", [], id="diagnose-indefinite"),
        # the uniform distribution's diversity is 2e310 at every order
        pytest.param("diversity", "1e-310,0\n0,1e-310\n", ["-q", "2"], id="diversity"),
        pytest.param("profile", "1e-310,0\n0,1e-310\n", [], id="profile"),
    ],
)
def test_maximum_beyond_float64_exit_4(runner, tmp_path, command, matrix, args):
    # Dmax of 1e-310·I is 2e310, which float64 cannot hold
    m = _write(tmp_path, "z.csv", matrix)
    if command in ("diversity", "profile"):
        args = ["--abundances", _write(tmp_path, "p.csv", "0.5,0.5\n"), *args]
    result = runner.invoke(main, [command, "--matrix", m, *args])
    assert result.exit_code == 4
    assert "error: " in result.output and "beyond the float64 range" in result.output
    assert result.output.count("error:") == 1
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["maximize", "diversity"])
def test_undecodable_file_exit_2(runner, tmp_path, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe1,0\n0,1\n")
    good = _write(tmp_path, "z.csv", "1,0\n0,1\n")
    args = {
        "maximize": ["--matrix", str(bad)],
        "diversity": ["--matrix", good, "--abundances", str(bad), "-q", "1"],
    }[command]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 2
    assert f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff" in result.output
    assert "Traceback" not in result.output


# every leaf command: the text of each of its file options, then its other
# required arguments
COMMANDS = {
    ("diversity",): ({"--matrix": "1,0\n0,1\n", "--abundances": "0.5,0.5\n"}, ["-q", "1"]),
    ("profile",): ({"--matrix": "1,0\n0,1\n", "--abundances": "0.5,0.5\n"}, []),
    ("maximize",): ({"--matrix": "1,0\n0,1\n"}, []),
    ("diagnose",): ({"--matrix": "1,0\n0,1\n"}, []),
    ("graph", "alpha"): ({"--graph": PATH4_GRAPH}, []),
    ("graph", "capacity"): ({"--graph": PATH4_GRAPH}, []),
    ("graph", "entropy"): ({"--metric": "0,1\n1,0\n"}, ["--epsilon", "1"]),
}


def _command_line(tmp_path, command, replaced):
    # each file option gets a readable file unless ``replaced`` names its path
    files, rest = COMMANDS[command]
    args = list(command)
    for i, (option, text) in enumerate(files.items()):
        args += [option, replaced.get(option) or _write(tmp_path, f"in{i}.txt", text)]
    return args + rest


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize(
    "command, option",
    [pytest.param(c, o, id="-".join(c) + o) for c, (files, _) in COMMANDS.items() for o in files],
)
def test_unreadable_file_is_one_error_line(runner, tmp_path, command, option, kind):
    bad = tmp_path / "absent.csv" if kind == "missing" else tmp_path
    result = runner.invoke(main, _command_line(tmp_path, command, {option: str(bad)}))
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {bad}: ")
    assert "Usage:" not in result.output


@pytest.mark.parametrize("command", list(COMMANDS), ids="-".join)
def test_numerical_error_reaches_the_group(runner, tmp_path, monkeypatch, command):
    def read(path):
        raise NumericalError("pivot cap reached")

    args = _command_line(tmp_path, command, {})
    monkeypatch.setattr(importlib.import_module("maxdiv.cli"), "_read", read)
    result = runner.invoke(main, args)
    assert result.exit_code == 4
    assert result.stderr == "error: pivot cap reached\n"


class TestDiagnoseCommand:
    def test_three_species(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", THREE_SPECIES_CSV)
        result = runner.invoke(main, ["diagnose", "--matrix", m])
        assert result.exit_code == 0
        assert "ultrametric: yes" in result.output
        assert "positive definite: yes" in result.output
        assert "full-support maximizer exists: yes" in result.output

    def test_json(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", "1,1\n1,1\n")
        result = runner.invoke(main, ["diagnose", "--matrix", m, "--json"])
        payload = json.loads(result.output)
        assert payload["positive_semidefinite"] is True
        assert payload["positive_definite"] is False
        assert payload["full_support_maximizer_exists"] is True
        assert payload["all_maximizers_full_support"] is False


class TestGraphCommands:
    def test_alpha_four_path(self, runner, tmp_path):
        g = _write(tmp_path, "g.txt", PATH4_GRAPH)
        result = runner.invoke(main, ["graph", "alpha", "--graph", g])
        assert result.exit_code == 0
        assert result.output.strip() == "2"

    def test_capacity_triangle(self, runner, tmp_path):
        g = _write(tmp_path, "g.txt", "3\n1 2\n1 3\n2 3\n")
        result = runner.invoke(main, ["graph", "capacity", "--graph", g])
        assert result.exit_code == 0
        assert "capacity: 0.666667" in result.output

    def test_entropy(self, runner, tmp_path):
        f = _write(tmp_path, "d.csv", "0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n")
        result = runner.invoke(main, ["graph", "entropy", "--metric", f, "--epsilon", "1"])
        assert result.exit_code == 0
        assert "N(d, eps)   = 2" in result.output
        assert "Dmax(Z^eps) = 2" in result.output
        assert "N(d, eps/2) = 4" in result.output

    def test_capacity_json(self, runner, tmp_path):
        g = _write(tmp_path, "g.txt", PATH4_GRAPH)
        result = runner.invoke(main, ["graph", "capacity", "--graph", g, "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {"capacity", "clique", "witness"}
        assert payload["capacity"] == 0.5
        assert payload["clique"] in ([1, 2], [2, 3], [3, 4])  # every edge is a maximum clique
        assert payload["witness"] == [0.5 if i + 1 in payload["clique"] else 0.0 for i in range(4)]

    def test_capacity_over_cap_exit_3(self, runner, tmp_path, monkeypatch):
        def complement(self):
            raise AssertionError("complement built before the cap check")

        monkeypatch.setattr(IrreflexiveGraph, "complement", complement)
        g = _write(tmp_path, "g.txt", f"{GRAPH_CAP + 1}\n1 2\n")
        result = runner.invoke(main, ["graph", "capacity", "--graph", g])
        assert result.exit_code == 3
        assert f"graph size {GRAPH_CAP + 1} exceeds the cap {GRAPH_CAP}" in result.output

    def test_entropy_json(self, runner, tmp_path):
        f = _write(tmp_path, "d.csv", "0,1,2\n1,0,1\n2,1,0\n")  # three points on a line
        result = runner.invoke(main, ["graph", "entropy", "--metric", f, "--epsilon", "1", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "epsilon": 1.0,
            "covering_number": 1,  # the middle point is within 1 of both ends
            "covering_number_half": 3,
            "dmax_of_threshold": 2.0,  # the two ends are 2 apart
        }

    def test_entropy_over_cap_exit_3(self, runner, tmp_path, monkeypatch):
        def validate(self, dist):
            raise AssertionError("triangle inequality checked before the cap check")

        monkeypatch.setattr(FiniteMetric, "__init__", validate)
        n = METRIC_CAP + 1
        f = _write(tmp_path, "d.csv", "".join(",".join(str(abs(i - j)) for j in range(n)) + "\n" for i in range(n)))
        result = runner.invoke(main, ["graph", "entropy", "--metric", f, "--epsilon", "1"])
        assert result.exit_code == 3
        assert f"metric size {n} exceeds the covering cap {METRIC_CAP}" in result.output

    def test_bad_graph_exit_2(self, runner, tmp_path):
        g = _write(tmp_path, "g.txt", "3\n1 9\n")
        result = runner.invoke(main, ["graph", "alpha", "--graph", g])
        assert result.exit_code == 2

    def test_nonpositive_epsilon_exit_2(self, runner, tmp_path):
        f = _write(tmp_path, "d.csv", "0,1\n1,0\n")
        result = runner.invoke(main, ["graph", "entropy", "--metric", f, "--epsilon", "0"])
        assert result.exit_code == 2

    def test_nan_epsilon_exit_2(self, runner, tmp_path):
        f = _write(tmp_path, "d.csv", "0,1,2\n1,0,1\n2,1,0\n")
        result = runner.invoke(main, ["graph", "entropy", "--metric", f, "--epsilon", "nan"])
        assert result.exit_code == 2
        assert "eps must be positive" in result.output


class TestPrecision:
    def test_precision_flag(self, runner, tmp_path):
        m = _write(tmp_path, "z.csv", THREE_SPECIES_CSV)
        result = runner.invoke(main, ["--precision", "12", "maximize", "--matrix", m])
        assert "1.45569620253" in result.output
