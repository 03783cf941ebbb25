"""Command-line surface: outputs, exit codes, determinism, round trips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gammahom.chains import ChainComplex, homology, parse_ring
from gammahom.cli import main
from gammahom.segal import parse_space, spectrum_level
from gammahom.simplicial import normalized_chains


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_sphere_table(capsys):
    code, out, _ = run(capsys, "compute", "--space", "sphere", "--ring",
                       "z", "--max-degree", "3")
    assert code == 0
    lines = out.splitlines()
    assert "degree  group" in lines[4]
    assert lines[5].split() == ["0", "Z", "1", "empirical"]
    assert lines[6].split() == ["1", "0", "2", "empirical"]
    assert lines[8].split() == ["3", "0", "4", "empirical"]


def test_compute_circle_free_space(capsys):
    code, out, _ = run(capsys, "compute", "--space", "t:circle", "--ring",
                       "z", "--max-degree", "2", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["0", "Z", "0"]


def test_compute_json_deterministic(capsys):
    args = ("compute", "--space", "ab:2", "--ring", "z", "--max-degree",
            "1", "--format", "json")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["schema_version"] == 1
    assert payload["degrees"][0]["label"] == "Z/2"
    assert payload["route"] == "spectrum"


def test_threads_do_not_change_output(capsys):
    base = ("compute", "--space", "ab:2", "--ring", "f2", "--max-degree",
            "2", "--format", "json")
    _, one, _ = run(capsys, *base, "--threads", "1")
    _, four, _ = run(capsys, *base, "--threads", "4")
    assert one == four


def test_compute_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "compute", "--space", "point", "--ring", "q",
                       "--max-degree", "1", "--format", "json", "--out",
                       str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["degrees"][0]["label"] == "0"


@pytest.mark.parametrize("where", ["missing/table.json", "."])
def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, where):
    # A missing directory, or a path that is a directory.
    code, out, err = run(capsys, "compute", "--space", "point", "--ring",
                         "q", "--max-degree", "1", "--out",
                         str(tmp_path / where))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("gammahom: ")


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"space": "ab:2", "ring": "z",
                                  "max_degree": 3}))
    code, out, _ = run(capsys, "compute", "--config", str(config),
                       "--max-degree", "0", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 2  # header plus one degree


@pytest.mark.parametrize("data, names", [
    ({"space": "sphere", "cell_budget": None}, ("'cell_budget'", "null")),
    ({"space": "sphere", "cell_budget": True}, ("'cell_budget'", "true")),
    ({"space": "sphere", "ring": 2}, ("'ring'", "string")),
    ([1, 2], ("JSON object",)),
], ids=["null budget", "bool budget", "int ring", "array"])
def test_config_file_of_wrong_type_is_a_usage_error(tmp_path, capsys, data,
                                                    names):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(data))
    code, out, err = run(capsys, "compute", "--config", str(config))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("gammahom: ")
    assert all(name in err for name in names)


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "compute", "--space", "bogus:")[0] == 2
    assert run(capsys, "compute", "--space", "ab:2", "--ring", "f9")[0] == 2
    assert run(capsys, "compute", "--space", "ab:2", "--ring",
               "f4294967311")[0] == 2
    assert run(capsys, "compute")[0] == 2
    assert main(["compute", "--space", "ab:2", "--format", "yaml"]) == 2


def test_huge_prime_ring_rejected_quickly():
    # Run apart, so that a primality test that hangs fails instead of
    # stalling the suite.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gammahom.cli", "compute", "--space",
             "point", "--ring", "f1000000000000000003"],
            env=env, capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("ring parsing did not return within 30 s")
    assert proc.returncode == 2
    assert "2^31" in proc.stderr


def test_budget_exhaustion_exit_three(capsys):
    code, out, _ = run(capsys, "compute", "--space", "ab:2", "--ring", "f2",
                       "--max-degree", "3", "--cell-budget", "100")
    assert code == 3
    assert "?" in out
    assert "budget" in out


def test_size_refusals_exit_three(capsys):
    code, _, err = run(capsys, "compute", "--space", "mu(30)*ab:2",
                       "--ring", "f2", "--max-degree", "1")
    assert code == 3
    assert "A^60" in err and "refusing" in err
    code, _, err = run(capsys, "check", "--suite", "special", "--space",
                       "mu(14)*ab:2")
    assert code == 3
    assert "A^28" in err and "refusing" in err


def test_check_square_and_special(capsys):
    code, out, _ = run(capsys, "check", "--suite", "square", "--space",
                       "ab:2", "--ring", "z")
    assert code == 0
    assert out.startswith("PASS commuting-square")
    code, out, _ = run(capsys, "check", "--suite", "special", "--space",
                       "sphere")
    assert code == 0
    assert "not special" in out


def test_check_range_json(capsys):
    code, out, _ = run(capsys, "check", "--suite", "range", "--space",
                       "ab:2", "--ring", "f2", "--max-degree", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["reports"][0]["check"] == "stable-range"



def test_check_segal_over_z(capsys):
    # The integral surjectivity certificate on maps between groups with
    # torsion: rho and the wedge maps are isomorphisms onto Z/2 sums.
    code, out, _ = run(capsys, "check", "--suite", "segal", "--space",
                       "ab:2", "--ring", "z", "--max-degree", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [r["check"] for r in payload["reports"]] == [
        "rho-iso", "wedge-iso", "wedge-iso", "smash-vanishing"]
    assert all(r["passed"] for r in payload["reports"])


def test_check_segal_over_z_takes_one_smith_form_per_level(capsys,
                                                           monkeypatch):
    # The wedge (1, 1) comparison at degree 2 reads both groups of level 4
    # off the stable tables, so the 1350 x 296820 boundary of the target's
    # level 4 gets one Smith form, in its tower; the surjectivity
    # certificate then refuses the level as too large.
    from gammahom import chains
    shapes = []
    smith = chains.smith_normal_form

    def counted(m, *args, **kwargs):
        shapes.append(m.shape)
        return smith(m, *args, **kwargs)

    monkeypatch.setattr(chains, "smith_normal_form", counted)
    code, _, err = run(capsys, "check", "--suite", "segal", "--space",
                       "ab:2", "--ring", "z", "--max-degree", "2")
    assert code == 3
    assert "integral surjectivity certificate" in err
    assert shapes.count((1350, 296820)) == 1


def test_check_failure_exit_one(capsys):
    # the wedge splitting needs a special input; the sphere is not special
    code, out, _ = run(capsys, "check", "--suite", "segal", "--space",
                       "sphere", "--ring", "f2", "--max-degree", "1")
    assert code == 1
    assert "FAIL" in out


def test_dump_roundtrip(capsys):
    code, out, _ = run(capsys, "dump", "--space", "ab:2", "--ring", "z",
                       "--level", "1", "--max-degree", "3", "--format",
                       "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 1
    rebuilt = ChainComplex.from_json(payload)
    direct = normalized_chains(
        spectrum_level(parse_space("ab:2"), 1), parse_ring("z"), 3)
    assert homology(rebuilt) == homology(direct)


def test_dump_point_space_is_empty(capsys):
    code, out, _ = run(capsys, "dump", "--space", "point", "--ring", "z",
                       "--level", "2", "--max-degree", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == {}
    assert payload["boundaries"] == {}


def test_table_output_deterministic(capsys):
    args = ("compute", "--space", "t:s0", "--ring", "q", "--max-degree",
            "2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# SHA-256 of the dump output: entries are listed row-major, whatever order
# the matrices are stored in, so these bytes must not change.
@pytest.mark.parametrize("argv, digest", [
    (("--space", "ab:2", "--ring", "z", "--level", "1", "--max-degree", "4"),
     "3fa35ea3f2f10cb88caa91b7ecfa23a2326bd6dd9c1fbca73cb2695c7778519e"),
    (("--space", "ab:2", "--ring", "f2", "--level", "2", "--max-degree", "5"),
     "5993a4f6d3b1837a464d9ea47d0c1c041cb9982afa4dbec0677e0a077849ebf5"),
    (("--space", "mu(2)*ab:2", "--ring", "f2", "--level", "2",
      "--max-degree", "3"),
     "f0bf9b94976624f3429239772bc7e3020e73a87b61004b2ca31d041afe627474"),
], ids=["ab:2-z-1", "ab:2-f2-2", "mu(2)*ab:2-f2-2"])
def test_dump_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "dump", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
