"""Command-line surface: outputs, exit codes, determinism, round trips."""

import hashlib
import json
import os
import resource
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


def fresh_python(*args, address_space=None):
    """Run python on args in a new process that imports the package from
    this checkout's sources, its address space capped at ``address_space``
    bytes if given; gives up after 30 s."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS,
                           (address_space, address_space))

    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=30,
                          preexec_fn=cap if address_space else None)


def test_huge_prime_ring_rejected_quickly():
    # Run apart, so that a primality test that hangs fails instead of
    # stalling the suite.
    try:
        proc = fresh_python("-m", "gammahom.cli", "compute", "--space",
                            "point", "--ring", "f1000000000000000003")
    except subprocess.TimeoutExpired:
        pytest.fail("ring parsing did not return within 30 s")
    assert proc.returncode == 2
    assert "2^31" in proc.stderr


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy is imported only where a sparse product is taken; a fresh
    # import of it costs more than the smallest jobs take in all.
    proc = fresh_python("-c", "import sys, gammahom, gammahom.cli; "
                        "print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_check_segal_over_f3(capsys):
    # The F_3 suite on ab:3: rho, both wedge splittings and the smash
    # vanishing hold up to degree 1.  Level 3 of each tower lies in the
    # stable range and derives its top from level 2.
    code, out, _ = run(capsys, "check", "--suite", "segal", "--space",
                       "ab:3", "--ring", "f3", "--max-degree", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [r["check"] for r in payload["reports"]] == [
        "rho-iso", "wedge-iso", "wedge-iso", "smash-vanishing"]
    assert all(r["passed"] for r in payload["reports"])


def test_check_segal_over_z_takes_one_smith_form_per_level(capsys,
                                                           monkeypatch):
    # The wedge (1, 1) comparison at degree 2 takes the target's level 4
    # from its tower, with the Smith diagonal of its top kept.  That level
    # lies in the stable range, so its 1350 x 296820 top is derived from
    # level 3's (``NormalizedChains._spanning_top``) and builds no batch;
    # the remainder its unit pivots leave gets one Smith form, the whole
    # boundary none.  The surjectivity certificate then refuses the level
    # as too large.
    from gammahom import chains, simplicial
    shapes, streamed, batches_of = [], [], []
    smith, stream_top = chains.smith_normal_form, chains.stream_top
    top_batches = simplicial.NormalizedChains.top_batches

    def counted(m, *args, **kwargs):
        shapes.append(m.shape)
        return smith(m, *args, **kwargs)

    def counted_stream(cx, batches, spanning=None):
        stream_top(cx, batches, spanning)
        d = cx.degree_bound + 1
        if (cx.rank(d - 1), cx.rank(d)) == (1350, 296820):
            streamed.append((spanning is not None,
                             cx.top_basis.remainder().shape))

    def counted_batches(self):
        batches_of.append(self.multicomplex.degree_ranks.get(
            self.degree_bound + 1))
        return top_batches(self)

    monkeypatch.setattr(chains, "smith_normal_form", counted)
    monkeypatch.setattr(chains, "stream_top", counted_stream)
    monkeypatch.setattr(simplicial, "stream_top", counted_stream)
    monkeypatch.setattr(simplicial.NormalizedChains, "top_batches",
                        counted_batches)
    code, _, err = run(capsys, "check", "--suite", "segal", "--space",
                       "ab:2", "--ring", "z", "--max-degree", "2")
    assert code == 3
    assert "integral surjectivity certificate" in err
    assert len(streamed) == 1 and streamed[0][0]
    assert shapes.count(streamed[0][1]) == 1
    assert (1350, 296820) not in shapes
    assert 296820 not in batches_of


def test_a_refused_rank_is_retried_at_the_lowest_undecided_degree(capsys):
    # At level 3 the reach of degree 3 asks for a mod-3 rank of 1602624
    # vectors of length 9184, more than a basis may hold.  The level is
    # retried at the bound degree 2 needs, which fits, and degree 2
    # stabilizes at level 4; degree 3 is left to the cell budget of
    # level 5.
    code, out, _ = run(capsys, "compute", "--space", "ab:3", "--ring", "f3",
                       "--max-degree", "3", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    degrees = payload["degrees"]
    assert [e["label"] for e in degrees] == ["F3", "F3", "0", "?"]
    assert (degrees[2]["stabilized_at"], degrees[2]["certificate"]) \
        == (4, "i<n")
    assert payload["budget_note"].startswith("level 5: cells above")


@pytest.mark.parametrize("ring, labels, stop", [
    ("z", ["Z/3", "0", "0", "?"], "level 5"),
    ("q", ["0", "0", "0", "?"], "level 4")], ids=["z", "q"])
def test_an_integral_rank_too_large_is_refused_and_retried(ring, labels,
                                                          stop):
    # Over Z and Q as over F_3, level 3 of ab:3 at the reach of degree 3
    # asks for a rank whose basis would pass the limit.  It is refused and
    # the level retried at the bound degree 2 needs; building that top
    # whole for the line engine instead took 1.3 GB before a MemoryError.
    # A fresh process capped at 1.5 GB of address space fails fast if so.
    proc = fresh_python("-m", "gammahom.cli", "compute", "--space", "ab:3",
                        "--ring", ring, "--max-degree", "3", "--format",
                        "json", address_space=1_500_000_000)
    assert proc.returncode == 3, proc.stderr[-2000:]
    payload = json.loads(proc.stdout)
    assert [e["label"] for e in payload["degrees"]] == labels
    assert payload["budget_note"].startswith(f"{stop}: cells above")


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
