import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crystalgraphs
from crystalgraphs import fixtures
from crystalgraphs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_skeleton_dot(capsys):
    code, out, _ = run(capsys, "skeleton", "--algebra", "A2", "--output", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 12  # loops hidden by default
    code, out2, _ = run(capsys, "skeleton", "--algebra", "A2", "--output", "dot",
                        "--show-loops")
    assert out2.count("->") == 24


def test_skeleton_json_and_stability(capsys):
    code, out, _ = run(capsys, "skeleton", "--algebra", "A2", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 6
    code, out2, _ = run(capsys, "skeleton", "--algebra", "A2", "--output", "json")
    assert out == out2


def test_skeleton_to_file(tmp_path, capsys):
    target = tmp_path / "skel.dot"
    code, out, _ = run(capsys, "skeleton", "--algebra", "A1", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph")


@pytest.mark.parametrize("argv", [
    ("skeleton", "--algebra", "A3", "--output", "json"),
    ("skeleton", "--algebra", "A3", "--output", "dot"),
    ("rightends", "--algebra", "A3", "--format", "json"),
    ("rightends", "--algebra", "A3", "--format", "text"),
], ids=["skeleton-json", "skeleton-dot", "rightends-json", "rightends-text"])
def test_file_and_stdout_get_the_same_bytes(tmp_path, capsys, argv):
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "out"
    code, out, _ = run(capsys, *argv, "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == printed.encode()


# SHA-256 of whole outputs: a change to the tensor rule, to the component
# builder or to the braid chains must keep these outputs byte-identical
PINNED_OUTPUTS = [
    pytest.param(("skeleton", "--algebra", "A4", "--output", "json"),
                 "d1fa31b47c71e3f517283953784d2f66ba08d1dbb10b340ea29b80027345965b",
                 id="skeleton-A4"),
    pytest.param(("rightends", "--algebra", "C2", "--convention", "opposite",
                  "--format", "json"),
                 "70e6a2d434fa978a3c065601191c11a531b62924eed0d8c953d78c2d55728853",
                 id="rightends-C2-opposite"),
    pytest.param(("rightends", "--algebra", "A4", "--via", "slides",
                  "--format", "json"),
                 "878f9daf5a7563ad23b427242f568ada804818f3fbb95ea48867eb027ec8f37c",
                 id="rightends-A4-slides"),
    pytest.param(("verify", "--suite", "keys"),
                 "39e5028a10d6b243dc3e4f1aa7c95913c8603660c45104dfc9e62fccb9c7b5af",
                 id="verify-keys"),
    pytest.param(("verify", "--suite", "kgraph-axioms", "--algebra", "A2",
                  "--degree-bound", "1,1"),
                 "4c924c52c06aedfbf0582e0c2875a6f0bf25a6c733cae06d5b613599892d5985",
                 id="kgraph-axioms-A2-1,1"),
    pytest.param(("verify", "--suite", "kgraph-axioms", "--algebra", "A2",
                  "--degree-bound", "2,2"),
                 "8ce512e726a3c3978677c49dac0cdcae2a48ad764fd0816e416f700c128df69b",
                 id="kgraph-axioms-A2-2,2"),
    pytest.param(("skeleton", "--algebra", "C2", "--convention", "opposite",
                  "--output", "json"),
                 "5b9d6428639a5d023a10e7857f0755ab926e0449d32c101471c1593c366386e1",
                 id="skeleton-C2-opposite"),
    pytest.param(("skeleton", "--algebra", "A3", "--output", "json"),
                 "63966147f4604521d55813149beed76888dd245797e3ce396312876f565072c8",
                 id="skeleton-A3"),
    pytest.param(("skeleton", "--algebra", "A3", "--output", "dot"),
                 "80b2c75eec9f804755438bc880e1360ae3621e747a36900fc17c4891dc05a6f8",
                 id="skeleton-A3-dot"),
    pytest.param(("skeleton", "--algebra", "A3", "--output", "json", "--show-loops"),
                 "53a2edde517d83876d54b6b7ef188b82479179d0bb3f52442d3448017b96ab21",
                 id="skeleton-A3-loops"),
    pytest.param(("skeleton", "--algebra", "C2", "--output", "dot", "--show-loops"),
                 "87030a299506b3b0ca822981c5cf1c4253ec24cb73d5ba92afb25ff02c353b43",
                 id="skeleton-C2-dot-loops"),
    pytest.param(("verify", "--suite", "embeddings", "--algebra", "A4"),
                 "e0fe86784ce4d61cfd942069a3907c1647daaab0c295a1242313991db28ab2e7",
                 id="verify-embeddings-A4"),
    pytest.param(("braiding", "--algebra", "A3", "--factors", "1,3",
                  "--format", "json"),
                 "1d3864782ce1de38a84d4da1d9f6085e01faa8223b1559b84acd46fb5de6bfd5",
                 id="braiding-A3-1,3"),
    pytest.param(("braiding", "--algebra", "A3", "--factors", "3,1",
                  "--format", "json"),
                 "5a306eb54569e57d3655c6f1e8e381de52bb2521f129945ba44f02dff5bf7f0f",
                 id="braiding-A3-3,1"),
    pytest.param(("braiding", "--algebra", "A3", "--factors", "1,3",
                  "--convention", "opposite", "--format", "json"),
                 "b41e49bde09084d683295101a418f03e35a2e41d90db340a8b397356b1bedd0b",
                 id="braiding-A3-1,3-opposite"),
    pytest.param(("braiding", "--algebra", "A3", "--factors", "3,1",
                  "--convention", "opposite", "--format", "json"),
                 "a5779d8329b9d0afdca68f5c96e4164cfa8ea3f9c2a8235b4499a70e864185bf",
                 id="braiding-A3-3,1-opposite"),
    pytest.param(("braiding", "--algebra", "C2", "--factors", "1,2",
                  "--convention", "opposite", "--format", "json"),
                 "d45e1fd2dd53383c72a536d426b8079c9a2754ddca908cdce22a4e0cef28a43f",
                 id="braiding-C2-1,2-opposite"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_output_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.slow
def test_a5_skeleton_pinned(capsys):
    code, out, _ = run(capsys, "skeleton", "--algebra", "A5", "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dc85b60c0d36810a1758b1292f1d02c0b82f43a8f100e0d446c21a3e01403656")


@pytest.mark.slow
def test_a5_skeleton_opposite_pinned(capsys):
    code, out, _ = run(capsys, "skeleton", "--algebra", "A5", "--convention",
                       "opposite", "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0b776d837a3b72ed3dc75c84bf604ca22fb9862fdd73817423a48221d057989d")


@pytest.mark.slow
def test_a5_right_ends_pinned_on_both_routes(capsys):
    code, chains, _ = run(capsys, "rightends", "--algebra", "A5", "--format", "json")
    assert code == 0
    code, slides, _ = run(capsys, "rightends", "--algebra", "A5", "--via", "slides",
                          "--format", "json")
    assert code == 0
    assert slides == chains
    assert hashlib.sha256(chains.encode()).hexdigest() == (
        "ae19c31d05779933179b2f5e51aff30c28be1b18a1744bb0cf5abe9c3c51c4c3")


@pytest.mark.slow
def test_a5_skeleton_dot_pinned(capsys):
    code, out, _ = run(capsys, "skeleton", "--algebra", "A5", "--output", "dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "00ab30aa07ca5d414fd15316f05d63e026dfc876b6f278a99bdb7be84d8508aa")


@pytest.mark.slow
def test_a5_right_ends_text_pinned(capsys):
    code, out, _ = run(capsys, "rightends", "--algebra", "A5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "23bca975f562b878094a1b6fe6ce48269e29e98d9f0733281d502454b4492dd0")


@pytest.mark.slow
def test_a3_axioms_frontier_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kgraph-axioms", "--algebra", "A3",
                       "--degree-bound", "2,1,1")
    assert code == 0
    assert json.loads(out)["instances_checked"] == 6235911
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b720985322597bfd81ed79b0b812f9fe0c9fc08d9f5f7574b514156f5c2b8128")


def test_braiding_table(capsys):
    code, out, _ = run(capsys, "braiding", "--algebra", "A2")
    assert code == 0
    assert "2 (x) 13  ->  23 (x) 1" in out
    assert "1 (x) 23  ->  0" in out
    code, out, _ = run(capsys, "braiding", "--algebra", "C2",
                       "--convention", "opposite", "--format", "json")
    rows = json.loads(out)
    assert {"in": ["a2", "b3"], "out": ["b1", "a4"]} in rows


def run_process(*argv, fixture_dir=None):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(crystalgraphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    if fixture_dir is not None:
        env[fixtures.ENV_VAR] = str(fixture_dir)
    return subprocess.run([sys.executable, "-m", "crystalgraphs.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_cli_imports_neither_dataclasses_nor_inspect():
    # each CLI call pays for its imports; measured against a bare
    # interpreter, so that modules a site hook preloads do not count
    src = str(Path(crystalgraphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    listing = "import sys; print(' '.join(sys.modules))"
    loaded = [set(subprocess.run([sys.executable, "-c", prefix + listing],
                                 capture_output=True, text=True, env=env,
                                 check=True, timeout=60).stdout.split())
              for prefix in ("pass; ", "import crystalgraphs.cli; ")]
    added = loaded[1] - loaded[0]
    assert "crystalgraphs.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("factors", ["1,5", "0,1"])
def test_braiding_index_out_of_range_is_usage_error(factors):
    proc = run_process("braiding", "--algebra", "A2", "--factors", factors)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "outside 1..2" in proc.stderr
    assert "Traceback" not in proc.stderr


# a braiding table whose crystals would pass the size limit is refused before
# anything is built: the product of two fundamentals (A10 5,5 has 462 * 462 =
# 213,444 pairs), or a fundamental itself (A30 15,15 has C(31, 15) columns)
BRAIDING_TOO_LARGE = [
    pytest.param("A10", "5,5", "213,444", id="A10-5,5"),
    pytest.param("A11", "6,6", "853,776", id="A11-6,6"),
    pytest.param("A14", "7,7", "41,409,225", id="A14-7,7"),
    pytest.param("A30", "15,15", "300,540,195", id="A30-15,15"),
    pytest.param("A1000", "1,1", "1,002,001", id="A1000-1,1"),
]


@pytest.mark.parametrize("algebra, factors, size", BRAIDING_TOO_LARGE)
def test_braiding_too_large_is_refused(algebra, factors, size):
    proc = run_process("braiding", "--algebra", algebra, "--factors", factors)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert f"has {size} elements, over the limit of 200,000" in proc.stderr
    assert proc.stdout == ""


def test_skeleton_too_large_is_refused():
    # B(rho) of A_r has 2**N elements, one per subset of the N = r(r+1)/2
    # positive roots
    for r in (40, 100):
        proc = run_process("skeleton", "--algebra", f"A{r}")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: B(1, 1, ")
        size = 2 ** (r * (r + 1) // 2)
        assert f"of A{r} has {size:,} elements, over the limit of 200,000" in proc.stderr
        assert proc.stdout == ""


# a bad value is refused with exit 2 and an error line that names it
BAD_VALUES = [
    pytest.param(("skeleton", "--algebra", "A0"),
                 ("bad rank in algebra name 'A0'", "no file 'A0' exists"),
                 id="algebra-rank-0"),
    pytest.param(("skeleton", "--algebra", "Z99"),
                 ("unknown algebra name 'Z99'", "no file 'Z99' exists"),
                 id="algebra-unknown"),
    pytest.param(("braiding", "--factors", "1"),
                 ("--factors", "i,j", "'1'"), id="factors-one-index"),
    pytest.param(("verify", "--suite", "embeddings", "--degree-bound", "1,x"),
                 ("--degree-bound", "'1,x'"), id="degree-bound-not-integer"),
]


@pytest.mark.parametrize("argv, named", BAD_VALUES)
def test_bad_value_is_named(argv, named):
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert all(text in proc.stderr for text in named), proc.stderr


def _cartan_file(directory, cartan, symmetrizer):
    path = directory / "cartan.json"
    path.write_text(json.dumps({"rank": len(cartan), "cartan": cartan,
                                "symmetrizer": symmetrizer}))
    return str(path)


def test_slides_route_on_a_type_a_data_file(tmp_path, capsys):
    a2 = _cartan_file(tmp_path, [[2, -1], [-1, 2]], [1, 1])
    code, from_file, _ = run(capsys, "rightends", "--algebra", a2,
                             "--via", "slides", "--format", "json")
    assert code == 0
    code, builtin, _ = run(capsys, "rightends", "--algebra", "A2",
                           "--via", "slides", "--format", "json")
    assert code == 0 and from_file == builtin


def test_slides_route_refuses_a_g2_data_file(tmp_path):
    g2 = _cartan_file(tmp_path, [[2, -1], [-3, 2]], [3, 1])
    proc = run_process("rightends", "--algebra", g2, "--via", "slides")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "type A" in proc.stderr


def test_data_without_builtin_crystals_names_the_way_out(tmp_path):
    g2 = _cartan_file(tmp_path, [[2, -1], [-3, 2]], [3, 1])
    proc = run_process("braiding", "--algebra", g2)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"error: no built-in fundamental crystals for datum {g2}: they are "
        "built in for types A_r and C2 only; for other Cartan data, register "
        "each B(omega_i) through CrystalContext.register_fundamental in the "
        "Python API\n")


def _embeddings_report(capsys, algebra):
    code, out, _ = run(capsys, "verify", "--suite", "embeddings", "--algebra", algebra)
    return code, json.loads(out)


def test_embeddings_suite_reads_a2_off_the_cartan_matrix(tmp_path, capsys):
    # a C2 matrix named "A2" gets no A2-only check; an unnamed A2 matrix does
    c2_named_a2 = tmp_path / "c2.json"
    c2_named_a2.write_text(json.dumps({"name": "A2", "rank": 2,
                                       "cartan": [[2, -2], [-1, 2]],
                                       "symmetrizer": [1, 2]}))
    code, report = _embeddings_report(capsys, str(c2_named_a2))
    assert code == 0 and report["failures"] == []
    assert report["instances_checked"] == _embeddings_report(capsys, "C2")[1][
        "instances_checked"]
    a2 = _cartan_file(tmp_path, [[2, -1], [-1, 2]], [1, 1])
    code, report = _embeddings_report(capsys, a2)
    assert code == 0
    assert report["instances_checked"] == _embeddings_report(capsys, "A2")[1][
        "instances_checked"] == 36


def test_rightends_routes_agree(capsys):
    code, via_braiding, _ = run(capsys, "rightends", "--algebra", "A3",
                                "--format", "json")
    assert code == 0
    code, via_slides, _ = run(capsys, "rightends", "--algebra", "A3",
                              "--format", "json", "--via", "slides")
    assert code == 0
    assert via_braiding == via_slides


def ref_rightends(algebra, convention, via, fmt) -> str:
    """The `rightends` output as one text: the row dicts sorted by element,
    through `json.dumps(indent=2)` or one line per row."""
    from crystalgraphs import (CrystalContext, builtin_datum, from_crystal,
                               right_end_tuple, right_ends_via_slides)
    from crystalgraphs.cli import element_str
    ctx = CrystalContext(builtin_datum(algebra), convention)
    rows = []
    for b in ctx.rho_crystal().elements:
        if via == "slides":
            ends = tuple(reversed(right_ends_via_slides(from_crystal(b))))
        else:
            ends = right_end_tuple(ctx, b)
        rows.append({"element": [element_str(x) for x in b],
                     "ends": [element_str(x) for x in ends]})
    rows.sort(key=lambda r: r["element"])
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    return "\n".join(f"{' (x) '.join(r['element'])}  ->  ({', '.join(r['ends'])})"
                     for r in rows) + "\n"


# the slides route reads an element as a tableau, which only the hong-kang
# convention's elements are
RIGHTENDS_CASES = [(algebra, via, convention)
                   for algebra, vias in (("A2", ("braiding", "slides")),
                                         ("C2", ("braiding",)),
                                         ("A3", ("braiding", "slides")))
                   for via in vias for convention in ("hong-kang", "opposite")
                   if (via, convention) != ("slides", "opposite")]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("algebra, via, convention", RIGHTENDS_CASES)
def test_rightends_rows_match_reference(capsys, algebra, via, convention, fmt):
    code, out, _ = run(capsys, "rightends", "--algebra", algebra, "--via", via,
                       "--convention", convention, "--format", fmt)
    assert code == 0
    assert out == ref_rightends(algebra, convention, via, fmt)


def test_rightends_c2_display(capsys):
    code, out, _ = run(capsys, "rightends", "--algebra", "C2",
                       "--convention", "opposite")
    assert code == 0
    assert "a2 (x) b3  ->  (a4, b3)" in out


def test_rightends_slides_rejected_off_type_a(capsys):
    code, _, err = run(capsys, "rightends", "--algebra", "C2", "--via", "slides")
    assert code == 2 and "type A" in err


def test_rightends_slides_rejected_under_opposite(capsys):
    code, out, err = run(capsys, "rightends", "--algebra", "A3", "--via", "slides",
                         "--convention", "opposite")
    assert code == 2 and out == ""
    assert "slides route" in err and "opposite" in err


def test_keys_command(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps([[1, 2, 3], [2, 5], [4]]))
    code, out, _ = run(capsys, "keys", "--tableau", str(path))
    assert code == 0
    assert "1 2 2 / 2 4 / 4" in out
    assert "1 3 3 / 3 5 / 5" in out
    code, out, _ = run(capsys, "keys", "--tableau", str(path), "--format", "json")
    data = json.loads(out)
    assert data["left_key"] == [[1, 2, 2], [2, 4], [4]]


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "a2-fixtures")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["instances_checked"] > 0


def test_verify_with_config(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kgraph-axioms",
                       "--algebra", "C2", "--degree-bound", "1,1")
    assert code == 0
    assert json.loads(out)["details"]["paths"] == 124


def test_bad_algebra_exit_code(capsys):
    code, _, err = run(capsys, "skeleton", "--algebra", "Z99")
    assert code == 2 and "error" in err


def test_bad_bound_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--suite", "kgraph-axioms",
                       "--algebra", "A2", "--degree-bound", "1,1,1")
    assert code == 2


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_fixture_directory_override(tmp_path, monkeypatch):
    (tmp_path / "a2_braiding.json").write_text('{"pairs": []}')
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    assert fixtures.load("a2_braiding.json") == {"pairs": []}
    monkeypatch.delenv(fixtures.ENV_VAR)
    assert len(fixtures.load("a2_braiding.json")["pairs"]) == 9


ALL_FIXTURES = [
    "a2_braiding.json", "a2_right_ends.json", "a2_skeleton.json",
    "a2_red_edges.json", "a2_jdt.json", "example_keys.json",
    "c2_crystal.json", "c2_braiding.json", "c2_right_ends.json",
    "c2_weyl_vertices.json", "c2_right_keys.json",
]


def copy_fixtures(directory):
    """Copy every fixture into `directory`."""
    for name in ALL_FIXTURES:
        (directory / name).write_text(json.dumps(fixtures.load(name)))
    return directory


def tamper_fixtures(directory):
    """Copy every fixture into `directory`, with one A2 braiding entry zeroed."""
    copy_fixtures(directory)
    data = fixtures.load("a2_braiding.json")
    data["pairs"][0]["out"] = None
    (directory / "a2_braiding.json").write_text(json.dumps(data))
    return directory


def test_fixture_ids_are_read_not_coerced():
    assert fixtures.as_column([1, 3]) == (1, 3)
    assert fixtures.as_column("b3") == "b3"
    for bad in ([1.9, 2], [True], ["1"], [None], 3, {"1": 1}):
        with pytest.raises(ValueError, match="neither a string nor an array"):
            fixtures.as_column(bad)


def test_fractional_fixture_id_exits_2(tmp_path):
    # read as 1, the replaced table would pass
    copy_fixtures(tmp_path)
    data = fixtures.load("a2_braiding.json")
    assert data["pairs"][0]["in"][0] == [1]
    data["pairs"][0]["in"][0] = [1.9]
    (tmp_path / "a2_braiding.json").write_text(json.dumps(data))
    proc = run_process("verify", "--suite", "a2-fixtures", fixture_dir=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "1.9" in proc.stderr and "Traceback" not in proc.stderr


def test_verification_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a tampered reference table must surface as exit code 1, not a crash
    monkeypatch.setenv(fixtures.ENV_VAR, str(tamper_fixtures(tmp_path)))
    code, out, _ = run(capsys, "verify", "--suite", "a2-fixtures")
    assert code == 1
    assert json.loads(out)["failures"]


# one case per documented exit code: 0 success, 1 a suite found failures,
# 2 a usage or configuration error
EXIT_CODES = [
    pytest.param(0, False, ("verify", "--suite", "embeddings", "--algebra", "A3"),
                 id="A3-embeddings"),
    pytest.param(1, True, ("verify", "--suite", "a2-fixtures"),
                 id="tampered-fixture"),
    pytest.param(2, False, ("verify", "--suite", "embeddings", "--algebra", "Z99"),
                 id="bad-algebra"),
    pytest.param(2, False, ("verify", "--suite", "embeddings", "--algebra", "A2",
                            "--degree-bound", "1,1,1"), id="bound-length"),
    pytest.param(2, False, ("verify", "--suite", "embeddings", "--algebra", "A2",
                            "--degree-bound=-1,1"), id="negative-bound"),
    pytest.param(2, False, ("verify", "--suite", "embeddings",
                            "--convention", "opposite"),
                 id="embeddings-opposite"),
    pytest.param(2, False, ("verify", "--suite", "embeddings", "--algebra", "A2",
                            "--convention", "opposite"),
                 id="embeddings-opposite-A2"),
    pytest.param(2, False, ("braiding", "--algebra", "A2", "--factors", "1,5"),
                 id="braiding-index"),
    pytest.param(2, False, ("rightends", "--algebra", "A2", "--via", "slides",
                            "--convention", "opposite"), id="slides-opposite"),
    pytest.param(2, False, ("skeleton", "--algebra", "A9"), id="rho-too-large"),
    pytest.param(2, False, ("verify", "--suite", "kgraph-axioms", "--algebra", "A4",
                            "--degree-bound", "9,9,9,9"), id="bound-too-large"),
    # an option the suite does not read is refused, not ignored
    pytest.param(2, False, ("verify", "--suite", "keys", "--algebra", "A9"),
                 id="keys-algebra"),
    pytest.param(2, False, ("verify", "--suite", "a2-fixtures", "--algebra", "C2"),
                 id="a2-fixtures-algebra"),
    pytest.param(2, False, ("verify", "--suite", "lemmas", "--degree-bound", "1,1"),
                 id="lemmas-degree-bound"),
]


@pytest.mark.parametrize("code, tampered, argv", EXIT_CODES)
def test_exit_code_table(code, tampered, argv, tmp_path):
    proc = run_process(*argv,
                       fixture_dir=tamper_fixtures(tmp_path) if tampered else None)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error: ")
    else:
        assert bool(json.loads(proc.stdout)["failures"]) == (code == 1)


# JSON input files that are not of the documented shape, or hold anything
# but integers, are refused with exit 2 instead of being coerced or crashing
MALFORMED_INPUTS = [
    pytest.param("keys", [[1, 2], 3], id="tableau-row-not-array"),
    pytest.param("keys", [[1, 2], [None]], id="tableau-null-entry"),
    pytest.param("keys", None, id="tableau-null"),
    pytest.param("keys", [[1.5, 2]], id="tableau-float-entry"),
    pytest.param("keys", "12", id="tableau-string"),
    pytest.param("skeleton", [1, 2], id="datum-not-object"),
    pytest.param("skeleton", {"rank": 2, "cartan": 5, "symmetrizer": [1, 1]},
                 id="datum-cartan-not-array"),
    pytest.param("skeleton", {"rank": 2, "cartan": [[2, -1], [-1.5, 2]],
                              "symmetrizer": [1, 1]}, id="datum-float-entry"),
    pytest.param("skeleton", {"cartan": [[2, -1], [-1, 2]], "symmetrizer": [1, 1]},
                 id="datum-without-rank"),
    pytest.param("skeleton", {"rank": 2, "symmetrizer": [1, 1]},
                 id="datum-without-cartan"),
    pytest.param("skeleton", {"rank": 2, "cartan": [[2, -1], [-1, 2]]},
                 id="datum-without-symmetrizer"),
]


@pytest.mark.parametrize("command, content", MALFORMED_INPUTS)
def test_malformed_json_input_exit_code(command, content, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    option = "--tableau" if command == "keys" else "--algebra"
    proc = run_process(command, option, str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    # a missing key is named, with the shape of a Cartan data file
    if isinstance(content, dict):
        for key in {"rank", "cartan", "symmetrizer"} - content.keys():
            assert f"lacks '{key}'" in proc.stderr
            assert '"symmetrizer": [...]' in proc.stderr


@pytest.mark.slow
def test_a5_embeddings_report_is_json():
    # 2**14400 compatible colorings: 4,335 decimal digits, past the default
    # int-to-str limit, so the count is written in hexadecimal
    proc = run_process("verify", "--suite", "embeddings", "--algebra", "A5")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["failures"] == []
    assert report["instances_checked"] == 92884
    count = report["details"]["compatible_colorings"]
    assert int(count["hex"], 16) == 2 ** 14400
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "34a24d77e3562d7683bc594a79df4091ab713754dfec7b38256d11401c546467")
