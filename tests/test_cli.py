import errno
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mckay
from mckay import cache
from mckay.cli import run
from mckay.strata import enumerate_strata, enumerate_strata_rank1

from conftest import pipeline


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MCKAY_CACHE", str(tmp_path / "cache"))
    yield


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_char_depth_zero(capsys):
    code, out, _ = invoke(capsys, "char", "cyclic:2", "--hw", "1,0",
                          "--depth", "0")
    assert code == 0
    assert json.loads(out) == {"(0,0)": 1}


def test_quiver_dot_triangle(capsys):
    code, out, _ = invoke(capsys, "quiver", "cyclic:3", "--dot")
    assert code == 0
    assert out.count(" -- ") == 3
    assert "doublecircle" in out
    assert out.count("(d=1)") == 3


def test_quiver_json(capsys):
    code, out, _ = invoke(capsys, "quiver", "cyclic:2")
    assert code == 0
    data = json.loads(out)
    assert data["ade_type"] == "A~1"
    assert data["adjacency"] == [[0, 2], [2, 0]]


def test_dimg(capsys):
    code, out, _ = invoke(capsys, "dimg", "cyclic:4")
    assert code == 0
    assert json.loads(out) == {"dim_g": 15, "type": "A~3"}


def test_roots_output(capsys):
    code, out, _ = invoke(capsys, "roots", "cyclic:3")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "A~2"
    assert sorted(map(tuple, data["positive_roots"])) == \
        [(0, 1), (1, 0), (1, 1)]


def test_unknown_spec_exits_2_and_lists_families(capsys):
    code, _, err = invoke(capsys, "group", "icosahedral")
    assert code == 2
    assert "cyclic" in err and "binary-icosahedral" in err


@pytest.mark.parametrize("command,spec,r", [("quiver", "cyclic:61", 61),
                                            ("quiver", "binary-dihedral:58", 61),
                                            ("group", "cyclic:2500", 2500)],
                         ids=["cyclic:61", "binary-dihedral:58", "cyclic:2500"])
def test_group_spec_above_the_class_budget_exits_2(capsys, monkeypatch,
                                                   command, spec, r):
    import mckay.cli
    from mckay.groups import CLASS_BUDGET, GroupSpec

    def refuse(*args):
        raise AssertionError("the cache was read or a group was built")
    monkeypatch.setattr(mckay.cli, "build_group", refuse)
    monkeypatch.setattr(cache, "load", refuse)
    code, out, err = invoke(capsys, command, spec)
    assert code == 2 and out == ""
    assert f"r = {r} conjugacy classes" in err and "class budget of 60" in err
    for accepted in ("cyclic:30", "binary-dihedral:30"):
        assert GroupSpec.parse(accepted).class_count <= CLASS_BUDGET


def test_char_window_above_the_budget_exits_2(capsys):
    code, out, err = invoke(capsys, "char", "binary-icosahedral", "--hw",
                            "1,0,0,0,0,0,0,0,0", "--depth", "20")
    assert code == 2 and out == ""
    assert "10015005 drop vectors" in err


def test_strata_above_the_budget_exits_2(capsys):
    code, out, err = invoke(capsys, "strata", "cyclic:2", "--n", "120")
    assert code == 2 and out == ""
    assert "6639350 vectors and labels" in err


def test_usage_error_exits_2(capsys):
    code, _, _ = invoke(capsys, "char", "cyclic:2", "--hw", "1,2,3",
                        "--depth", "2")
    assert code == 2
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 2


def test_char_oracle_flag(capsys):
    code, out, _ = invoke(capsys, "char", "cyclic:3", "--hw", "1,1,0",
                          "--depth", "3", "--oracle")
    assert code == 0
    table = json.loads(out)
    assert table["(0,0,0)"] == 1


def test_byte_deterministic_output(capsys):
    args = ("chartab", "binary-dihedral:2")
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cache_hit_is_byte_identical_to_fresh_serialization(capsys):
    code, _, _ = invoke(capsys, "group", "cyclic:5")
    assert code == 0
    path = cache.entry_path("cyclic:5")
    assert path.exists()
    stored = json.loads(path.read_text())
    assert stored["format_version"] == cache.FORMAT_VERSION
    assert stored["key"] == "cyclic:5"
    assert path.read_text() == json.dumps(stored, separators=(",", ":"))
    assert json.dumps(stored["payload"], indent=2) == \
        json.dumps(_fresh_payload("cyclic:5"), indent=2)


def test_a_miss_and_a_no_cache_run_parse_nothing(capsys, monkeypatch):
    from mckay.chartab import CharacterTable
    from mckay.groups import FiniteSubgroup
    from mckay.quiver import CartanData

    def refuse(obj):
        raise AssertionError("from_json_obj called")
    for cls in (FiniteSubgroup, CharacterTable, CartanData):
        monkeypatch.setattr(cls, "from_json_obj", staticmethod(refuse))
    code, cold, _ = invoke(capsys, "quiver", "cyclic:3")
    assert code == 0 and cache.entry_path("cyclic:3").exists()
    code, fresh, _ = invoke(capsys, "quiver", "cyclic:3", "--no-cache")
    assert code == 0 and fresh == cold


def test_no_cache_bypasses_the_store(capsys):
    code, _, _ = invoke(capsys, "quiver", "cyclic:3", "--no-cache")
    assert code == 0
    assert not cache.entry_path("cyclic:3").exists()


def test_cache_round_trip_preserves_results(capsys):
    code1, out1, _ = invoke(capsys, "dimg", "binary-dihedral:2")
    code2, out2, _ = invoke(capsys, "dimg", "binary-dihedral:2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1) == {"dim_g": 28, "type": "D~4"}


def test_strata_subcommand(capsys):
    code, out, _ = invoke(capsys, "strata", "cyclic:2", "--n", "4")
    assert code == 0
    labels = json.loads(out)
    assert [tuple(l["lam"]) for l in labels] == [(1, 1), (2,), (1,), ()]
    code, out, _ = invoke(capsys, "strata", "cyclic:2", "--n", "2",
                          "--w", "2,0")
    assert code == 0
    labels = json.loads(out)
    assert {"v0": [1, 0], "lam": [], "residual": 1, "candidate": True} in labels


@pytest.mark.parametrize("spec,n,w", [
    ("cyclic:2", 0, None),
    ("cyclic:2", 9, None),
    ("binary-tetrahedral", 0, "1,1,1,1,1,1,1"),
    ("cyclic:2", 7, "2,0"),
    ("binary-dihedral:2", 12, "1,1,1,1,1"),
], ids=["rank-one-n-0", "rank-one", "framed-n-0", "framed-2-0", "framed-all-ones"])
def test_strata_templates_write_the_encoders_bytes(capsys, spec, n, w):
    _, _, cd = pipeline(spec)
    if w is None:
        labels = enumerate_strata_rank1(n, cd)
        code, out, _ = invoke(capsys, "strata", spec, "--n", str(n))
    else:
        labels = enumerate_strata(n, tuple(map(int, w.split(","))), cd)
        code, out, _ = invoke(capsys, "strata", spec, "--n", str(n), "--w", w)
    assert code == 0
    assert out == json.dumps([l.to_json_obj() for l in labels], indent=2) + "\n"
    if n == 0:
        assert [l.lam for l in labels] == [()]
    else:
        assert any(l.residual and l.lam for l in labels)
    if w is not None and n:
        assert any(l.candidate and l.residual for l in labels)


def test_fiber_subcommand(capsys):
    code, out, _ = invoke(capsys, "fiber", "cyclic:2", "--v", "1,1",
                          "--w", "1,0", "--v0", "0,0", "--lam", "1")
    assert code == 0
    data = json.loads(out)
    assert data == {"lagrangian_v": [0, 0], "transported_w": [1, 0],
                    "punctual_parts": [1], "empty": False}


def test_drinfeld_subcommand(capsys):
    code, out, _ = invoke(capsys, "drinfeld", "--eigs", "1,1;z4;")
    assert code == 0
    data = json.loads(out)
    assert len(data["polynomials"]) == 3
    assert data["polynomials"][2] == [{"N": 1, "terms": [[0, "1"]]}]
    code, _, err = invoke(capsys, "drinfeld", "--eigs", "0")
    assert code == 2
    assert "eigenvalue" in err


@pytest.mark.parametrize("eigs", ["-3/2,1", "-1;z4^3,-5/7"])
def test_drinfeld_eigs_starting_with_a_minus_sign_in_both_spellings(capsys, eigs):
    code, spaced, _ = invoke(capsys, "drinfeld", "--eigs", eigs)
    assert code == 0
    code, joined, _ = invoke(capsys, "drinfeld", f"--eigs={eigs}")
    assert code == 0
    assert spaced == joined


@pytest.mark.parametrize("argv,message", [
    (["char", "cyclic:3", "--depth", "1", "--hw", "-1,0,0"],
     "framing must have 3 entries, one per vertex, componentwise nonnegative"),
    (["strata", "cyclic:3", "--n", "3", "--w", "-1,0,0"],
     "framing must have 3 entries, one per vertex, componentwise nonnegative"),
    (["fiber", "cyclic:3", "--w", "1,0,0", "--v0", "0,0,0", "--v", "-1,1,1"],
     "v must have 3 entries, one per vertex, componentwise nonnegative"),
    (["fiber", "cyclic:3", "--v", "1,1,1", "--v0", "0,0,0", "--w", "-1,0,0"],
     "w must have 3 entries, one per vertex, componentwise nonnegative"),
    (["fiber", "cyclic:3", "--v", "1,1,1", "--w", "1,0,0", "--v0", "-1,0,0"],
     "v0 must have 3 entries, one per vertex, componentwise nonnegative"),
], ids=["char-hw", "strata-w", "fiber-v", "fiber-w", "fiber-v0"])
def test_a_negative_vector_after_a_space_is_read_as_a_value(capsys, argv, message):
    *head, option, value = argv
    for spelling in ([*head, option, value], [*head, f"{option}={value}"]):
        code, out, err = invoke(capsys, *spelling)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


# The vector inputs of the exit-code contract: lists of the right length
# (mostly) or of 0 to 10 entries on specs of 2 to 7 vertices, entries
# that are small or 20 digits long, one of them negative in some lists,
# and texts that are empty or no integer list.  Caps, until every
# accepted window and listing has a stated time: specs of at most 7
# classes, --depth at most 4, --n at most 6.
_ENTRY = st.one_of(st.integers(0, 3), st.integers(10 ** 19, 10 ** 20 - 1))
_OTHER_TEXT = st.sampled_from(["", " ", ",", "1,,2", "x", "1.5"])
_VERTICES = {"cyclic:2": 2, "cyclic:3": 3, "cyclic:5": 5, "binary-dihedral:2": 5,
             "binary-tetrahedral": 7}


@st.composite
def _vector_argv(draw):
    """An argv and whether the library accepts it: when each vertex vector
    has one nonnegative entry per vertex, a framing for char is nonzero,
    the parts of --lam are positive, and --depth and --n are not negative."""
    spec = draw(st.sampled_from(sorted(_VERTICES)))
    r = _VERTICES[spec]

    def vector(option, sizes):
        """[option, text] and the integers the text reads as, or None."""
        kind = draw(st.sampled_from(["list"] * 4 + ["negative", "other"]))
        if kind == "other":
            text = draw(_OTHER_TEXT)
            return [option, text], [] if text.strip() == "" else None
        size = draw(sizes)
        values = draw(st.lists(_ENTRY, min_size=size, max_size=size))
        if kind == "negative" and values:
            values[draw(st.integers(0, len(values) - 1))] = draw(st.integers(-3, -1))
        return [option, ",".join(map(str, values))], values

    def vertex_vector(option):
        argv, values = vector(option, st.one_of(*[st.just(r)] * 3, st.integers(0, 10)))
        return argv, values is not None and len(values) == r and min(values) >= 0, values

    command = draw(st.sampled_from(["char", "strata", "fiber"]))
    if command == "char":
        hw, fits, values = vertex_vector("--hw")
        depth = draw(st.integers(-1, 4))
        return ["char", spec, *hw, "--depth", str(depth)], fits and any(values) and depth >= 0
    if command == "strata":
        n = draw(st.integers(-1, 6))
        w, fits, _ = vertex_vector("--w") if draw(st.booleans()) else ([], True, None)
        return ["strata", spec, "--n", str(n), *w], fits and n >= 0
    argv, accepted = ["fiber", spec], True
    for option in ("--v", "--w", "--v0"):
        vec, fits, _ = vertex_vector(option)
        argv, accepted = argv + vec, accepted and fits
    lam_argv, lam = vector("--lam", st.integers(0, 4))
    return argv + lam_argv, accepted and lam is not None and min(lam, default=1) > 0


# one scratch MCKAY_CACHE (isolated_cache) serves every example
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_vector_argv())
def test_a_vector_input_exits_0_or_2_with_one_error_line(capsys, drawn):
    argv, accepted = drawn
    code, out, err = invoke(capsys, *argv)
    assert code == (0 if accepted else 2)
    if accepted:
        json.loads(out)
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("eigs,message", [
    ("1e30000000", "bad eigenvalue"),
    ("z1000000007^1000000006", "order lcm 1000000007, above the budget of 360"),
    (",".join(["1"] * 1000), "1000 eigenvalues, above the budget of 32"),
    (";" * 100000, "100001 vertices, above the class budget of 60"),
    ("1" * 19, "bad eigenvalue"),
], ids=["exponent-notation", "root-of-order-1e9+7", "1000-ones", "100001-vertices",
        "19-digits"])
def test_drinfeld_inputs_over_their_budgets_exit_2(capsys, eigs, message):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "drinfeld", "--eigs", eigs)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert message in err


def test_drinfeld_inputs_at_their_budgets_are_accepted(capsys):
    code, out, _ = invoke(capsys, "drinfeld", "--eigs",
                          ",".join(["z360^7"] * 31 + ["-3/2"]) + ";" * 59)
    assert code == 0
    data = json.loads(out)
    assert len(data["polynomials"]) == 60
    assert len(data["polynomials"][0]) == 33


def test_group_json_contains_table_and_classes(capsys):
    code, out, _ = invoke(capsys, "group", "binary-dihedral:2")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8
    assert len(data["classes"]) == 5
    assert len(data["mult_table"]) == 8


@pytest.mark.parametrize("lam", ["1,,2", "x", "1,"])
def test_fiber_lam_that_is_not_an_integer_list_exits_2(capsys, lam):
    code, out, err = invoke(capsys, "fiber", "cyclic:2", "--v", "1,1",
                            "--w", "1,0", "--v0", "0,0", "--lam", lam)
    assert code == 2 and out == ""
    assert err == "error: --lam must be a comma-separated integer list\n"


def test_fiber_empty_lam_is_the_empty_partition(capsys):
    code, out, _ = invoke(capsys, "fiber", "cyclic:2", "--v", "1,1",
                          "--w", "1,0", "--v0", "0,0", "--lam", "")
    assert code == 0
    assert json.loads(out)["punctual_parts"] == []


def test_fiber_subcommand_with_oversized_stratum(capsys):
    code, out, _ = invoke(capsys, "fiber", "cyclic:2", "--v", "1,1",
                          "--w", "1,0", "--v0", "0,0", "--lam", "2")
    assert code == 0
    data = json.loads(out)
    assert data["empty"] is True
    assert data["lagrangian_v"] == [-1, -1]
    assert data["transported_w"] == [1, 0]


def test_dimg_binary_icosahedral(capsys):
    code, out, _ = invoke(capsys, "dimg", "binary-icosahedral")
    assert code == 0
    assert json.loads(out) == {"dim_g": 248, "type": "E~8"}


def _child_env(cache_dir, **extra) -> dict:
    # the child imports the same package as this process, whether from a
    # source checkout or an installed copy, and inherits nothing else
    return {"MCKAY_CACHE": str(cache_dir), "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(mckay.__file__).resolve().parent.parent), **extra}


def _one_write_error_line(err: str) -> bool:
    return (err.startswith("error: cannot write output: ") and err.count("\n") == 1
            and "Traceback" not in err and "Exception ignored" not in err)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_pipe_closed_by_the_reader_exits_2_with_one_error_line(tmp_path, unbuffered):
    # the 257 221 bytes of output outgrow a 64 KiB pipe buffer, so the
    # writer meets the closed pipe with output left to write
    proc = subprocess.Popen(
        [sys.executable, "-m", "mckay", "group", "binary-icosahedral"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_child_env(tmp_path, PYTHONUNBUFFERED=unbuffered), cwd="/")
    assert proc.stdout.read(10) == b'{\n  "spec"'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert _one_write_error_line(err), err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_full_device_on_stdout_exits_2_with_one_error_line(tmp_path, unbuffered):
    # cyclic:3 prints less than a buffer, so buffered, its first failed
    # write is the flush
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "mckay", "group", "cyclic:3"], stdout=full,
            stderr=subprocess.PIPE, text=True,
            env=_child_env(tmp_path, PYTHONUNBUFFERED=unbuffered), cwd="/", timeout=60)
    assert result.returncode == 2
    assert _one_write_error_line(result.stderr), result.stderr


def _closed_pipe() -> int:
    """The write end of a pipe whose reader is gone."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("stdout", [
    pytest.param("/dev/full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full")),
    "closed pipe"])
@pytest.mark.parametrize("argv", [["--help"], ["char", "--help"]])
def test_help_to_a_stdout_that_cannot_be_written_exits_2_with_one_error_line(
        tmp_path, argv, stdout, unbuffered):
    # argparse writes the help into a buffer, which run writes out
    fd = _closed_pipe() if stdout == "closed pipe" else os.open(stdout, os.O_WRONLY)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "mckay", *argv], stdout=fd,
            stderr=subprocess.PIPE, text=True,
            env=_child_env(tmp_path, PYTHONUNBUFFERED=unbuffered), cwd="/", timeout=60)
    finally:
        os.close(fd)
    assert result.returncode == 2
    assert _one_write_error_line(result.stderr), result.stderr


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: mckay [-h]"),
                                         (["char", "--help"], "usage: mckay char [-h]")])
def test_help_is_written_to_stdout_and_exits_0(capsys, argv, usage):
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith(usage)


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_stdout_write_exits_2_in_process(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = run(["group", "cyclic:3"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: cannot write output: [Errno 28] No space left on device\n"


def test_output_is_byte_deterministic_across_processes(tmp_path):
    # separate interpreters get different hash seeds; any reliance on
    # dict/set iteration order would show up here.  Each seed computes
    # the table cold in its own cache, and a third run under the second
    # seed reads the first seed's cache entry.
    cmd = [sys.executable, "-m", "mckay.cli", "chartab", "binary-tetrahedral"]
    runs = []
    for seed, cache_dir in (("1", "c1"), ("31337", "c2"), ("31337", "c1")):
        env = _child_env(tmp_path / cache_dir, PYTHONHASHSEED=seed)
        result = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                cwd="/")
        assert result.returncode == 0, result.stderr
        runs.append(result.stdout)
    assert runs[0] == runs[1] == runs[2]


def test_corrupt_cache_entries_are_recomputed(capsys):
    code, out1, _ = invoke(capsys, "dimg", "cyclic:3")
    assert code == 0
    path = cache.entry_path("cyclic:3")
    path.write_text("{not json")
    code, out2, _ = invoke(capsys, "dimg", "cyclic:3")
    assert code == 0 and out2 == out1
    path.write_text(json.dumps({"format_version": -1, "key": "cyclic:3",
                                "payload": {}}))
    code, out3, _ = invoke(capsys, "dimg", "cyclic:3")
    assert code == 0 and out3 == out1
    path.write_text("[1]")
    code, out4, _ = invoke(capsys, "dimg", "cyclic:3")
    assert code == 0 and out4 == out1
    # too deep for the parser, not UTF-8, and an integer past Python's
    # digit limit
    for damaged in (("[" * 200000 + "]" * 200000).encode(),
                    b"\xff\xfe" + json.dumps({"key": "cyclic:3"}).encode(),
                    json.dumps({"format_version": cache.FORMAT_VERSION, "key": "cyclic:3",
                                "payload": {"chartab": "x"}}).replace(
                                    '"x"', "1" * 5000).encode()):
        path.write_bytes(damaged)
        code, out, err = invoke(capsys, "dimg", "cyclic:3")
        assert code == 0 and out == out1 and err == ""


def _fresh_payload(spec):
    from mckay.chartab import character_table
    from mckay.groups import GroupSpec, build_group
    return {"chartab": character_table(build_group(GroupSpec.parse(spec))).to_json_obj()}


def _empty_payload(payload):
    payload.clear()


def _wrong_type_and_delta(payload):
    """The table's degrees are the quiver's delta, which fixes its type."""
    payload["chartab"]["degrees"] = [1, 1, 2]


def _payload_of_another_spec(payload):
    payload.update(_fresh_payload("cyclic:2"))


def _assert_damaged_entry_is_recomputed(capsys, command, spec, damage):
    code, fresh, _ = invoke(capsys, command, spec, "--no-cache")
    assert code == 0
    code, _, _ = invoke(capsys, command, spec)
    assert code == 0
    path = cache.entry_path(spec)
    good = path.read_text()
    entry = json.loads(good)
    damage(entry["payload"])
    path.write_text(json.dumps(entry))
    code, out, err = invoke(capsys, command, spec)
    assert code == 0 and out == fresh and err == ""
    assert path.read_text() == good


@pytest.mark.parametrize("damage", [_empty_payload, _wrong_type_and_delta,
                                    _payload_of_another_spec])
def test_cache_entries_that_fail_verification_are_recomputed(capsys, damage):
    _assert_damaged_entry_is_recomputed(capsys, "dimg", "cyclic:3", damage)


def _reattached_leaves(payload):
    """Swap the rows of two leaves of D~5 on different branch vertices:
    the rows are still the irreducible characters, but out of canonical
    order, and the quiver read from them has the two leaves reattached."""
    from mckay.chartab import CharacterTable
    from mckay.groups import GroupSpec, build_group
    from mckay.quiver import mckay_quiver
    table = payload["chartab"]
    cartan = mckay_quiver(CharacterTable.from_json_obj(
        table, build_group(GroupSpec.parse(table["spec"]))))
    adj = cartan.adjacency
    leaves = [v for v, d in enumerate(cartan.delta)
              if d == 1 and v != cartan.trivial_vertex]
    a, b = next((a, b) for a in leaves for b in leaves if adj[a] != adj[b])
    for key in ("degrees", "values"):
        table[key][a], table[key][b] = table[key][b], table[key][a]


def _value_times_zeta3(payload):
    from mckay.cyclotomic import CycNumber, root_of_unity
    values = payload["chartab"]["values"]
    i, c = next((i, c) for i in range(1, len(values))
                for c in range(1, len(values)) if values[i][c]["terms"])
    values[i][c] = (CycNumber.from_json_obj(values[i][c])
                    * root_of_unity(3)).to_json_obj()


def _true_for_one_in_class_sizes(payload):
    payload["chartab"]["class_sizes"] = [
        True if s == 1 else s for s in payload["chartab"]["class_sizes"]]


def _true_for_one_in_degrees(payload):
    payload["chartab"]["degrees"] = [True if d == 1 else d
                                     for d in payload["chartab"]["degrees"]]


@pytest.mark.parametrize("spec,damage", [
    ("binary-dihedral:3", _reattached_leaves),
    ("binary-dihedral:3", _value_times_zeta3),
    ("cyclic:2", _true_for_one_in_class_sizes),
    ("cyclic:2", _true_for_one_in_degrees),
])
def test_cache_entries_that_disagree_with_their_table_are_recomputed(
        capsys, spec, damage):
    _assert_damaged_entry_is_recomputed(capsys, "quiver", spec, damage)


def _swapped_columns_1_and_2(payload):
    """On cyclic:3, classes 1 and 2 have equal sizes and traces."""
    table = payload["chartab"]
    for row in (*table["values"], table["defining_values"]):
        row[1], row[2] = row[2], row[1]


@pytest.mark.parametrize("command,spec,damage", [
    ("chartab", "cyclic:3", _swapped_columns_1_and_2),
    ("chartab", "cyclic:5", _swapped_columns_1_and_2),
])
def test_cache_entries_that_disagree_with_their_group_are_recomputed(
        capsys, command, spec, damage):
    _assert_damaged_entry_is_recomputed(capsys, command, spec, damage)


@pytest.mark.parametrize("spec,a,b", [("cyclic:5", 3, 4), ("cyclic:8", 5, 6)])
def test_cached_columns_swapped_against_the_power_map_are_recomputed(capsys, spec, a, b):
    """Columns a and b have equal class sizes and traces, so only the
    power map of the group tells the swapped table from the true one."""
    def swap_columns(payload):
        table = payload["chartab"]
        for row in (*table["values"], table["defining_values"]):
            row[a], row[b] = row[b], row[a]
    _assert_damaged_entry_is_recomputed(capsys, "chartab", spec, swap_columns)


@pytest.mark.xfail(strict=True, reason="a known gap of the cached-table checks: the two "
                   "columns are one whole rational class, so the swap is sigma_-1 on that "
                   "class alone, and the Galois check relates only classes of equal order")
@pytest.mark.parametrize("spec,a,b", [("cyclic:12", 6, 7), ("binary-tetrahedral", 5, 6)])
def test_cached_columns_swapped_within_one_rational_class_are_recomputed(capsys, spec, a, b):
    """Columns a and b are complex conjugate classes of equal size and
    trace; after the swap the rows are re-sorted into canonical order."""
    from mckay.chartab import _row_key
    from mckay.cyclotomic import CycNumber

    def swap_columns_and_sort_rows(payload):
        table = payload["chartab"]
        for row in (*table["values"], table["defining_values"]):
            row[a], row[b] = row[b], row[a]
        rows = sorted(zip(table["degrees"], table["values"]), key=lambda item: _row_key(
            tuple(map(CycNumber.from_json_obj, item[1]))))
        table["degrees"], table["values"] = map(list, zip(*rows))
    _assert_damaged_entry_is_recomputed(capsys, "chartab", spec, swap_columns_and_sort_rows)


def test_a_warm_run_reads_no_group(capsys, monkeypatch):
    from mckay.groups import FiniteSubgroup
    code, fresh, _ = invoke(capsys, "group", "cyclic:5", "--no-cache")
    assert code == 0
    assert invoke(capsys, "group", "cyclic:5")[0] == 0

    def refuse(obj):
        raise AssertionError("FiniteSubgroup.from_json_obj called")
    monkeypatch.setattr(FiniteSubgroup, "from_json_obj", staticmethod(refuse))
    assert invoke(capsys, "group", "cyclic:5") == (0, fresh, "")


def _matrices_off_the_table(group):
    """b times zeta_8 in every element whose a is 0, and the second row
    rewritten to match: unit first rows in the canonical element order
    that no longer multiply as the stored table says."""
    from mckay.cyclotomic import CycNumber, root_of_unity
    for element in group["elements"]:
        a, b = (CycNumber.from_json_obj(x) for x in element[:2])
        if a.is_zero():
            b = b * root_of_unity(8)
            element[1:3] = [b.to_json_obj(), (-b.conj()).to_json_obj()]


def test_a_group_stored_beside_the_table_is_never_printed(capsys):
    from mckay.groups import GroupSpec, build_group
    code, fresh, _ = invoke(capsys, "group", "binary-dihedral:2", "--no-cache")
    assert code == 0
    assert invoke(capsys, "group", "binary-dihedral:2")[0] == 0
    path = cache.entry_path("binary-dihedral:2")
    entry = json.loads(path.read_text())
    group = build_group(GroupSpec.parse("binary-dihedral:2")).to_json_obj()
    _matrices_off_the_table(group)
    assert json.dumps(group, indent=2) + "\n" != fresh
    entry["payload"]["group"] = group
    path.write_text(json.dumps(entry, separators=(",", ":")))
    assert invoke(capsys, "group", "binary-dihedral:2") == (0, fresh, "")


def test_an_entry_that_holds_a_group_is_a_miss_and_is_rewritten(capsys, monkeypatch):
    """Format 2 stored the group beside the table."""
    from mckay.chartab import CharacterTable
    from mckay.groups import GroupSpec, build_group
    code, fresh, _ = invoke(capsys, "group", "cyclic:5", "--no-cache")
    assert code == 0
    group = build_group(GroupSpec.parse("cyclic:5")).to_json_obj()
    path = cache.entry_path("cyclic:5")
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"format_version": 2, "key": "cyclic:5",
                                "payload": {"group": group, **_fresh_payload("cyclic:5")}}))

    def refuse(obj, group):
        raise AssertionError("the entry was read")
    monkeypatch.setattr(CharacterTable, "from_json_obj", staticmethod(refuse))
    assert invoke(capsys, "group", "cyclic:5") == (0, fresh, "")
    entry = json.loads(path.read_text())
    assert entry["format_version"] == cache.FORMAT_VERSION == 3
    assert entry["payload"] == _fresh_payload("cyclic:5")


def test_an_entry_of_another_version_is_overwritten_in_place(capsys, monkeypatch):
    """The file name carries no format version, so an entry of another
    version is a miss that the next store replaces, not a file left
    behind."""
    code, fresh, _ = invoke(capsys, "quiver", "cyclic:3", "--no-cache")
    assert code == 0
    path = cache.entry_path("cyclic:3")
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"format_version": 2, "key": "cyclic:3",
                                "payload": _fresh_payload("cyclic:3")}))
    assert invoke(capsys, "quiver", "cyclic:3") == (0, fresh, "")
    assert list(path.parent.iterdir()) == [path]
    assert json.loads(path.read_text())["format_version"] == cache.FORMAT_VERSION
    # the same holds for today's entry once the format moves on
    monkeypatch.setattr(cache, "FORMAT_VERSION", cache.FORMAT_VERSION + 1)
    assert invoke(capsys, "quiver", "cyclic:3") == (0, fresh, "")
    assert list(path.parent.iterdir()) == [path]
    assert json.loads(path.read_text())["format_version"] == cache.FORMAT_VERSION


def _runaway_conductor(payload):
    payload["chartab"]["values"][1][1] = {"N": 10**9 + 7, "terms": [[10**9 + 6, "1"]]}


def test_a_cached_runaway_conductor_is_recomputed(capsys):
    _assert_damaged_entry_is_recomputed(capsys, "chartab", "cyclic:3",
                                        _runaway_conductor)


def _integer_leaves(node, path=()):
    """Paths to the integer leaves of a JSON tree."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            yield from _integer_leaves(child, (*path, key))
    elif type(node) is int:
        yield path


def test_integers_respelled_in_an_entry_are_recomputed(capsys):
    """Each integer of a cached payload, written back as a float, or as
    true or false where it is 1 or 0, makes the entry a miss: the JSON
    spelling must be the one a fresh run writes, down to the conductor
    of every cyclotomic value."""
    code, fresh, _ = invoke(capsys, "group", "cyclic:3", "--no-cache")
    assert code == 0
    assert invoke(capsys, "group", "cyclic:3")[0] == 0
    path = cache.entry_path("cyclic:3")
    good = path.read_text()
    entry = json.loads(good)
    leaves = list(_integer_leaves(entry["payload"], ("payload",)))
    assert ("payload", "chartab", "values", 1, 1, "N") in leaves
    for *keys, last in leaves:
        node = entry
        for key in keys:
            node = node[key]
        value = node[last]
        for spelling in [float(value)] + ([bool(value)] if value in (0, 1) else []):
            node[last] = spelling
            path.write_text(json.dumps(entry, separators=(",", ":")))
            code, out, err = invoke(capsys, "group", "cyclic:3")
            assert (code, out, err) == (0, fresh, ""), (keys, last, spelling)
            assert path.read_text() == good, (keys, last, spelling)
        node[last] = value


def test_unusable_cache_directory_warns_and_computes(capsys, tmp_path,
                                                     monkeypatch):
    code, fresh, _ = invoke(capsys, "dimg", "cyclic:3", "--no-cache")
    assert code == 0
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("MCKAY_CACHE", str(blocker))
    code, out, err = invoke(capsys, "dimg", "cyclic:3")
    assert code == 0 and out == fresh
    assert err.startswith("warning: cache not written") and err.count("\n") == 1
