import hashlib
import json
import subprocess
import sys

import pytest

from skernel.cli import main
from skernel.complexes import ChainComplex
from skernel.serialization import serialize, simplicial_set_to_doc
from skernel.spaces import boundary, chains, point, sphere
from skernel.simpab import free_reduced_Z


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("s2.json", serialize(chains(boundary(3))))
    write("s1.json", serialize(sphere(1)))
    write("zs1.json", serialize(free_reduced_Z(sphere(1), 3)))
    write("k.json", serialize(ChainComplex(0, 1, {0: 1, 1: 1}, {1: [[2]]})))
    write("l.json", serialize(ChainComplex(0, 0, {0: 1}, {})))
    write("bad.json", json.dumps(
        {"min": 0, "max": 2, "ranks": {"0": 1, "1": 1, "2": 1},
         "d": {"1": [[1]], "2": [[1]]}}))
    write("bad-rank.json", '{"min": 0, "max": 0, "ranks": {"0": "x"}}')
    write("bad-entry.json", '{"min": 0, "max": 1, "ranks": {"0": 1, "1": 1}, "d": {"1": [[1.5]]}}')
    write("top-level-list.json", "[]")
    s0doc = simplicial_set_to_doc(sphere(0))
    ptdoc = simplicial_set_to_doc(point())
    write("scalar-parts.json", '{"K": 5, "L": 1, "M": 2}')
    write("cells-list-map.json", json.dumps({"source": s0doc, "target": s0doc,
                                             "map": {"cells": []}}))
    write("diagram.json", json.dumps({
        "K": s0doc, "L": ptdoc, "M": ptdoc,
        "f": {"cells": {"*": "*", "p": "*"}},
        "g": {"cells": {"*": "*", "p": "*"}},
    }))
    write("cyl.json", json.dumps({
        "source": s0doc, "target": s0doc,
        "map": {"cells": {"*": "*", "p": "*"}},
    }))
    return paths


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "skernel", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_homology_command(files, capsys):
    rc = main(["homology", "--in", files["s2.json"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "H0=Z H1=0 H2=Z"


def test_space_homology_command(files, capsys):
    rc = main(["space-homology", "--in", files["s1.json"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H1=Z" in out


def test_nk_roundtrip_command(files, capsys):
    rc = main(["nk-roundtrip", "--in", files["s2.json"], "--dim", "3"])
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_bar_command(files, capsys):
    rc = main(["bar", "--in", files["zs1.json"]])
    assert rc == 0
    assert "shift-by-one: OK" in capsys.readouterr().out


def test_ez_command(files, capsys):
    rc = main(["ez-verify", "--in", files["zs1.json"]])
    assert rc == 0
    assert "aw o shuffle = id: OK" in capsys.readouterr().out


def test_wr_verify_command(files, capsys, tmp_path):
    outfile = tmp_path / "cert.json"
    rc = main(["wr-verify", "--in", files["s1.json"], "--dim", "4", "--range", "3",
               "--out", str(outfile)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "counit certificate: PASS" in out
    assert "skeleton square n=2: OK" in out
    cert = json.loads(outfile.read_text())
    assert cert["pass"] is True
    assert cert["groupoid"] == "equal"
    assert set(cert) == {"pass", "pi0", "homology", "groupoid", "quotients"}


def test_cell_ids_that_read_like_minted_ids(tmp_path, capsys):
    """A cell named like a degenerate simplex collides with no id that
    wrap, product or smash mint."""
    edge = {"cells": {"0": ["*", "v"], "1": ["s0.v"]}, "faces": {"s0.v": ["v", "*"]},
            "pointed": True, "basepoint": "*"}
    space = tmp_path / "edge.json"
    space.write_text(json.dumps(edge))
    ident = tmp_path / "edge-id.json"
    ident.write_text(json.dumps({"source": edge, "target": edge,
                                 "map": {"cells": {"*": "*", "v": "v", "s0.v": "s0.v"}}}))
    assert main(["wr-verify", "--in", str(space), "--dim", "2"]) == 0
    assert "counit certificate: PASS" in capsys.readouterr().out
    assert main(["cylinder", "--in", str(ident)]) == 0
    assert "retraction certificate: PASS" in capsys.readouterr().out


def test_pushout_command(files, capsys):
    rc = main(["pushout", "--in", files["diagram.json"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H1=Z" in out


def test_cylinder_command(files, capsys):
    rc = main(["cylinder", "--in", files["cyl.json"]])
    assert rc == 0
    assert "retraction o inclusion = id: OK" in capsys.readouterr().out


def test_tower_command(files, capsys):
    rc = main(["tower-report", "--in", files["k.json"], "--in", files["l.json"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "stabilization index: 1" in out
    assert "derived limit vanishes: True" in out


def test_exit_code_2_on_invalid_input(files, capsys, tmp_path):
    rc = main(["homology", "--in", files["bad.json"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert "d(1) @ d(2)" in err

    rc = main(["homology", "--in", files["bad.json"] + ".missing"])
    assert rc == 2

    capsys.readouterr()
    assert main(["homology", "--in", files["bad-rank.json"]]) == 2
    assert "ranks['0'] must be an integer" in capsys.readouterr().err

    assert main(["homology", "--in", files["bad-entry.json"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "differential '1' has a non-integer entry 1.5" in captured.err

    assert main(["nk-roundtrip", "--in", files["s2.json"], "--dim", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dim" in captured.err

    assert main(["wr-verify", "--in", files["s1.json"], "--dim", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dim must be nonnegative" in captured.err

    assert main(["wr-verify", "--in", files["s1.json"], "--dim", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --dim must be at least 1 (trusted range 0..dim-1)\n"

    for command, name in (("wr-verify", "s1.json"), ("cylinder", "cyl.json")):
        assert main([command, "--in", files[name], "--range", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --range must be nonnegative\n"

    for command in ("pushout", "cylinder"):
        assert main([command, "--in", files["top-level-list.json"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "expected a JSON object, found list" in captured.err

    assert main(["pushout", "--in", files["scalar-parts.json"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "K must be a JSON object" in captured.err

    assert main(["cylinder", "--in", files["cells-list-map.json"]]) == 2
    assert "map 'map' needs a cells table" in capsys.readouterr().err

    # a JSON list (or null) where an object is expected names the field
    s0doc = simplicial_set_to_doc(sphere(0))
    malformed = [
        ("space-homology", {"cells": [], "faces": {}}, "cells"),
        ("space-homology", {"cells": {"0": ["a"]}, "faces": []}, "faces"),
        ("space-homology", {"cells": None}, "cells"),
        ("homology", {"min": 0, "max": 0, "ranks": {"0": 1}, "d": []}, "d"),
        ("homology", {"min": 0, "max": 0, "ranks": []}, "ranks"),
        ("bar", {"D": 1, "ranks": {"0": 1, "1": 1}, "face": [], "degen": {}}, "face"),
        ("bar", {"D": 1, "ranks": {"0": 1, "1": 1}, "face": {}, "degen": []}, "degen"),
        ("pushout", {"K": {"cells": [], "faces": {}}, "L": s0doc, "M": s0doc}, "cells"),
    ]
    for i, (command, doc, field) in enumerate(malformed):
        path = tmp_path / ("malformed%d.json" % i)
        path.write_text(json.dumps(doc))
        assert main([command, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "%s must be an object" % field in captured.err

    # a degeneracy index above the dimension names the cell
    s2doc, s1doc = simplicial_set_to_doc(sphere(2)), simplicial_set_to_doc(sphere(1))
    out_of_range = [
        ("space-homology", {"cells": {"0": ["v"], "1": ["e"], "2": ["t"]},
                            "faces": {"e": ["v", "v"], "t": ["e", word, "e"]}},
         "face word (%d,) of 't' has a degeneracy index outside 0..0" % index)
        for word, index in (("s3 v", 3), ("s01 v", 1))
    ] + [
        ("cylinder", {"source": s2doc, "target": s1doc, "map": {"cells": {"*": "*", "c": "s5 c"}}},
         "image word (5,) of 'c' has a degeneracy index outside 0..1"),
    ]
    for i, (command, doc, message) in enumerate(out_of_range):
        path = tmp_path / ("out-of-range%d.json" % i)
        path.write_text(json.dumps(doc))
        assert main([command, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err


def test_exit_code_2_on_wrong_kind(files, capsys):
    rc = main(["homology", "--in", files["s1.json"]])
    assert rc == 2


def test_unpointed_diagrams_and_unequal_truncations_exit_2(tmp_path, capsys):
    """Inputs that parse but that the construction refuses are named
    on stderr with exit 2, not a traceback."""
    unpointed = {"cells": {"0": ["*", "p"]}, "faces": {}}
    ptdoc = simplicial_set_to_doc(point())
    to_point = {"cells": {"*": "*", "p": "*"}}
    cases = [
        ("pushout", [{"K": unpointed, "L": ptdoc, "M": ptdoc, "f": to_point, "g": to_point}],
         "homotopy pushout needs pointed spaces (K is unpointed)"),
        ("cylinder", [{"source": unpointed, "target": unpointed, "map": to_point}],
         "cylinders need pointed spaces and a pointed map"),
        ("ez-verify", [json.loads(serialize(free_reduced_Z(sphere(1), 2))),
                       json.loads(serialize(free_reduced_Z(sphere(1), 3)))],
         "truncation dimension 3 differs from 2"),
    ]
    for command, docs, message in cases:
        argv = [command]
        for k, doc in enumerate(docs):
            path = tmp_path / ("%s%d.json" % (command, k))
            path.write_text(json.dumps(doc))
            argv += ["--in", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def test_suite_runs_in_subprocess():
    rc, out, err = run_cli("suite", "--seed", "0", "--size", "small")
    assert rc == 0
    assert "suite: 28/28 checks passed" in out


def test_suite_determinism():
    rc1, out1, _ = run_cli("suite", "--seed", "1", "--size", "small")
    rc2, out2, _ = run_cli("suite", "--seed", "1", "--size", "small")
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("size, seeds", [("small", range(20)), ("medium", range(5))])
def test_suite_passes_a_seed_sweep(size, seeds):
    from skernel.suite import run_suite

    for seed in seeds:
        report, ok = run_suite(seed, size)
        assert ok, report


def test_suite_reports_failures_with_exit_1():
    """A corrupted differential inside a check makes the suite exit
    nonzero and name the failed property."""
    from skernel.suite import CHECKS, run_suite

    def corrupted(rng, scale):
        ChainComplex(0, 2, {0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})
        return "unreachable"

    sabotaged = CHECKS + [("corrupted-differential", "d d = 0", corrupted)]
    report, ok = run_suite(0, "small", checks=sabotaged)
    assert not ok
    assert "FAIL corrupted-differential" in report
    assert "d(1) @ d(2) is nonzero" in report


def test_suite_smith_check_catches_wrong_invariant_factors(monkeypatch):
    """The smith-normal-form check compares invariant_factors with the
    diagonal of D, so dropping a factor turns it into a FAIL line."""
    import skernel.suite
    from skernel.suite import CHECKS, run_suite

    original = skernel.suite.invariant_factors
    monkeypatch.setattr(skernel.suite, "invariant_factors", lambda m: original(m)[1:])
    smith = [c for c in CHECKS if c[0] == "smith-normal-form"]
    report, ok = run_suite(0, "small", checks=smith)
    assert not ok
    assert "FAIL smith-normal-form" in report
    assert "invariant factors disagree with the diagonal of D" in report


def test_suite_zreduced_check_catches_a_wrong_pair_code(monkeypatch):
    """zreduced-monoidality verifies the smash comparison map itself, so
    a wrong pair rule is a FAIL line: one that keeps the shared
    degeneracies on both factors, in the product and the verifier, and
    one that drops them from the image of a pair, in the verifier alone."""
    import skernel.spaces
    from skernel.spaces import SmashResult
    from skernel.suite import CHECKS, run_suite

    image_code = SmashResult.image_code
    check = [c for c in CHECKS if c[0] == "zreduced-monoidality"]
    with monkeypatch.context() as m:
        m.setattr(skernel.spaces, "_pair_code", lambda number, ma, a, mb, b: (ma & mb, number[a, b, ma, mb]))
        report, ok = run_suite(0, "small", checks=check)
    assert not ok and report.startswith("FAIL zreduced-monoidality")
    monkeypatch.setattr(SmashResult, "image_code", lambda sm, *pair: (0, image_code(sm, *pair)[1]))
    report, ok = run_suite(0, "small", checks=check)
    assert not ok and report.startswith("FAIL zreduced-monoidality")
    assert "comparison is not a bijection" in report


# SHA-256 of every output `test_outputs_are_pinned` collects; a change
# that alters one byte of a suite report or of a command's stdout, or one
# exit code, changes it.
OUTPUT_DIGEST = "1898ac4b581f2ada19127a7c3b01c6b7636b05c1cc8f78de8a1f88edc22e7b81"


def test_outputs_are_pinned(files, capsys):
    """The run_suite reports of small seeds 0-4 and medium seeds 0-1, and
    the stdout and exit code of every command on every fixture above
    (stderr names temporary paths, so it stays out of the digest)."""
    from skernel.cli import COMMANDS
    from skernel.suite import run_suite

    digest = hashlib.sha256()
    for size, seeds in (("small", range(5)), ("medium", range(2))):
        for seed in seeds:
            report, ok = run_suite(seed, size)
            digest.update(("%s %d %s\n" % (size, seed, ok)).encode() + report.encode())
    for command in COMMANDS:
        if command == "suite":
            runs = [["--seed", "3"]]
        elif command == "tower-report":
            runs = [["--in", path, "--in", files["l.json"]] for path in files.values()]
        else:
            runs = [["--in", path] for path in files.values()]
        for extra in runs:
            rc = main([command, *extra])
            out = capsys.readouterr().out
            digest.update(("%s %d\n" % (command, rc)).encode() + out.encode())
    assert digest.hexdigest() == OUTPUT_DIGEST


@pytest.mark.parametrize("value", ["no", 1, [0]])
def test_pointed_must_be_a_json_boolean(value, capsys, tmp_path):
    path = tmp_path / "pointed.json"
    path.write_text(json.dumps({"pointed": value, "basepoint": "a",
                                "cells": {"0": ["a"]}, "faces": {}}))
    assert main(["space-homology", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: pointed must be a JSON boolean, got %s\n" % (
        path, json.dumps(value))


# the differential d_1 of a chain complex, or the face (1, 1) of a
# simplicial group, given as each malformed matrix, and what the message
# says after the field's name
MALFORMED_MATRICES = [
    (1, " must be a list of rows"),
    ([1], " must be a list of rows"),
    ([[1], 1], " must be a list of rows"),
    ([[1, 2], [1]], ": ragged rows"),
    ([[1, 2], [1.5]], " has a non-integer entry 1.5"),
    ([[1.5]], " has a non-integer entry 1.5"),
    ([[0.0]], " has a non-integer entry 0.0"),
    ([[True]], " has a non-integer entry true"),
    ([[False]], " has a non-integer entry false"),
    ([[None]], " has a non-integer entry null"),
    ([["1"]], ' has a non-integer entry "1"'),
    ([[[1]]], " has a non-integer entry [1]"),
]


@pytest.mark.parametrize("matrix, message", MALFORMED_MATRICES,
                         ids=["not-a-list", "row-not-a-list", "one-row-not-a-list", "ragged",
                              "ragged-and-1.5", "1.5", "0.0", "true", "false", "null",
                              "string", "list"])
@pytest.mark.parametrize("command, field, doc", [
    ("homology", "differential '1'",
     lambda m: {"min": 0, "max": 1, "ranks": {"0": 1, "1": 1}, "d": {"1": m}}),
    ("bar", "face '1,1'",
     lambda m: {"D": 1, "ranks": {"0": 1, "1": 1}, "face": {"1,0": [[1]], "1,1": m},
                "degen": {"0,0": [[1]]}}),
], ids=["chain-complex", "simplicial-group"])
def test_a_malformed_matrix_exits_2_naming_its_field(command, field, doc, matrix, message,
                                                     capsys, tmp_path):
    """Every entry is type-checked, the zeros 0.0 and false included, and
    the message names the document field; ragged rows are refused after
    the entries are checked."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc(matrix)))
    assert main([command, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: %s%s\n" % (path, field, message)


@pytest.mark.parametrize("bad", [1, 1.5, True, None, ["x"]],
                         ids=["int", "float", "true", "null", "list"])
def test_a_cell_id_that_is_not_a_string_exits_2(bad, capsys, tmp_path):
    """Cell ids are never coerced with str(): the value is refused, and
    the message names the cells field."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"cells": {"0": ["a", bad]}, "faces": {}}))
    assert main(["space-homology", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: cells['0'] holds %s, not a cell id string\n" % (
        path, json.dumps(bad))


@pytest.mark.parametrize("bad", [5, 1.5, True, None, ["a"]],
                         ids=["int", "float", "true", "null", "list"])
def test_a_face_entry_that_is_not_a_string_exits_2(bad, capsys, tmp_path):
    """Face entries are never coerced with str() either: 5 does not name
    the cell "5", true does not name "True", and the message names the
    cell and the face index."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"cells": {"0": ["a", "5", "True", "None"], "1": ["e"]},
                                "faces": {"e": ["a", bad]}}))
    assert main(["space-homology", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: faces['e'][1] is %s, not a face entry string\n" % (
        path, json.dumps(bad))


READS = {
    "homology": {"--in", "--out"},
    "space-homology": {"--in", "--out"},
    "nk-roundtrip": {"--in", "--dim"},
    "bar": {"--in"},
    "ez-verify": {"--in"},
    "wr-verify": {"--in", "--out", "--dim", "--range"},
    "pushout": {"--in"},
    "cylinder": {"--in", "--out", "--range"},
    "tower-report": {"--in"},
    "suite": {"--out", "--seed", "--size"},
}
FLAG_VALUES = {"--in": "x.json", "--out": "r.txt", "--dim": "9", "--range": "7", "--seed": "4",
               "--size": "medium"}


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_rejects_the_flags_it_does_not_read(command, capsys, tmp_path, monkeypatch):
    """A command takes only the flags it reads (20 settable values in
    all); any other flag exits 2 before the command runs, naming it."""
    from skernel.cli import COMMANDS

    assert set(COMMANDS) == set(READS)
    monkeypatch.chdir(tmp_path)
    for flag in sorted(set(FLAG_VALUES) - READS[command]):
        for argv in ([flag, FLAG_VALUES[flag]], ["%s=%s" % (flag, FLAG_VALUES[flag])]):
            assert main([command, *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: %s does not take %s\n" % (command, flag)
    assert list(tmp_path.iterdir()) == []


def test_successive_calls_share_the_parser_but_not_its_values(monkeypatch):
    """`--in` appends to a list default; a parser built once per process
    must still give each call only its own inputs."""
    from skernel import cli

    seen = []
    monkeypatch.setitem(cli.COMMANDS, "homology",
                        (lambda args, out: seen.append(args.inputs) or 0, "record the inputs"))
    assert main(["homology", "--in", "a.json", "--in", "b.json"]) == 0
    assert main(["homology", "--in", "c.json"]) == 0
    assert main(["homology"]) == 0
    assert seen == [["a.json", "b.json"], ["c.json"], []]
    assert cli.build_parser() is cli.build_parser()
