import json
import warnings
import xml.etree.ElementTree as ET

import pytest

from heckecells.cli import build_parser, main
from heckecells.hecke import table_from_zero_basis


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    data = path.read_bytes() if path.exists() else b""
    return code, data


def test_cells_command(tmp_path):
    code, data = run_cli(["cells", "--type", "A1", "--len", "8", "--margin", "2"], tmp_path)
    assert code == 0
    obj = json.loads(data)
    assert obj["schema"] == 1
    assert obj["type"] == "A1"
    trusted = [c for c in obj["cells"] if c["trusted"]]
    assert len(trusted) == 2
    assert ["e"] in [c["members"] for c in trusted]


def test_kl_and_asph_commands(tmp_path):
    code, data = run_cli(["kl", "--type", "A1", "--w", "s0.s1"], tmp_path)
    assert code == 0
    obj = json.loads(data)
    assert obj["w"] == "s0.s1"
    assert ["e", "1*v^2"] in obj["terms"]
    code, data = run_cli(["asph", "--type", "A1", "--w", "s0"], tmp_path)
    assert code == 0
    obj = json.loads(data)
    assert obj["terms"] == [["e", "1*v^1"], ["s0", "1*v^0"]]


def test_verlinde_command_tsv(tmp_path):
    code, data = run_cli(
        ["verlinde", "--type", "A1", "--p", "5", "--lambda", "3", "--mu", "3",
         "--format", "tsv"],
        tmp_path,
    )
    assert code == 0
    lines = data.decode().strip().splitlines()
    assert lines[0] == "lambda\tmu\tnu\tmultiplicity"
    assert lines[1:] == ["3\t3\t0\t1"]


def test_alcove_command(tmp_path):
    code, data = run_cli(
        ["alcove", "--type", "A1", "--p", "5", "--lambda", "5"], tmp_path
    )
    assert code == 0
    obj = json.loads(data)
    assert obj["w"] == "s0" and obj["floors"] == [1]


def test_decompose_command(tmp_path):
    code, data = run_cli(["decompose", "--type", "A1", "--w", "s0.s1.s0"], tmp_path)
    assert code == 0
    obj = json.loads(data)
    assert obj["lambda"] == [2] and obj["z"] == "s0"


@pytest.mark.parametrize("type_str", ["A5", "E8"])
def test_decompose_command_large_rank(tmp_path, type_str):
    code, data = run_cli(["decompose", "--type", type_str, "--w", "s0"], tmp_path)
    assert code == 0
    obj = json.loads(data)
    assert not any(obj["lambda"]) and obj["z"] == "s0"


def test_humphreys_rank3_default_leaves_zero_unpinned(tmp_path):
    # at the rank-3 default ball the trusted cells are fewer than the
    # orbits, so the lowest resolved cell gets no orbit
    code, data = run_cli(
        ["humphreys", "--type", "B3", "--p", "7", "--lambda", "0,0,4"], tmp_path
    )
    assert code == 0
    obj = json.loads(data)
    assert obj["orbit_name"] is None and obj["status"] == "unknown"


def test_humphreys_command(tmp_path):
    code, data = run_cli(
        ["humphreys", "--type", "G2", "--p", "11", "--lambda", "0,0"], tmp_path
    )
    assert code == 0
    obj = json.loads(data)
    assert obj["orbit_name"] == "regular" and obj["status"] == "theorem"


def test_humphreys_relative_command(tmp_path):
    # (2,4) = (s0 s2) . 0 for C2 at p = 7; that element is off the
    # double-coset minima, so the relative variety is empty
    code, data = run_cli(
        [
            "humphreys", "--type", "C2", "--p", "7", "--lambda", "2,4",
            "--mode", "relative",
        ],
        tmp_path,
    )
    assert code == 0
    obj = json.loads(data)
    assert obj["mode"] == "relative"
    assert obj["empty_variety"] is True and obj["orbit_name"] is None


def test_orbits_command(tmp_path):
    code, data = run_cli(["orbits", "--type", "G2"], tmp_path)
    assert code == 0
    obj = json.loads(data)
    assert [o["name"] for o in obj["orbits"]] == [
        "zero",
        "minimal",
        "middle",
        "subregular",
        "regular",
    ]


def test_orbits_command_e7(tmp_path):
    code, data = run_cli(["orbits", "--type", "E7"], tmp_path)
    assert code == 0
    obj = json.loads(data)
    assert len(obj["orbits"]) == 45 and obj["closure_leq"] is None


def test_plot_command(tmp_path):
    code, data = run_cli(
        ["plot", "--type", "C2", "--p", "7", "--len", "10", "--margin", "3"],
        tmp_path,
        name="c2.svg",
    )
    assert code == 0
    root = ET.fromstring(data.decode())
    polys = root.findall(".//{http://www.w3.org/2000/svg}polygon")
    from heckecells.affine import AffineWeyl
    from heckecells.rootdata import build_root_datum

    aw = AffineWeyl(build_root_datum("C2"))
    assert len(polys) == len(aw.enumerate_fW(10))
    texts = root.findall(".//{http://www.w3.org/2000/svg}text")
    assert len(texts) >= 16


def test_plot_zero_bound(tmp_path):
    code, data = run_cli(
        ["plot", "--type", "C2", "--p", "7", "--len", "0", "--margin", "0"],
        tmp_path,
        name="one.svg",
    )
    assert code == 0
    root = ET.fromstring(data.decode())
    polys = root.findall(".//{http://www.w3.org/2000/svg}polygon")
    assert len(polys) == 1


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["cells", "--type", "A1", "--bogus"])
    assert e.value.code == 2

    assert main(["humphreys", "--type", "C2", "--p", "3", "--lambda", "0,0"]) == 3
    assert main(["plot", "--type", "A3", "--p", "7"]) == 3

    # a length-zero element other than the identity is in fW but not in W
    for t, word in (("A1", "omega:1"), ("A3", "omega:2")):
        assert main(["decompose", "--type", t, "--w", word]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["code"] == 2 and "fW" in err["message"]

    # generator tokens out of range or negative are usage errors
    for word in ("s9", "omega:9", "s-1"):
        assert main(["kl", "--type", "C2", "--w", word]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["code"] == 2 and repr(word) in err["message"]

    # options a command does not read, and bad option values, are usage
    # errors reported as the one-line JSON record
    for argv in (
        ["cells", "--type", "C2", "--format", "tsv"],
        ["verlinde", "--type", "A1", "--p", "5", "--lambda", "3", "--mu", "3",
         "--format", "svg"],
        ["orbits", "--type", "G2", "--basis", "table.txt"],
        ["kl", "--type", "C2", "--w", "s0", "--p", "7"],
        ["orbits", "--type", "G2", "--len", "3", "--margin", "9"],
        ["decompose", "--type", "C2", "--w", "s0", "--p", "5", "--len", "2"],
        ["alcove", "--type", "A1", "--p", "5", "--lambda", "5", "--len", "4"],
        ["verlinde", "--type", "A1", "--p", "5", "--lambda", "3", "--mu", "3",
         "--margin", "2"],
        ["plot", "--type", "C2", "--len", "6", "--margin", "2"],
        ["cells", "--type", "X5"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["code"] == 2

    # too few trusted cells for the orbit dictionary: usage error
    assert main(
        ["humphreys", "--type", "C2", "--p", "7", "--lambda", "2,1", "--len", "6",
         "--margin", "2"]
    ) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == 2 and "trusted cells" in err["message"]
    # a word too long for the recursive canonical-basis engine: exit 3
    assert main(["kl", "--type", "A1", "--w", ".".join(["s0", "s1"] * 600)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == 3

    # a weight too far from the fundamental alcove for the dot walk: exit 3,
    # one JSON line and no output
    for argv in (
        ["alcove", "--type", "A1", "--p", "5", "--lambda", "10000000"],
        ["humphreys", "--type", "C2", "--p", "7", "--lambda", "400000,0"],
    ):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "unsupported",
            "message": "weight too far from the fundamental alcove",
            "code": 3,
        }

    # a path the user typed that cannot be read or written: usage error
    missing = str(tmp_path / "no-such-table.txt")
    assert main(["kl", "--type", "C2", "--w", "s0", "--basis", missing]) == 2
    unwritable = str(tmp_path / "no-such-dir" / "out.json")
    assert main(["orbits", "--type", "G2", "--out", unwritable]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line)["code"] for line in err] == [2, 2]
    # a diagram needs a positive p
    assert main(["plot", "--type", "C2", "--p", "0", "--len", "2", "--margin", "0"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == 2 and "p >= 1" in err["message"]

    # the fundamental alcove needs a positive p
    for p in ("0", "-3"):
        assert main(["verlinde", "--type", "A1", "--p", p, "--lambda", "1", "--mu", "1"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["code"] == 2 and "p >= 1" in err["message"]

    # malformed table contents, in either wire format, are data errors; the
    # p label must be 0 or a prime (the s0 entry is otherwise valid)
    s0_json = '"entries": [{"w": "s0", "terms": [["e", "1*v^1"], ["s0", "1*v^0"]]}]'
    for name, text in (
        ("float_p.json", '{"p": 0.5, %s}' % s0_json),
        ("bool_p.json", '{"p": true, %s}' % s0_json),
        ("false_p.json", '{"p": false, %s}' % s0_json),
        ("composite_p.json", '{"p": 4, %s}' % s0_json),
        ("negative_p.txt", "p -3\nw=s0 : e:1*v^1, s0:1*v^0\n"),
        ("no_w.json", '{"p": 0, "entries": [{"terms": []}]}'),
        ("int_entries.json", '{"p": 0, "entries": 5}'),
        ("word_p.txt", "p zero\nw=s0 : s0:1*v^0\n"),
        ("bad_term.txt", "p 0\nw=s0 : s0:1*v\n"),
        ("bad_token.txt", "p 0\nw=s7 : s7:1*v^0\n"),
        ("short_term.json", '{"p": 0, "entries": [{"w": "s0", "terms": [["s0"]]}]}'),
        ("int_word.json", '{"p": 0, "entries": [{"w": 5, "terms": []}]}'),
        # a term written twice in one entry, in either format
        ("twice.txt", "p 0\nw=s0 : e:1*v^1, e:7*v^1, s0:1*v^0\n"),
        ("twice.json", '{"p": 0, "entries": [{"w": "s0", "terms": '
         '[["e", "1*v^1"], ["e", "7*v^1"], ["s0", "1*v^0"]]}]}'),
        # a text term without its "word:" prefix
        ("no_word.txt", "p 0\nw=s0 : 1*v^1, s0:1*v^0\n"),
        # a negative coefficient, at p = 2 and at p = 0 (where -v lies in
        # vZ[v]), beside the valid s0 entry the query reads
        ("negative_p2.txt", "p 2\nw=s0 : e:1*v^1, s0:1*v^0\nw=s1 : e:-1*v^1, s1:1*v^0\n"),
        ("negative_p0.txt", "p 0\nw=s0 : e:1*v^1, s0:1*v^0\nw=s1 : e:-1*v^1, s1:1*v^0\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        assert main(["kl", "--type", "A1", "--w", "s0", "--basis", str(path)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["code"] == 4

    # a file that cannot be decoded is a data error too: bytes that are not
    # UTF-8, and JSON nested deeper than the parser's recursion limit
    for name, data in (
        ("not_utf8.txt", b"p 0\n\xff\xfe w=e : e:1*v^0\n"),
        ("deep.json", b'{"p":0,"entries":' + b"[" * 100000 + b"]" * 100000 + b"}"),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["kl", "--type", "A1", "--w", "s0", "--basis", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and json.loads(err)["code"] == 4

    # an entry outside W (here the length-zero omega:1) is a data error
    # that names the entry, not a usage error raised later by the query
    outside = tmp_path / "omega_entry.json"
    outside.write_text('{"p":0,"entries":[{"w":"omega:1","terms":[["omega:1","1*v^0"]]}]}')
    assert main(["kl", "--type", "C2", "--w", "omega:1", "--basis", str(outside)]) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["code"] == 4 and "omega:1" in err["message"]

    bad = tmp_path / "bad_table.txt"
    bad.write_text("p 0\nw=s0 : s0:2*v^0\n")
    assert (
        main(["kl", "--type", "A1", "--w", "s0", "--basis", str(bad)]) == 4
    )
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err)["code"] == 4


def test_byte_determinism(tmp_path):
    args = ["cells", "--type", "C2", "--len", "12", "--margin", "4"]
    _, a = run_cli(args, tmp_path, "a.json")
    _, b = run_cli(args, tmp_path, "b.json")
    assert a == b
    args = ["plot", "--type", "C2", "--p", "7", "--len", "8", "--margin", "2"]
    _, a = run_cli(args, tmp_path, "a.svg")
    _, b = run_cli(args, tmp_path, "b.svg")
    assert a == b


def test_basis_table_cli_round_trip(tmp_path, ctx):
    c = ctx("A1")
    table = table_from_zero_basis(c.hecke, 9)
    path = tmp_path / "table.txt"
    path.write_text(table.dump_text())
    args = ["cells", "--type", "A1", "--len", "8", "--margin", "2"]
    _, base = run_cli(args, tmp_path, "base.json")
    _, redo = run_cli(args + ["--basis", str(path)], tmp_path, "redo.json")
    a, b = json.loads(base), json.loads(redo)
    assert a["cells"] == b["cells"]
    assert a["preorder"] == b["preorder"]


def test_main_leaves_warning_filters_unchanged(tmp_path):
    # A1 at p = 2 = h warns in the alcove walk; the run stays silent and the
    # caller's filters are the same afterwards, also after an error exit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        before = list(warnings.filters)
        assert run_cli(["alcove", "--type", "A1", "--p", "2", "--lambda", "0"], tmp_path)[0] == 0
        assert main(["humphreys", "--type", "C2", "--p", "3", "--lambda", "0,0"]) == 3
        assert warnings.filters == before
    assert not caught


def test_main_calls_share_one_parser_and_no_values(tmp_path, capsys):
    # the parser is built once per process; a usage error, a run with --out
    # and one without, in one process, each parse as a fresh parser does and
    # carry nothing over to the next call
    assert build_parser() is build_parser()
    path = tmp_path / "out.json"
    calls = [
        ["kl", "--type", "A1", "--w", "s0", "--mode", "relative"],
        ["kl", "--type", "A1", "--w", "s0.s1", "--out", str(path)],
        ["kl", "--type", "A1", "--w", "s0.s1"],
    ]
    codes, streams = [], []
    for argv in calls:
        try:
            codes.append(main(argv))
        except SystemExit as e:  # argparse ends a bad command line
            codes.append(e.code)
        streams.append(capsys.readouterr())
    assert codes == [2, 0, 0]
    error = json.loads(streams[0].err)
    assert error["code"] == 2 and "--mode" in error["message"]
    assert streams[0].out == streams[1].out == streams[1].err == streams[2].err == ""
    assert streams[2].out.encode() == path.read_bytes()
    for argv in calls[1:]:
        assert vars(build_parser().parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))
    assert build_parser().parse_args(calls[2]).out is None
