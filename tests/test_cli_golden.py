"""Byte-identity of CLI output: the sha256 of stdout for cheap valid calls.

The digests were recorded before the CLI's argument handling was rewritten;
any change to what a command prints shows up here.
"""

import hashlib

import pytest

from heckecells.cli import main
from heckecells.hecke import table_from_zero_basis

# (argv, sha256 of stdout); "{table}" is an A1 0-basis table file up to length 9
GOLDEN = [
    ("cells --type A1",
     "b87f9b6ee5ae8828d68082e0d334a8e0233206c0b1f326136d4f8070cdea14fc"),
    ("cells --type C2 --len 8 --margin 2",
     "38b5a606daa432844d6b485fa4437a7b0560fde51e12c8b987e010d349f1eed8"),
    ("cells --type A1 --len 8 --margin 2 --basis {table}",
     "65cde4ba44858d20842f853edd39c4f3dbb2fc495b7f580f2acac3705c10e510"),
    ("kl --type C2 --w s0.s1.s2.s1",
     "b224baa1bd07e14826f8da20d8d5716c9e90a4d8771f2551387dc057658d0ae4"),
    ("kl --type C2 --w s0.s1 --format tsv",
     "7546fd072dc3e7de805a204a738332c5bd872ae48223b771d0e26f195d8305f3"),
    ("kl --type A1 --w s0.s1.s0 --basis {table}",
     "3d9c29887ebddc7c9729c9aba3f0e16c6b6039605029de7fea3968973f270c81"),
    ("kl --type C02 --w s0",
     "a4edecc74781ec6dfaa1cae02e799d50ccbc8a0eaf90b66ed1d328d26e147d99"),
    ("asph --type C2 --w s0.s2.s1",
     "d1cee08862aae6b373ece048a21052d46ff62578a6c153e1877fb863dd41e7c5"),
    ("verlinde --type A2 --p 5 --lambda 1,1 --mu 1,0",
     "b2e3f56ce0ca2c029ee7ec422664711b0b3373126b2bfe6d459bcf77aa6c894a"),
    ("verlinde --type A2 --p 5 --lambda 1,1 --mu 1,0 --format tsv",
     "edcf4dfdbe985e2c445f6a30d0c93285ca7bae7da259b1669e209af0c590c140"),
    ("alcove --type G2 --p 11 --lambda 3,7",
     "75cd277e26c40689c8f6ff67ffe78a32e3ab2b7856faa907630b6b282b4a38e6"),
    ("decompose --type C2 --w s0.s2.s0.s1",
     "db4735c1ee9df4a69ff5cb7de39012c28b8b7e2e16d7452b0a8a11fcd82c3c67"),
    ("humphreys --type G2 --p 11 --lambda 0,0",
     "8113e96280b8a2816000cff0848e4a9b0090842db5e29e8c7a58189d9a2d0f3c"),
    ("humphreys --type C2 --p 7 --lambda 2,1 --len 12 --margin 4",
     "21b28cd81e54c1eebc4ec48dd24d317183a281aabef692c390cbe789589e8105"),
    ("humphreys --type C2 --p 7 --lambda 2,4 --mode relative --len 12 --margin 4",
     "2aee49df1ce2ef037abfab105d7b477047f5368c2532bc2ae2262aa92a09d537"),
    ("orbits --type G2",
     "33f0b7149f3dfaeda68468f7b176e40c223671d6e4857bad9470dccc50651097"),
    ("orbits --type B3",
     "ce2d47a5b1537cc5574788f4803aa04600e77c99481753d3af56917d82cb8dbe"),
    ("plot --type C2 --p 7 --len 6 --margin 2",
     "af621c7ada3edea64139d24a1605469dddd69809325f08233413af85e53fb56c"),
    # recorded before the orbit searches and the generator action were shared
    ("cells --type B3 --len 6 --margin 2",
     "04d408d447a3fa1d9766ce2379cf33db58d0fefb6a9dc078bddca7f152f8b07b"),
    ("decompose --type B3 --w s0.s1.s2.s3.s2",
     "4e96892a7802a2a2269f3d386245ddd607b12483ebd0d3b82a1a1e8642549303"),
    ("orbits --type C3",
     "551892431f27ffcf0db14957ee196f78a82306fecf77d3a63d92f7c41fcaddc1"),
    ("verlinde --type G2 --p 13 --lambda 1,0 --mu 0,1",
     "d79c1d09983877155a58dd1eed9f7ef1ed398ae240adb998bc153bba24eeaf0d"),
    # recorded before the orbit dictionary and the type-A partitions were
    # rewritten: the first calls that print partition names
    ("orbits --type A3",
     "0ff799c26cab93d60ff87e8c489896a6442e31a47f10e73703c3b522342f45b2"),
    ("orbits --type A5",
     "024317be9c8b5033810dd0b2f58344c2bc744f1aa8eab643afa4aebd87b26833"),
    ("orbits --type D4",
     "bee489cf7b809155e74aff9ff9c07ee2607b969307a1e9bb929673671a178a57"),
    ("orbits --type F4",
     "1f50f512536e3623bb03fcc5b427ed1d5a117b97ca31bfbbd8d87413cf5b7da3"),
    ("orbits --type E6",
     "10081a8c198489d623aac9bbc940fcff0fe20bda30b400f90d439bd6f847b231"),
    ("humphreys --type A2 --p 5 --lambda 1,1",
     "c1119b01d3ab4ee6274f1d041b985c51583935c138262a65685bfea7aad79177"),
    ("humphreys --type A3 --p 7 --lambda 1,0,1",
     "4f10c1aa2aa81daf67f83228b7676a59679e56253df86df00a00b2a7ec353d15"),
    # recorded before the dot-action walk stepped on the finite-part records:
    # walks from far out, on every rank the walk serves
    ("alcove --type A1 --p 5 --lambda 50000",
     "f7b00f7eabe3117438f566b2db744382a3a39d25bbf275fa47e02b46a600856d"),
    ("alcove --type B3 --p 7 --lambda 40,3,11",
     "9d37a0cbdca148e55fdb562ea5941f241a28e4d85c8fa52302b3f88844ede013"),
    ("alcove --type E6 --p 13 --lambda 5,0,2,1,0,7",
     "66ea4000eb06ee72c3a797a0ae925dd284e579dc873953337ad6f932ccbed1b1"),
    ("alcove --type F4 --p 13 --lambda 9,1,0,4",
     "13d284609ea3ab9fbf3e31dd4e05b2efb2d051feec784f58bb3618856444766f"),
    ("humphreys --type C2 --p 7 --lambda 400,9 --len 20 --margin 6",
     "8a72431720cbd01b1d51dfa581c33503bea7693666b6a50755542d298dfb8e4e"),
    ("humphreys --type G2 --p 11 --lambda 250,31",
     "0388a2a2400296055417e49c79f618d899d22bb9ae3f6509e490a0768b1a0830"),
    # recorded before the alcove vertices were scaled to integers: theta^vee
    # is (2, 3) on G2 and (2, 1) on B2, so p / c_i is not an integer
    ("plot --type G2 --p 11 --len 24 --margin 8",
     "9e9c60caefd3e06a0b44956e35b1e66be2d4a7f0eafc009455a1ce7021947de5"),
    ("plot --type B2 --p 5 --len 12 --margin 4",
     "2a9171a2d659a6d693f23edf652ae7e46ad4ae9274a3bf32415c4634fef37956"),
]


@pytest.fixture(scope="module")
def table_path(tmp_path_factory, ctx):
    path = tmp_path_factory.mktemp("golden") / "a1_table.txt"
    path.write_text(table_from_zero_basis(ctx("A1").hecke, 9).dump_text())
    return path


@pytest.mark.parametrize("line, want", GOLDEN, ids=[line for line, _ in GOLDEN])
def test_cli_stdout_digest(line, want, table_path, capsys):
    argv = [tok.format(table=table_path) for tok in line.split()]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


@pytest.mark.parametrize("line, want", GOLDEN, ids=[line for line, _ in GOLDEN])
def test_cli_out_file_digest(line, want, table_path, tmp_path, capsys):
    # main writes every command's output, so --out gets the bytes of stdout
    path = tmp_path / "out"
    argv = [tok.format(table=table_path) for tok in line.split()] + ["--out", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want
