import hashlib
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from ehrmat import bruteforce, cli, genfun, specialize


def data_path(name):
    return str(files("ehrmat").joinpath(f"data/{name}.json"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_ehrhart_k4(capsys):
    code, out = run(capsys, "ehrhart", data_path("K4"))
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["1", "107/30", "21/4", "49/12",
                                   "7/4", "7/20"]
    assert doc["volumeNormalized"] == "7/20"
    # 5! * 7/20, the sum of the h*-vector (1, 10, 20, 10, 1)
    assert doc["normalizedVolume"] == 42
    assert doc["dim"] == 5


def test_ehrhart_graphic_matches_bases(capsys):
    _, out_b = run(capsys, "ehrhart", data_path("K4"))
    _, out_g = run(capsys, "ehrhart", data_path("K4_graphic"))
    assert (json.loads(out_b)["coefficients"]
            == json.loads(out_g)["coefficients"])


def test_hstar_k4_and_p6(capsys):
    code, out = run(capsys, "hstar", data_path("K4"))
    assert code == 0
    doc = json.loads(out)
    assert doc["hstar"] == [1, 10, 20, 10, 1, 0]
    assert doc["unimodal"] is True
    _, out = run(capsys, "hstar", data_path("P6"))
    assert json.loads(out)["hstar"] == [1, 13, 32, 13, 1, 0]


def test_verify_k4(capsys):
    code, out = run(capsys, "verify", data_path("K4"), "--kmax", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["firstDifferingCoefficient"] is None
    assert [c["k"] for c in doc["counts"]] == [1, 2]
    assert all(c["match"] for c in doc["counts"])


def test_verify_reports_mismatch(capsys, monkeypatch):
    # corrupt the oracle so the diff path and exit code are exercised
    real = bruteforce.ehrhart_by_interpolation

    def corrupted(spec):
        p = list(real(spec))
        p[1] += 1
        return tuple(p)

    monkeypatch.setattr(bruteforce, "ehrhart_by_interpolation", corrupted)
    code, out = run(capsys, "verify", data_path("U24_independence"),
                    "--kmax", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["match"] is False
    assert doc["firstDifferingCoefficient"] == 1


def test_verify_builds_genfun_once(capsys, monkeypatch):
    # the dilation counts are values of the Ehrhart polynomial, so the
    # generating function is built once, for that polynomial
    real = genfun.build_genfun
    calls = []

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(genfun, "build_genfun", counted)
    code, _ = run(capsys, "verify", data_path("U24_independence"),
                  "--kmax", "2")
    assert code == 0
    assert len(calls) == 1


def test_verify_plans_weights_once(capsys, monkeypatch):
    # the dilation counts are read off the Ehrhart polynomial, so verify
    # asks for each term's weights once, exactly as ehrhart does
    real = specialize.weights
    calls = []

    def counted(betas):
        calls.append(betas)
        return real(betas)

    monkeypatch.setattr(specialize, "weights", counted)
    path = data_path("U24_independence")
    assert run(capsys, "ehrhart", path)[0] == 0
    per_ehrhart = len(calls)
    calls.clear()
    assert run(capsys, "verify", path, "--kmax", "3")[0] == 0
    assert len(calls) == per_ehrhart > 0


def test_verify_guard_fires_before_pipeline(tmp_path, capsys, monkeypatch):
    # n = 13 is beyond the brute-force guard: exit 3 without building the
    # generating function
    def fail(spec):
        raise AssertionError("build_genfun called")

    monkeypatch.delenv("EHRMAT_BUDGET", raising=False)
    monkeypatch.setattr(genfun, "build_genfun", fail)
    path = tmp_path / "u13.json"
    path.write_text(json.dumps({"name": "U13", "family": "bases",
                                "kind": "uniform", "n": 13, "r": 3}))
    code, out = run(capsys, "verify", str(path))
    assert code == cli.EXIT_BUDGET == 3
    assert out == ""


def test_verify_polymatroid_table(capsys):
    code, out = run(capsys, "verify", data_path("double_rank_table"),
                    "--kmax", "2")
    assert code == 0 and json.loads(out)["match"] is True


def test_genfun_segment_and_k4(capsys):
    code, out = run(capsys, "genfun", data_path("U36_bases"))
    assert code == 0
    doc = json.loads(out)
    assert doc["termCount"] == len(doc["terms"])
    assert all(any(x != 0 for x in b) for t in doc["terms"] for b in t["b"])
    assert doc["dim"] == 5 and doc["n"] == 6


# SHA-256 of `ehrmat genfun` stdout, trailing newline included. The
# working lattice basis is internal: the terms, their order and their
# open flags are invariant under a unimodular change of that basis, so
# no choice of basis may change a byte of this output.
GENFUN_SHA256 = {
    "K4": "7d01696136e742e1dbdbe875440d8cbe151bd711d2f7be74dc6959ac243c20b3",
    # AG32 and P8 pin the larger cone stages: 8 elements, rank 4
    "AG32":
        "b9f711c80d89a683ce7304d355b07dcb78a50f5778b09f37892984e3d9155195",
    "P8": "392e9c23e39490ed829116e093940bbb08fcb0ff70815c5fa48637bd7b9a5697",
    "W3_whirl":
        "f7797a39693b06e0dc31efc8fa02acbff960c816fad7116022d1e24161abdcb3",
    "U24_independence":
        "3b9185251d51dd9f66823d3cf15466bb1bcf000f60b0db623f785a0ebf8804b8",
    "double_rank_table":
        "186a06219a470df6087c551e19889fecea15478147ec9c6bdc4535f23ce2b00e",
    "U21_plus_U31":
        "218aa452cf58303ff29aabb633e4383a4a0eb7d0ac94cbae79178d605160f774",
    "loop_table":
        "acfacfe9b258e3b687ad5322d1ce84895e6b50c64d66a77dfb3b45aeca7a0d97",
}

INLINE_DOCS = {
    # disconnected, so the polytope has dimension n - 2
    "U21_plus_U31": {
        "name": "U21_plus_U31", "family": "bases", "kind": "bases", "n": 5,
        "bases": [[1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5]]},
    # element 1 is a loop
    "loop_table": {
        "name": "loop_table", "family": "polymatroid", "kind": "table",
        "n": 3, "values": [
            {"subset": s, "value": v} for s, v in [
                ([1], 0), ([2], 2), ([3], 1), ([1, 2], 2), ([1, 3], 1),
                ([2, 3], 2), ([1, 2, 3], 2)]]},
}


# SHA-256 of `ehrmat verify --kmax 3` stdout, trailing newline included,
# as `verify` printed it when each count specialized the k-th dilated
# generating function: the counts column is pinned byte for byte.
VERIFY_SHA256 = {
    "K4": "38c0b87e53492d0819d15240a83eacb316fcc6a3e1d647ea580950f79285124b",
    "U24_independence":
        "e68d0fa9bd74abf0446a26481631d64ab4ed93289ad3a55790aed59fb5b1b77a",
    "double_rank_table":
        "295877aa436c13c828f8aba7076f3a97e35559142a16c67e25f7078c1a30fcb8",
    "loop_table":
        "d8d2a640b1810cd514849d1d515b0854d727ab3313281c521bc6b671c90d7895",
}


def _doc_path(name, tmp_path):
    if name not in INLINE_DOCS:
        return data_path(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INLINE_DOCS[name]))
    return str(path)


@pytest.mark.parametrize("name", sorted(GENFUN_SHA256))
def test_genfun_output_pinned(name, tmp_path, capsys):
    code, out = run(capsys, "genfun", _doc_path(name, tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GENFUN_SHA256[name]


@pytest.mark.parametrize("name", sorted(VERIFY_SHA256))
def test_verify_output_pinned(name, tmp_path, capsys):
    code, out = run(capsys, "verify", _doc_path(name, tmp_path),
                    "--kmax", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[name]


def test_scan_uniform_grid(capsys):
    code, out = run(capsys, "scan-uniform", "--nmax", "4")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 6  # (n, r) pairs with 2<=n<=4, 1<=r<=n-1
    assert doc["violation"] is False


def test_scan_uniform_csv(capsys):
    code, out = run(capsys, "scan-uniform", "--nmax", "3", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,hstarUnimodal,ehrhartCoeffsPositive"
    assert len(lines) == 4


# SHA-256 of `ehrmat scan-uniform --nmax 42` stdout, as the Horner
# evaluation of Katzman's triple sum (tests/oracles.py) produced it.
SCAN_UNIFORM_SHA256 = {
    "json":
        "d1a30b0beeaf5bca4ce327a2fdafe767413159c33b48834f097c3e51527f22a9",
    "csv":
        "1bb4c2136d1f8cf7be80df7690dbeafe9f324724e92727a664f69c3d5257bd18",
}


@pytest.mark.parametrize("fmt", sorted(SCAN_UNIFORM_SHA256))
def test_scan_uniform_output_pinned(fmt, capsys):
    extra = ["--csv"] if fmt == "csv" else []
    code, out = run(capsys, "scan-uniform", "--nmax", "42", *extra)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SCAN_UNIFORM_SHA256[fmt]


def test_scan_guard(capsys):
    code, _ = run(capsys, "scan-uniform", "--nmax", "101")
    assert code == 3


def test_validation_missing_file(capsys):
    code, _ = run(capsys, "ehrhart", "/nonexistent/file.json")
    assert code == 2


def test_validation_bad_table(tmp_path, capsys):
    doc = {"name": "bad", "family": "polymatroid", "kind": "table", "n": 2,
           "values": [{"subset": [1], "value": 1},
                      {"subset": [2], "value": 1},
                      {"subset": [1, 2], "value": 3}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "ehrhart", str(path))
    assert code == 2


def test_validation_incomplete_table(tmp_path, capsys):
    doc = {"name": "partial", "family": "polymatroid", "kind": "table",
           "n": 2, "values": [{"subset": [1], "value": 1}]}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "ehrhart", str(path))
    assert code == 2


def test_validation_table_for_matroid_family(tmp_path, capsys):
    # a rank table is a polymatroid oracle, which the bases family rejects
    doc = {"name": "table_bases", "family": "bases", "kind": "table",
           "n": 2, "values": [{"subset": [1], "value": 1},
                              {"subset": [2], "value": 1},
                              {"subset": [1, 2], "value": 1}]}
    path = tmp_path / "table_bases.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["ehrhart", str(path)]) == 2
    assert "matroid rank function required" in capsys.readouterr().err


def test_validation_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(capsys, "ehrhart", str(path))
    assert code == 2


def test_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EHRMAT_BUDGET", raising=False)
    doc = {"name": "big", "family": "bases", "kind": "uniform",
           "n": 21, "r": 2}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "ehrhart", str(path))
    assert code == 3


def test_malformed_budget_is_a_validation_error(capsys, monkeypatch):
    monkeypatch.setenv("EHRMAT_BUDGET", "abc")
    code = cli.main(["ehrhart", data_path("K4")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION == 2
    assert captured.out == ""
    assert captured.err.startswith("validation error: EHRMAT_BUDGET")


def test_internal_error_exit_code(capsys, monkeypatch):
    # a broken pipeline invariant is neither a verdict (1) nor bad input
    def broken(g):
        raise AssertionError("constant term is not 1")

    monkeypatch.setattr(specialize, "ehrhart_polynomial", broken)
    path = data_path("K4")
    code = cli.main(["ehrhart", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err == f"internal error: {path}: constant term is not 1\n"


def test_crash_exits_internal_not_conjecture(capsys, monkeypatch):
    # an exception other than AssertionError must not escape main, where
    # Python would exit 1 and read as a verdict
    def broken(g):
        raise ValueError("zero pairing")

    monkeypatch.setattr(specialize, "ehrhart_polynomial", broken)
    path = data_path("K4")
    code = cli.main(["ehrhart", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err == f"internal error: {path}: ValueError: zero pairing\n"


def test_piece_error_names_vertex_and_rays(capsys, monkeypatch):
    # a piece that repeats a ray is a cycle of two arcs, so no spanning
    # tree: the error names the document, the stage, the vertex
    # and the piece
    real = genfun.triangulate_cone

    def cyclic(rays):
        pieces = real(rays)
        piece, normals = pieces[0]
        return [([piece[0]] + piece[:-1], normals)] + pieces[1:]

    monkeypatch.setattr(genfun, "triangulate_cone", cyclic)
    path = data_path("K4")
    code = cli.main(["ehrhart", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {path}: cones: vertex (")
    assert "piece of rays [0, 0, " in captured.err
    assert "closes a cycle" in captured.err


@pytest.mark.parametrize("content", [None, b"\xff\xfe{"])
def test_unreadable_document_is_a_validation_error(tmp_path, capsys,
                                                   content):
    # a directory, or bytes that are not UTF-8
    path = tmp_path / "doc.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = cli.main(["ehrhart", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION == 2
    assert captured.err.startswith("validation error: ")


def test_all_bundled_documents_validate():
    data_dir = files("ehrmat").joinpath("data")
    names = sorted(p.name for p in data_dir.iterdir()
                   if p.name.endswith(".json"))
    assert len(names) == 26
    for name in names:
        parsed_name, spec = cli.load_document(str(data_dir.joinpath(name)))
        assert parsed_name == name[:-5]
        assert spec.n >= 1


@pytest.mark.parametrize("doc", [
    # an edge must be a pair of vertices
    {"family": "bases", "kind": "graphic", "edges": [[1, 2, 3], [2, 3]]},
    # no silent coercion of JSON numbers or strings
    {"family": "bases", "kind": "uniform", "n": 6.7, "r": 3},
    {"family": "bases", "kind": "uniform", "n": 6, "r": "3"},
    {"family": "polymatroid", "kind": "table", "n": 2,
     "values": [{"subset": [1], "value": 1}, {"subset": [2], "value": 1},
                {"subset": [1, 2], "value": 2.9}]},
    # a basis with a repeated element is not a set
    {"family": "bases", "kind": "bases", "n": 3, "bases": [[1, 1, 2], [2, 3]]},
    # a basis listed twice: the list is no set of bases
    {"family": "bases", "kind": "bases", "n": 1, "bases": [[1], [1]]},
    # a table subset outside the ground set
    {"family": "polymatroid", "kind": "table", "n": 1,
     "values": [{"subset": [2], "value": 1}]},
    # a nonzero value on the empty set is not overwritten with 0
    {"family": "polymatroid", "kind": "table", "n": 1,
     "values": [{"subset": [], "value": 5}, {"subset": [1], "value": 1}]},
    # a subset listed twice: no value silently wins
    {"family": "polymatroid", "kind": "table", "n": 2,
     "values": [{"subset": [1], "value": 1}, {"subset": [2], "value": 1},
                {"subset": [1, 2], "value": 2}, {"subset": [1], "value": 2}]},
    # a command line (not a document) whose range would make the scan or
    # the check vacuous
    ["scan-uniform", "--nmax", "-3"],
    ["scan-uniform", "--nmax", "1"],
    ["scan-uniform", "--nmax", "4", "--rmax", "0"],
    ["verify", data_path("K4"), "--kmax", "-1"],
], ids=["edge_triple", "float_n", "string_r", "float_value",
        "repeated_basis_element", "bases_basis_twice",
        "table_subset_out_of_range",
        "table_empty_set_nonzero", "table_subset_twice",
        "scan_nmax_negative", "scan_nmax_one", "scan_rmax_zero",
        "verify_kmax_negative"])
def test_validation_rejects_malformed_values(tmp_path, capsys, doc):
    if isinstance(doc, dict):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ["ehrhart", str(path)]
    else:
        argv = doc
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error" in captured.err


def test_verify_imports_no_numpy():
    # the package has no runtime dependency: a full verify run, brute
    # force included, must not pull numpy in
    code = (
        "import sys\n"
        "from ehrmat import cli\n"
        f"code = cli.main(['verify', {data_path('K4')!r}])\n"
        "print(code, 'numpy' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
