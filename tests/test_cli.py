import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from oracles import corpus_documents
from strategies import independence_specs

from ehrmat import bruteforce, cli, corpus, genfun, specialize
from ehrmat.matroid import RankFunction


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
    # asks for the weights of each distinct multiset of |beta| once, as
    # ehrhart does
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


def test_verify_counts_each_dilation_once(capsys, monkeypatch):
    # the interpolant passes through the counts of k = 0..n, so verify
    # reads k <= n off it and counts only the dilations beyond
    real = bruteforce.count_direct
    calls = []

    def counted(spec, k):
        calls.append(k)
        return real(spec, k)

    monkeypatch.setattr(bruteforce, "count_direct", counted)
    code, out = run(capsys, "verify", data_path("U24_independence"),
                    "--kmax", "6")
    assert code == 0
    assert sorted(calls) == list(range(7))
    assert [c["bruteforce"] for c in json.loads(out)["counts"]] == [
        real(cli.load_document(data_path("U24_independence"))[1], k)
        for k in range(1, 7)]


def test_verify_guard_fires_before_pipeline(tmp_path, capsys, monkeypatch):
    # n = 13 is beyond the brute-force guard: exit 3 without building the
    # generating function
    def fail(spec):
        raise AssertionError("build_genfun called")

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
    nmax = cli.SCAN_GUARD_NMAX + 1
    code = cli.main(["scan-uniform", "--nmax", str(nmax)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUDGET == 3
    assert captured.err == (f"budget exceeded: scan guard: n={nmax}"
                            f" exceeds limit {cli.SCAN_GUARD_NMAX}\n")


def test_budget_does_not_move_scan_guard(capsys, monkeypatch):
    # scan-uniform's --nmax <= 100 is a constant, whatever the shell holds
    for value in ["1", "200", "abc"]:
        monkeypatch.setenv("EHRMAT_BUDGET", value)
        code, _ = run(capsys, "scan-uniform", "--nmax", "101")
        assert code == cli.EXIT_BUDGET == 3, value


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
    # a table is a matroid by its values: U(2,1) as a table is accepted
    # by the bases family and prints what its `uniform` document prints
    docs = [{"name": "u21", "family": "bases", "kind": "table", "n": 2,
             "values": [{"subset": [1], "value": 1},
                        {"subset": [2], "value": 1},
                        {"subset": [1, 2], "value": 1}]},
            {"name": "u21", "family": "bases", "kind": "uniform", "n": 2,
             "r": 1}]
    outs = []
    for doc in docs:
        path = tmp_path / "u21.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["ehrhart", str(path)]) == cli.EXIT_OK
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[0].err == ""


def test_validation_error_names_stage(tmp_path, capsys):
    # a rank function its constructor rejects, and a table the family's
    # axiom check rejects: stderr names the stage that failed; a JSON
    # value that is not an object is named as such, not as a missing
    # field
    for doc, want in [
            ([1, 2], "validation error: document must be a JSON object,"
                     " got list"),
            (None, "validation error: document must be a JSON object,"
                   " got NoneType"),
            ({"name": "wide", "family": "bases", "kind": "uniform",
              "n": 3, "r": 5},
             "validation error: malformed document: matroid: need 0 <= r"),
            ({"name": "mixed", "family": "bases", "kind": "bases", "n": 3,
              "bases": [[1, 2], [3]]},
             "validation error: malformed document: matroid: bases must"),
            ({"name": "table_bases", "family": "bases", "kind": "table",
              "n": 1, "values": [{"subset": [1], "value": 2}]},
             "validation error: axiom check failed for table_bases:"
             " cardinality axiom fails"),
    ]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["ehrhart", str(path)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(want), captured.err


def _u32_documents(family):
    """U(3,2), the triangle's cycle matroid, as each kind of document."""
    subsets = [[i + 1 for i in range(3) if mask >> i & 1]
               for mask in range(1, 8)]
    return {
        "uniform": {"family": family, "kind": "uniform", "n": 3, "r": 2},
        "graphic": {"family": family, "kind": "graphic",
                    "edges": [[1, 2], [2, 3], [1, 3]]},
        "bases": {"family": family, "kind": "bases", "n": 3,
                  "bases": [b for b in subsets if len(b) == 2]},
        "table": {"family": family, "kind": "table", "n": 3,
                  "values": [{"subset": a, "value": min(len(a), 2)}
                             for a in subsets]},
    }


@pytest.mark.parametrize("family", ["bases", "independence",
                                    "polymatroid"])
def test_axiom_walk_runs_only_on_bases_and_table(monkeypatch, family):
    # uniform and graphic ranks are matroids by construction; a bases or
    # table document is walked once, by its family's axioms
    calls = []

    def counted(name, check):
        def wrapper(f):
            calls.append(name)
            return check(f)
        return wrapper

    monkeypatch.setattr(cli, "check_matroid_axioms",
                        counted("matroid", cli.check_matroid_axioms))
    monkeypatch.setattr(cli, "check_polymatroid_axioms",
                        counted("polymatroid",
                                cli.check_polymatroid_axioms))
    want = "polymatroid" if family == "polymatroid" else "matroid"
    for kind, doc in _u32_documents(family).items():
        calls.clear()
        _, spec = cli.parse_document(doc)
        assert spec.f.values == (0, 1, 1, 2, 1, 2, 2, 2), kind
        assert calls == ([want] if kind in ("bases", "table") else []), kind


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _matroid_documents(f, family):
    """The rank function f as a `table` document and as a `bases`
    document, with one name."""
    subsets = [(m, [i + 1 for i in range(f.n) if m >> i & 1])
               for m in range(1 << f.n)]
    r = f.values[-1]
    table = {"name": "m", "family": family, "kind": "table", "n": f.n,
             "values": [{"subset": a, "value": f.values[m]}
                        for m, a in subsets if m]}
    bases = {"name": "m", "family": family, "kind": "bases", "n": f.n,
             "bases": [a for m, a in subsets
                       if len(a) == r == f.values[m]]}
    return table, bases


@settings(max_examples=25, deadline=None)
@given(independence_specs())
def test_table_and_bases_documents_agree(spec):
    # one matroid written both ways prints one ehrhart output under each
    # family: a table is a matroid by its values, not by its kind
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        for family in ("bases", "independence", "polymatroid"):
            outs = []
            for doc in _matroid_documents(spec.f, family):
                Path(path).write_text(json.dumps(doc))
                outs.append(_main_output(["ehrhart", path]))
            assert outs[0] == outs[1], family
            assert outs[0][0] == cli.EXIT_OK and outs[0][2] == ""


@settings(max_examples=20, deadline=None)
@given(independence_specs().filter(lambda spec: spec.f.values[-1] > 0))
def test_doubled_matroid_table_fails_matroid_axioms(spec):
    # 2 f is a polymatroid whose rank rises by 2 at a non-loop: the
    # bases family refuses it by the cardinality axiom
    doubled = RankFunction(spec.f.n, lambda m: 2 * spec.f.values[m])
    table, _ = _matroid_documents(doubled, "bases")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        Path(path).write_text(json.dumps(table))
        code, out, err = _main_output(["ehrhart", path])
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert err.startswith("validation error: axiom check failed for m:"
                          " cardinality axiom fails"), err


def test_validation_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(capsys, "ehrhart", str(path))
    assert code == 2


def test_budget_exit_code(tmp_path, capsys):
    doc = {"name": "big", "family": "bases", "kind": "uniform",
           "n": 21, "r": 2}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "ehrhart", str(path))
    assert code == 3


@pytest.mark.parametrize("n", [21, 64])
def test_table_budget_before_table_size(tmp_path, capsys, n):
    # the guard runs before anything of size 1 << n is built, so an
    # outsized n in a short document exits 3 at once
    doc = {"name": "big", "family": "polymatroid", "kind": "table", "n": n,
           "values": [{"subset": [1], "value": 1}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["ehrhart", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUDGET == 3
    assert captured.err.startswith("budget exceeded: rank table guard")


def test_bases_budget_before_basis_masks(tmp_path, capsys):
    # the guard runs before a basis's bitmask is built, so a 50-byte
    # document naming element 10^8 exits 3 without the 2^(10^8)-bit int
    doc = {"family": "bases", "kind": "bases", "n": 100000000,
           "bases": [[100000000]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = cli.main(["ehrhart", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUDGET == 3
    assert captured.err.startswith("budget exceeded: rank table guard")
    assert peak < 1 << 20


def test_environment_does_not_move_size_guards(tmp_path, capsys,
                                               monkeypatch):
    # the guards are constants, so a value left in the shell can neither
    # lower, raise nor fail them
    monkeypatch.delenv("EHRMAT_BUDGET", raising=False)
    k4 = data_path("K4")
    unset = run(capsys, "ehrhart", k4)
    assert unset[0] == 0
    path = tmp_path / "u21.json"
    path.write_text(json.dumps({"name": "U21", "family": "bases",
                                "kind": "uniform", "n": 21, "r": 2}))
    for value in ["1", "200", "abc"]:
        monkeypatch.setenv("EHRMAT_BUDGET", value)
        assert run(capsys, "ehrhart", k4) == unset, value
        code, _ = run(capsys, "ehrhart", str(path))
        assert code == cli.EXIT_BUDGET, value


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


def test_constructor_fault_is_internal_not_validation(tmp_path, capsys,
                                                     monkeypatch):
    # only a missing field, a wrong type or a rejected value is bad
    # input; any other exception from a rank-function constructor is an
    # internal fault that names the document
    def broken(n, bases):
        raise RuntimeError("rank table lost")

    monkeypatch.setattr(cli.RankFunction, "from_bases", broken)
    path = data_path("F7")
    code = cli.main(["ehrhart", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err == (f"internal error: {path}: RuntimeError:"
                            f" rank table lost\n")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "family": "bases",
                               "kind": "bases", "n": 3}))
    code = cli.main(["ehrhart", str(bad)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION == 2
    assert captured.err == "validation error: malformed document: 'bases'\n"


def test_specialize_error_names_stage(capsys, monkeypatch):
    # a polynomial whose value at k = 1 is no count: the error names the
    # document and the stage
    monkeypatch.setattr(cli, "pipeline_ehrhart",
                        lambda spec: (Fraction(1, 2),))
    path = data_path("K4")
    code = cli.main(["verify", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {path}: specialize:"
                                   f" count 1/2 is not")


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

    def cyclic(arcs):
        pieces = real(arcs)
        return [[pieces[0][0]] + pieces[0][:-1]] + pieces[1:]

    monkeypatch.setattr(genfun, "triangulate_cone", cyclic)
    path = data_path("K4")
    code = cli.main(["ehrhart", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {path}: cones: vertex (")
    assert "piece of rays [0, 0, " in captured.err
    assert "closes a cycle" in captured.err


def test_non_arc_ray_error_names_vertex_and_ray(capsys, monkeypatch):
    # an edge ray that is no arc fails where the edge rays are read as
    # arcs, before any piece: the error names the document, the stage,
    # the vertex and the working ray
    real = genfun.vec_primitive
    calls = []

    def doubled(v):
        ray = real(v)
        calls.append(ray)
        return tuple(2 * x for x in ray) if len(calls) == 1 else ray

    monkeypatch.setattr(genfun, "vec_primitive", doubled)
    path = data_path("K4")
    code = cli.main(["ehrhart", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {path}: cones: vertex (")
    assert re.fullmatch(
        r"internal error: .*: cones: vertex \([01, ]+\): ray \([-02, ]+\)"
        r" is no arc \+-e_a or \+-\(e_a - e_b\), expected a network"
        r" matrix\n", captured.err), captured.err


def test_cached_parser_serves_every_command(capsys, monkeypatch):
    # main reuses one parser per process: a run of commands, a bad argv
    # and a good call after it print what each prints on a fresh parser,
    # and a pipeline patched after the parser is cached still takes
    # effect
    k4 = data_path("K4")
    argvs = [["ehrhart", k4], ["hstar", k4], ["verify", k4, "--kmax", "1"],
             ["genfun", k4], ["scan-uniform", "--nmax", "5"],
             ["ehrhart", k4, "--kmax", "1"], ["hstar", k4]]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    assert fresh[5][0] == ("exit", 2)
    assert [code for code, _, _ in fresh[:5] + fresh[6:]] == [0] * 6
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    assert [call(argv) for argv in argvs] == fresh
    assert cli.build_parser() is parser

    monkeypatch.setattr(cli, "pipeline_ehrhart", lambda spec: [1, 1])
    code, out, _ = call(["ehrhart", k4])
    assert code == 0 and json.loads(out)["coefficients"] == ["1", "1"]
    assert cli.build_parser() is parser


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


def _unpinned(read):
    """Corpus rows whose document, as `read` returns it, differs from
    the row built from first principles in `oracles`."""
    reference = corpus_documents()
    assert sorted(reference) == corpus.names()
    return [name for name in corpus.names() if read(name) != reference[name]]


def test_bundled_corpus_documents_pin_corpus():
    # each shipped corpus document must equal an independent build of
    # its row: graphs by union-find, matrices by Bareiss determinants
    assert len(corpus.names()) == 22
    assert _unpinned(corpus.document) == []


@pytest.mark.parametrize("flip", ["drop_basis", "add_non_basis"])
def test_corpus_pin_sees_one_flipped_basis(flip):
    doc = corpus.document("AG32")
    bases = doc["bases"]
    if flip == "drop_basis":
        bases.pop(len(bases) // 2)
    else:
        # an affine plane of the binary cube, a non-basis of AG32
        plane = [1, 2, 3, 4]
        assert plane not in bases
        bases.append(plane)
        bases.sort()
    assert _unpinned(lambda name: doc if name == "AG32"
                     else corpus.document(name)) == ["AG32"]


def test_corpus_names_are_the_bundled_bases_documents():
    # a data file added or dropped must show up in the corpus rows
    data_dir = files("ehrmat").joinpath("data")
    kinds = {p.name[:-5]: json.loads(p.read_text(encoding="utf-8"))["kind"]
             for p in data_dir.iterdir() if p.name.endswith(".json")}
    assert corpus.names() == sorted(k for k, v in kinds.items()
                                    if v == "bases")


def test_corpus_rejects_a_shipped_document_that_is_not_a_row():
    assert (files("ehrmat") / "data" / "K4_graphic.json").is_file()
    for read in (corpus.document, corpus.rank, corpus.rank_function):
        with pytest.raises(KeyError):
            read("K4_graphic")


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
    # a negative ground-set size, which 1 << n cannot take
    {"family": "bases", "kind": "bases", "n": -1, "bases": [[]]},
    {"family": "polymatroid", "kind": "table", "n": -1, "values": []},
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
    # a name that is not a string would be echoed into the output
    {"name": ["x"], "family": "bases", "kind": "uniform", "n": 3, "r": 1},
    # a document that is not a JSON object
    [1, 2],
    None,
    # a command line (a tuple, not a document) whose range would make
    # the scan or the check vacuous
    ("scan-uniform", "--nmax", "-3"),
    ("scan-uniform", "--nmax", "1"),
    ("scan-uniform", "--nmax", "4", "--rmax", "0"),
    ("verify", data_path("K4"), "--kmax", "-1"),
], ids=["edge_triple", "float_n", "string_r", "float_value",
        "repeated_basis_element", "bases_basis_twice",
        "bases_n_negative", "table_n_negative",
        "table_subset_out_of_range",
        "table_empty_set_nonzero", "table_subset_twice", "name_not_string",
        "document_array", "document_null",
        "scan_nmax_negative", "scan_nmax_one", "scan_rmax_zero",
        "verify_kmax_negative"])
def test_validation_rejects_malformed_values(tmp_path, capsys, doc):
    if isinstance(doc, tuple):
        argv = list(doc)
    else:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ["ehrhart", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error" in captured.err


@pytest.mark.parametrize("text, key", [
    ('{"family": "bases", "kind": "uniform", "n": 4, "r": 2, "r": 3}', "r"),
    ('{"family": "polymatroid", "kind": "table", "n": 1,'
     ' "values": [{"subset": [1], "value": 1, "value": 2}]}', "value"),
], ids=["top_level", "table_entry"])
def test_repeated_key_is_a_validation_error(tmp_path, capsys, text, key):
    # json.load alone keeps the last value: the first document would
    # run as U(4,3)
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli.main(["ehrhart", str(path)]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: document repeats key" \
                           f" {key!r}\n"


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
