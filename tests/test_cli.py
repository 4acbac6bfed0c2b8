import json
from importlib.resources import files

from ehrmat import bruteforce, cli


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


def test_all_bundled_documents_validate():
    data_dir = files("ehrmat").joinpath("data")
    names = sorted(p.name for p in data_dir.iterdir()
                   if p.name.endswith(".json"))
    assert len(names) == 26
    for name in names:
        parsed_name, spec = cli.load_document(str(data_dir.joinpath(name)))
        assert parsed_name == name[:-5]
        assert spec.n >= 1
