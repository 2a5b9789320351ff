import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import symkron
from symkron.cli import main
from symkron.series import SymFunc


def run(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_expand_h_in_h_basis(capsys):
    status, out, _ = run(["expand", "--series", "H", "--degree", "2",
                          "--basis", "h"], capsys)
    assert status == 0
    data = json.loads(out)
    assert data == {
        "basis": "h",
        "degree": 2,
        "terms": [
            {"partition": [], "coefficient": "1"},
            {"partition": [1], "coefficient": "1"},
            {"partition": [2], "coefficient": "1"},
        ],
    }


def test_expand_default_basis_is_p(capsys):
    status, out, _ = run(["expand", "--series", "G", "--degree", "2"], capsys)
    assert status == 0
    data = json.loads(out)
    assert data["basis"] == "p"
    assert data["terms"] == [
        {"partition": [], "coefficient": "1"},
        {"partition": [1, 1], "coefficient": "1/2"},
    ]


def test_expand_unknown_series_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["expand", "--series", "Q", "--degree", "2"])
    assert info.value.code == 2


def test_expand_negative_degree_is_usage_error(capsys):
    status, _, err = run(["expand", "--series", "H", "--degree", "-1"], capsys)
    assert status == 2
    assert err.startswith("error:")


def test_verify_negative_degree_is_usage_error(capsys):
    for what in ("table", "intro", "support", "factors", "all"):
        status, out, err = run(["verify", what, "--degree", "-3"], capsys)
        assert status == 2, what
        assert out == ""
        assert err.startswith("error: --degree")


def test_kron_files(tmp_path, capsys):
    p2 = SymFunc.single("p", (2,), 2)
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(p2.to_json())
    rhs.write_text(p2.to_json())
    status, out, _ = run(["kron", "--lhs", str(lhs), "--rhs", str(rhs)], capsys)
    assert status == 0
    assert SymFunc.from_json(out) == SymFunc.single("p", (2,), 2, 2)


def test_kron_reads_stdin(tmp_path, capsys, monkeypatch):
    h2 = SymFunc.single("h", (2,), 2)
    e2 = SymFunc.single("e", (2,), 2)
    path = tmp_path / "lhs.json"
    path.write_text(h2.to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(e2.to_json()))
    status, out, _ = run(["kron", "--lhs", str(path), "--rhs", "-"], capsys)
    assert status == 0
    # h2 (x) e2 = e2 in p coordinates
    from symkron.bases import to_p

    assert SymFunc.from_json(out) == to_p(e2)


def test_kron_rejects_float_coefficient(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"basis": "p", "degree": 1, "terms": [
        {"partition": [1], "coefficient": 0.1}]}))
    status, out, err = run(["kron", "--lhs", str(path), "--rhs", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: malformed series JSON: coefficient 0.1")


def test_kron_rejects_malformed_terms(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for terms in ([{"partition": [1], "coefficient": "1/0"}],
                  [{"partition": [1], "coefficient": "1e3"}],
                  [{"partition": [1], "coefficient": 1}, {"partition": [1], "coefficient": 2}]):
        path.write_text(json.dumps({"basis": "p", "degree": 1, "terms": terms}))
        status, out, err = run(["kron", "--lhs", str(path), "--rhs", str(path)], capsys)
        assert status == 2
        assert out == ""
        assert err.startswith("error: malformed series JSON:")


@pytest.mark.parametrize("partition", [[1, 2], [0], [2.5], [True], "12"])
def test_kron_rejects_what_is_not_a_partition(partition, tmp_path, capsys):
    # The kernels trust their keys, so the JSON boundary is the only guard.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"basis": "p", "degree": 3, "terms": [
        {"partition": partition, "coefficient": 1}]}))
    good = tmp_path / "good.json"
    good.write_text(SymFunc.single("p", (2, 1), 3).to_json())
    for lhs, rhs in ((path, good), (good, path)):
        status, out, err = run(["kron", "--lhs", str(lhs), "--rhs", str(rhs)], capsys)
        assert status == 2
        assert out == ""
        assert err.startswith("error: malformed series JSON: parts must be")
        assert repr(tuple(partition)) in err


def test_kron_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    status, out, err = run(["kron", "--lhs", str(path), "--rhs", str(path)], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: malformed series JSON:")


def test_kron_prefixes_json_decode_errors(tmp_path, capsys):
    # json.loads' own errors: text cut short, and a JSON integer longer
    # than Python's int-from-string limit (4300 digits).
    good = SymFunc.single("p", (1,), 1).to_json()
    huge = json.dumps({"basis": "p", "degree": 1, "terms": [
        {"partition": [1], "coefficient": 7}]}).replace("7", "7" * 5000)
    path = tmp_path / "bad.json"
    cut = good[:good.index("[") + 2]  # ends inside the terms list
    for text, detail in ((cut, "Expecting value"), (huge, "4300 digits")):
        path.write_text(text)
        status, out, err = run(["kron", "--lhs", str(path), "--rhs", str(path)], capsys)
        assert status == 2
        assert out == ""
        assert err.startswith("error: malformed series JSON:")
        assert detail in err


def test_kron_rejects_double_stdin(capsys):
    status, _, err = run(["kron", "--lhs", "-", "--rhs", "-"], capsys)
    assert status == 2
    assert "stdin" in err


def test_kron_missing_file(capsys):
    status, _, err = run(["kron", "--lhs", "/nonexistent.json",
                          "--rhs", "/nonexistent.json"], capsys)
    assert status == 2
    assert err.startswith("error:")


def test_coef(capsys):
    status, out, _ = run(["coef", "--lambda", "2,1", "--mu", "2,1",
                          "--rho", "2,1"], capsys)
    assert status == 0
    assert out.strip() == "1"


def test_coef_oracle(capsys):
    status, out, _ = run(["coef", "--lambda", "1,1", "--mu", "1,1",
                          "--rho", "2", "--oracle"], capsys)
    assert status == 0
    assert out.strip() == "1"


def test_coef_bad_partition(capsys):
    with pytest.raises(SystemExit) as info:
        main(["coef", "--lambda", "two", "--mu", "2", "--rho", "2"])
    assert info.value.code == 2


def test_coef_weight_mismatch(capsys):
    status, _, err = run(["coef", "--lambda", "2", "--mu", "1,1",
                          "--rho", "1"], capsys)
    assert status == 2
    assert "error" in err


def test_verify_all(tmp_path, capsys):
    report_path = tmp_path / "reports.json"
    status, out, _ = run(["verify", "all", "--degree", "4",
                          "--json", str(report_path)], capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 21
    assert lines[-1] == "21/21 identities verified"
    reports = json.loads(report_path.read_text())
    assert len(reports) == 21
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["first_discrepancy"] is None for r in reports)


def test_verify_prints_and_writes_the_first_discrepancy(tmp_path, capsys, monkeypatch):
    # A wrong table entry: H (x) H is H, not E, and the two first differ at
    # h_2 = p_1^2 / 2 + p_2 / 2 against e_2 = p_1^2 / 2 - p_2 / 2.
    H, E = symkron.NamedSeries.H, symkron.NamedSeries.E
    monkeypatch.setitem(symkron.verify.TABLE, (H, H), (E,))
    report_path = tmp_path / "reports.json"
    status, out, _ = run(["verify", "table", "--degree", "3",
                          "--json", str(report_path)], capsys)
    assert status == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL H⊗H=E ")
    assert lines[1] == "     first discrepancy at [2]: lhs=1/2 rhs=-1/2"
    assert lines[-1] == "14/15 identities verified"
    first = json.loads(report_path.read_text(encoding="utf-8"))[0]
    assert first["status"] == "fail"
    assert first["first_discrepancy"] == {"partition": [2], "lhs": "1/2", "rhs": "-1/2"}


def test_verify_single_groups(capsys):
    for what, count in (("intro", 1), ("support", 1), ("factors", 4), ("table", 15)):
        status, out, _ = run(["verify", what, "--degree", "3"], capsys)
        assert status == 0
        assert f"{count}/{count} identities verified" in out


def test_verify_json_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        status, _, _ = run(["verify", "intro", "--degree", "3",
                            "--json", str(path)], capsys)
        assert status == 0

    def strip(path):
        reports = json.loads(path.read_text())
        for r in reports:
            r.pop("millis")
        return reports

    assert strip(paths[0]) == strip(paths[1])


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_import_loads_neither_dataclasses_nor_inspect():
    # Start-up cost: an isolated interpreter without site-packages imports
    # the package and nothing that pulls in inspect, ast, dis and tokenize.
    src = str(Path(symkron.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import symkron; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
