import json

import pytest

from spindual.cli import main, _fmt_weight


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fmt_weight():
    assert _fmt_weight([3, 1]) == "3/2,1/2"
    assert _fmt_weight([2, 0]) == "1,0"


def test_verify_relations(capsys):
    code, out = run(capsys, "verify", "relations", "--N", "4")
    assert code == 0 and "PASS" in out


def test_verify_duality(capsys):
    code, out = run(capsys, "verify", "duality", "--N", "3", "--n", "5")
    assert code == 0


def test_table_json_schema(capsys):
    code, out = run(capsys, "table", "multiplicities", "--N", "5", "--n", "2",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 5 and doc["n"] == 2 and doc["mode"] == "symbolic"
    assert len(doc["entries"]) == 3
    for e in doc["entries"]:
        assert set(e) == {"weight", "multiplicity", "complement", "dimension"}
        assert e["multiplicity"] == 1


def test_table_deterministic(capsys):
    _, a = run(capsys, "table", "multiplicities", "--N", "4", "--n", "3",
               "--format", "json")
    _, b = run(capsys, "table", "multiplicities", "--N", "4", "--n", "3",
               "--format", "json")
    assert a == b


def test_table_csv(capsys):
    code, out = run(capsys, "table", "multiplicities", "--N", "3", "--n", "2",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "complement,dimension,multiplicity,weight"


def test_spectrum_table(capsys):
    code, out = run(capsys, "table", "spectrum", "--N", "4", "--q", "one")
    assert code == 0
    assert "x6" in out


def test_fft_command(capsys):
    code, out = run(capsys, "fft", "--N", "3", "--n", "3", "--seed", "1")
    assert code == 0 and "equal" in out


def test_bad_config_exit_2(capsys):
    assert main(["verify", "relations", "--N", "1"]) == 2
    assert main(["verify", "nonsense"]) == 2
    # the spin representation needs N >= 3: a configuration error, caught
    # before any check runs, not a failed check
    for suite in ("relations", "commutation", "cubic", "spectrum",
                  "integrality", "fft", "all"):
        assert main(["verify", suite, "--N", "2"]) == 2, suite
        out, err = capsys.readouterr()
        assert "PASS" not in out and "FAIL" not in out, suite
        assert "N >= 3" in err, suite


def test_table_to_file(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(["table", "multiplicities", "--N", "3", "--n", "2",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["entries"]
