import json
import os
import time
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spindual import (cli, clifford, coideal, combinat, intertwiner, linalg,
                      qgroup)
from spindual.cli import main
from spindual.linalg import SparseMatrix
from spindual.combinat import fmt_weight, is_admissible
from spindual.qgroup import SpinRep
from spindual.ring import GR_I, CheckFailure, GaussRat, P, Q


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fmt_weight():
    assert fmt_weight([3, 1]) == "3/2,1/2"
    assert fmt_weight([2, 0]) == "1,0"


def test_verify_relations(capsys):
    code, out = run(capsys, "verify", "relations", "--N", "4")
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("exc,code", [(IndexError, 3), (ValueError, 3),
                                      (ZeroDivisionError, 3),
                                      (ArithmeticError, 3),
                                      (CheckFailure, 1)])
def test_crash_is_not_a_failure(monkeypatch, capsys, exc, code):
    # only a computed counterexample (or a check's own CheckFailure) is a
    # FAIL; any other exception, a defect's ZeroDivisionError or a bare
    # ArithmeticError included, is an internal error with exit 3
    def boom(N):
        raise exc("boom")
    monkeypatch.setattr(qgroup, "relation_residuals", boom)
    assert main(["verify", "relations", "--N", "4"]) == code
    out, err = capsys.readouterr()
    if code == 3:
        assert "PASS" not in out and "FAIL" not in out
        assert "internal error:" in err and "Traceback" in err
    else:
        assert "FAIL" in out and "CheckFailure: boom" in out and err == ""


def test_verify_duality(capsys):
    code, out = run(capsys, "verify", "duality", "--N", "3", "--n", "5")
    assert code == 0


def test_table_json_schema(capsys):
    code, out = run(capsys, "table", "multiplicities", "--N", "5", "--n", "2",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["N", "n", "entries"]
    assert doc["N"] == 5 and doc["n"] == 2
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
    # the one table that depends on q names its mode
    code, out = run(capsys, "table", "spectrum", "--N", "4", "--q", "one")
    assert code == 0
    assert out.splitlines()[0] == "N=4 n=3 mode=classical" and "x6" in out
    code, out = run(capsys, "table", "spectrum", "--N", "4", "--format",
                    "json")
    doc = json.loads(out)
    assert code == 0 and list(doc) == ["N", "n", "mode", "entries"]
    assert doc["mode"] == "symbolic"


def test_spectrum_table_check_failure_exits_1(monkeypatch, capsys):
    # v = 0 is never a valid point for the counts: spectrum_of_C raises
    # CheckFailure on purpose, which the table reports as a failed check
    # on stderr (exit 1), as `verify spectrum` does, not as a crash
    monkeypatch.setattr(linalg, "SPECTRUM_POINT", 0)
    assert main(["table", "spectrum", "--N", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("spectrum verification failed: spectrum counts "
                          "at v = 0 mod ")
    assert main(["verify", "spectrum", "--N", "4"]) == 1


@pytest.mark.parametrize("kind", ["multiplicities", "complements"])
def test_combinatorial_tables_have_no_mode(capsys, kind):
    # no q enters these tables, so neither the header nor the JSON names one
    code, out = run(capsys, "table", kind, "--N", "4", "--n", "2")
    assert code == 0 and out.splitlines()[0] == "N=4 n=2"
    code, out = run(capsys, "table", kind, "--N", "4", "--n", "2",
                    "--format", "json")
    assert code == 0 and list(json.loads(out)) == ["N", "n", "entries"]


def test_fft_command(capsys):
    code, out = run(capsys, "fft", "--N", "3", "--n", "3", "--seed", "1")
    assert code == 0 and "equal" in out


def test_fft_prints_hw_dim_and_prime(capsys):
    code, out = run(capsys, "fft", "--N", "3", "--n", "5", "--seed", "11")
    assert code == 0
    assert "highest-weight dim  : 10" in out and f"mod p = {P}" in out
    assert "algebra closure dim : 42" in out


def test_fft_prints_a_certificate_per_block(capsys):
    # (4,3): blocks 1, 1, 3, 3, 5, 5 at the weights (a, +-b); each
    # equal-size pair is told apart by the trace of F
    code, out = run(capsys, "fft", "--N", "4", "--n", "3", "--seed", "11")
    assert code == 0 and "VERDICT: equal" in out
    blocks = [line.split() for line in out.splitlines()
              if line.startswith("  block ")]
    assert [(b[1], b[2], b[4]) for b in blocks] == [
        ("(3/2,3/2)", "m=1", "1"), ("(3/2,1/2)", "m=3", "9"),
        ("(3/2,-1/2)", "m=3", "9"), ("(3/2,-3/2)", "m=1", "1"),
        ("(1/2,1/2)", "m=5", "25"), ("(1/2,-1/2)", "m=5", "25")]
    pairs = [line.strip() for line in out.splitlines()
             if line.startswith("  pair ")]
    assert pairs == [f"pair ({a},{b}) / ({a},-{b})  trace of F: 1 vs -1"
                     for a, b in (("3/2", "3/2"), ("3/2", "1/2"),
                                  ("1/2", "1/2"))]


def _zero_division(*args):
    return 1 // 0


@pytest.mark.parametrize("argv,target", [
    (["fft", "--N", "4", "--n", "3", "--seed", "11"], (cli, "certify_blocks")),
    (["verify", "cubic", "--N", "4"], (intertwiner, "check_cubic"))],
    ids=["fft", "verify"])
def test_defect_in_a_check_exits_3(monkeypatch, capsys, argv, target):
    # a ZeroDivisionError raised by a defect is a crash with its
    # traceback, not a MISMATCH or a FAIL
    monkeypatch.setattr(*target, _zero_division)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "MISMATCH" not in out and "FAIL" not in out
    assert "internal error: ZeroDivisionError" in err and "Traceback" in err


def _value_error(*args, **kwargs):
    raise ValueError("boom")


@pytest.mark.parametrize("argv,target", [
    (["fft", "--N", "4", "--n", "3", "--seed", "11"], (cli, "certify_blocks")),
    (["table", "spectrum", "--N", "4"], (intertwiner, "spectrum_of_C"))],
    ids=["fft", "table"])
def test_value_error_in_a_command_exits_3(monkeypatch, capsys, argv, target):
    # only a refused configuration (ConfigError) exits 2: a ValueError
    # raised while a command runs is a crash with its traceback
    monkeypatch.setattr(*target, _value_error)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "MISMATCH" not in out and "config error" not in err
    assert "internal error: ValueError: boom" in err and "Traceback" in err


@pytest.mark.parametrize("argv,want", [
    (["fft", "--N", "4", "--n", "3", "--seed", "11"],
     "VERDICT: MISMATCH (blocks (3/2,3/2) and (3/2,-3/2) are not "
     "certified"),
    (["verify", "fft", "--N", "4", "--n", "3", "--seed", "11"],
     "FAIL  fft counts N=4 n=3 at v0 [CheckFailure: blocks (3/2,3/2) and")],
    ids=["fft", "verify"])
def test_unseparated_pair_is_a_failure(monkeypatch, capsys, argv, want):
    # with no trace words to try, the first equal-size pair stays
    # unseparated: a CheckFailure raised on purpose, exit 1
    monkeypatch.setattr(linalg, "WORD_LENGTH", 0)
    code, out = run(capsys, *argv)
    assert code == 1 and want in out


def test_fft_without_delta_f1_is_a_mismatch(monkeypatch, capsys):
    # control for the lowering span: without the rows of Delta(E_1), the
    # columns of Delta(F_1), the span falls short and names its rank
    stack = cli.vstack
    monkeypatch.setattr(cli, "vstack", lambda mats: stack(mats[:1] + mats[2:]))
    for N, n, short in ((4, 3, "47 of 64"), (3, 4, "6 of 16")):
        code, out = run(capsys, "fft", "--N", str(N), "--n", str(n),
                        "--seed", "11")
        assert code == 1 and out.endswith(
            f"VERDICT: MISMATCH (the highest-weight vectors and the "
            f"Delta(F_i) span {short} columns)\n"), (N, n)


def _coproduct_with(monkeypatch, change):
    build = qgroup.coproduct_generators
    monkeypatch.setattr(qgroup, "coproduct_generators",
                        lambda *args: change(*build(*args)))


def test_fft_merged_weights_are_a_mismatch(monkeypatch, capsys):
    # Delta(K_1) in place of Delta(K_2): the weights (3/2,3/2) and
    # (1/2,1/2) get one signature, and the failure names both
    _coproduct_with(monkeypatch, lambda K, E: ([K[0]] * len(K), E))
    code, out = run(capsys, "fft", "--N", "4", "--n", "3", "--seed", "11")
    assert code == 1 and out.endswith(
        f"VERDICT: MISMATCH (weights (3/2,3/2) and (1/2,1/2) share one "
        f"Delta(K_i) signature mod {P})\n")


def test_fft_entry_off_its_root_is_a_mismatch(monkeypatch, capsys):
    # Delta(F_1) in place of Delta(E_1) lowers the weight by alpha_1: the
    # failure names the first entry and both weights
    _coproduct_with(monkeypatch, lambda K, E: (K, [E[0].transpose()] + E[1:]))
    code, out = run(capsys, "fft", "--N", "4", "--n", "3", "--seed", "11")
    assert code == 1 and out.endswith(
        "VERDICT: MISMATCH (Delta(E1) entry (32, 16) maps weight (3/2,1/2) "
        "to (1/2,3/2), not to (5/2,-1/2))\n")


FFT_OUTPUTS = os.path.join(os.path.dirname(__file__), "fft_outputs.json")


def test_fft_output_is_unchanged(capsys):
    # the whole report of `fft`, byte for byte, at n <= 3 and above; kept
    # in fft_outputs.json
    with open(FFT_OUTPUTS) as fh:
        want = json.load(fh)
    assert len(want) == 10
    for key, lines in want.items():
        N, n, seed = key.split()
        code, out = run(capsys, "fft", "--N", N, "--n", n, "--seed", seed)
        assert code == 0 and out == "\n".join(lines) + "\n", key


@pytest.mark.parametrize("N,want", [(3, 1), (4, 2)])
def test_fft_n1(capsys, N, want):
    # S is simple for N odd and S+ (+) S- for N even: closure = sum m^2
    code, out = run(capsys, "fft", "--N", str(N), "--n", "1")
    assert code == 0 and f"algebra closure dim : {want}" in out
    code, out = run(capsys, "verify", "fft", "--N", str(N), "--n", "1")
    assert code == 0 and "PASS" in out and "FAIL" not in out


def test_tl_n1_exit_2(capsys):
    for suite in ("tl", "all"):
        assert main(["verify", suite, "--n", "1"]) == 2, suite
        out, err = capsys.readouterr()
        assert "PASS" not in out and "FAIL" not in out, suite
        assert "n >= 2" in err and "Traceback" not in err, suite


@pytest.mark.parametrize("point", [GR_I, GaussRat(Q(1, P), 1)])
def test_bad_point_exit_2(monkeypatch, capsys, point):
    # a root of unity, and a point with the prime in its denominator: a bad
    # point is a configuration error, not a failed check
    monkeypatch.setattr(cli, "_point", lambda seed: point)
    for argv in (["fft", "--N", "4", "--n", "3"],
                 ["verify", "fft", "--N", "3", "--n", "4"]):
        assert main(argv + ["--seed", "7"]) == 2, argv
        out, err = capsys.readouterr()
        assert "FAIL" not in out and "MISMATCH" not in out, argv
        assert "--seed 7" in err and "Traceback" not in err, argv


def test_cubic_root_of_unity_exit_2(monkeypatch, capsys):
    # the dominant-column check is sound only off the roots of unity
    monkeypatch.setattr(cli, "_point", lambda seed: GR_I)
    assert main(["verify", "cubic", "--N", "5", "--q", "spec",
                 "--seed", "7"]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert "--seed 7" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["verify", "all"], ["fft"]])
def test_size_guard_exit_2(capsys, argv):
    # S^(x)6 for N = 9 has 16^6 = 2^24 rows: refused before anything is built
    t0 = time.perf_counter()
    assert main(argv + ["--N", "9", "--n", "6"]) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert "2^24" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["fft"], ["verify", "fft"]])
def test_fft_block_guard_exit_2(capsys, argv):
    # (4,6) has 4096 rows, within the operator limit, but a highest-weight
    # block of 140: refused from the multiplicity table, nothing is built
    t0 = time.perf_counter()
    assert main(argv + ["--N", "4", "--n", "6"]) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert ("block of size 140 at weight (1,0), above the limit "
            f"{cli.MAX_FFT_BLOCK}") in err and "Traceback" not in err


def test_fft_counts_share_one_spin_rep():
    SpinRep.E.cache_clear()
    for seed in range(1, 6):
        assert cli.fft_counts(3, 4, seed)[-1]
    assert SpinRep.E.cache_info().currsize == 1


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


@pytest.mark.parametrize("argv", [
    ["fft", "--out", "x"], ["fft", "--level", "5"], ["fft", "--q", "one"],
    ["fft", "--sign", "-"], ["fft", "--format", "json"],
    ["verify", "duality", "--format", "json"], ["verify", "tl", "--out", "x"],
    ["verify", "duality", "--level", "5"],
    ["table", "multiplicities", "--seed", "3"],
    ["table", "spectrum", "--sign", "-"], ["verify", "so3", "--sign", "-"]])
def test_unread_flag_exit_2(capsys, argv, tmp_path, monkeypatch):
    # each subcommand has only the flags it reads: argparse refuses the rest
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_classical_spectrum_passes_with_either_sign(capsys, N):
    # C at q = 1 does not depend on the sign of e_N
    # (test_intertwiner::test_classical_C_is_blind_to_the_sign_of_e_N)
    code, out = run(capsys, "verify", "spectrum", "--N", str(N), "--q", "one")
    assert code == 0 and "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("N,signs", [(5, ["1", "-1"]), (4, [])])
def test_verify_so3_checks_both_nonclassical_signs(capsys, N, signs):
    # both nonclassical modules are valid at odd Nparam: one line each,
    # and none at even Nparam, which has no nonclassical module
    code, out = run(capsys, "verify", "so3", "--N", str(N))
    assert code == 0 and "FAIL" not in out
    assert [ln.split("  ")[:2] for ln in out.splitlines()
            if "nonclassical" in ln] == [
        ["PASS", f"so3 nonclassical rep Nparam={N} sign={s} symbolic"]
        for s in signs]


def test_table_spectrum_spec_exit_2(capsys):
    # spectrum_of_C has no specialized mode: refused, not printed as one
    assert main(["table", "spectrum", "--N", "4", "--q", "spec"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--q sym or --q one" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["multiplicities", "--N", "4", "--n", "2", "--q", "spec"], "--q"),
    (["multiplicities", "--N", "4", "--n", "2", "--q", "one"], "--q"),
    (["complements", "--N", "5", "--n", "3", "--q", "one"], "--q"),
    (["spectrum", "--N", "3", "--level", "3"], "--level"),
    # --q sym too, though sym is the mode of table spectrum without --q
    (["multiplicities", "--N", "4", "--n", "2", "--q", "sym"], "--q"),
    (["complements", "--N", "5", "--n", "3", "--q", "sym"], "--q"),
])
def test_table_unread_flag_exit_2(tmp_path, capsys, argv, flag):
    # a flag the table does not read is refused, not dropped or printed
    # as a mode it never ran in
    out = tmp_path / "t.json"
    assert main(["table"] + argv + ["--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and flag in err and "Traceback" not in err
    assert not out.exists()
    assert main(["table"] + argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and flag in err


def test_table_to_file(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(["table", "multiplicities", "--N", "3", "--n", "2",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["entries"]


@pytest.mark.parametrize("N,msg", [("2", "N >= 3"), ("14", "2^14")])
def test_table_spectrum_bad_config_exit_2(capsys, N, msg):
    # the same guards as verify spectrum, before any operator is built
    t0 = time.perf_counter()
    assert main(["table", "spectrum", "--N", N]) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == "" and msg in err and "Traceback" not in err


def test_verify_cubic_q_one_label(capsys):
    # the q = 1 check is labelled q=1, not symbolic
    code, out = run(capsys, "verify", "cubic", "--N", "4", "--q", "one")
    assert code == 0
    assert "PASS  cubic relation N=4 q=1" in out and "symbolic" not in out


@pytest.mark.parametrize("N,q", [(8, "spec"), (8, "sym"), (7, "sym"),
                                 (8, "one")])
def test_verify_cubic_names_the_half_block(capsys, N, q):
    # for N even the quantum cubic runs on the dominant columns with
    # lambda_k > 0 and says so, with the generator tau is built from
    code, out = run(capsys, "verify", "cubic", "--N", str(N), "--q", q,
                    "--seed", "23")
    assert code == 0
    line = ("# tau = e7^(x)3, e7 = psi_4 + psi^dag_4: the cubic runs on the "
            "121 of 242 dominant columns with lambda_4 > 0\n")
    assert out.count("# tau") == (N % 2 == 0 and q != "one")
    assert (line in out) == (N == 8 and q != "one")


def test_verify_cubic_names_a_tau_failure(monkeypatch, capsys):
    # C + f (x) 1 still commutes with every Delta(g), but not with e (x) e:
    # the check fails at the tau key, named with its first nonzero entry
    build = intertwiner.build_C_quantum
    monkeypatch.setattr(intertwiner, "build_C_quantum", lambda N: build(N)
                        + clifford.parity(2, 2).kron(SparseMatrix.identity(4)))
    code, out = run(capsys, "verify", "cubic", "--N", "4")
    assert code == 1
    assert "FAIL  cubic relation N=4 symbolic [nonzero: [e3 (x) e3, C] " \
           "at (0, 5)]" in out


@pytest.mark.parametrize("N", range(3, 12))
def test_dominant_block_size_counts_the_columns(N):
    # the cubic block has at most 4^k columns, so C on S (x) S is the
    # largest operator the cubic check builds; for N even it is half of
    # the dominant block
    k = N // 2
    assert len(intertwiner.cubic_columns(N)) <= 4 ** k
    assert (len(qgroup.dominant_columns(N, 3))
            == len(intertwiner.cubic_columns(N)) * (1 if N % 2 else 2))
    assert cli._operator_bits("cubic", "sym", N, 3) == 2 * k


@pytest.mark.parametrize("q", ["sym", "spec"])
def test_verify_cubic_past_N9(capsys, q):
    # the quantum cubic works on the dominant block of S^(x)3, 728 columns
    # at N = 10, so the size bound is max(2k, log2 |D|), not 3k
    code, out = run(capsys, "verify", "cubic", "--N", "10", "--q", q,
                    "--seed", "11")
    assert code == 0 and "PASS  cubic relation N=10" in out


@pytest.mark.parametrize("q", ["sym", "spec"])
def test_cubic_size_bound_per_mode(monkeypatch, capsys, q):
    # N = 11..13 pass the guard (their checks take 0.6-14 s, so a stub
    # stands in for them here); N = 14 has |D| = 6560 > 2^12 and exits 2,
    # as does --q one at N = 10, which builds the whole S^(x)3
    ran = []
    for name in ("check_cubic", "check_cubic_specialized"):
        monkeypatch.setattr(intertwiner, name,
                            lambda N, *a, **kw: ran.append(N) or {})
    for N in (11, 12, 13):
        assert main(["verify", "cubic", "--N", str(N), "--q", q]) == 0
    assert ran == [11, 12, 13]
    capsys.readouterr()
    for N, mode in ((14, q), (10, "one")):
        assert main(["verify", "cubic", "--N", str(N), "--q", mode]) == 2
        out, err = capsys.readouterr()
        assert out.count("PASS") == 0 and "above the limit 2^12" in err
    assert ran == [11, 12, 13]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--N", "4", "--q", "spec", "--seed", "3"],
    ["commutation", "--q", "one"], ["commutation", "--q", "spec"],
    ["relations", "--q", "one"], ["integrality", "--q", "spec"],
    ["duality", "--q", "one"], ["fft", "--N", "3", "--n", "4", "--q", "sym"]])
def test_verify_mode_the_suite_lacks_exit_2(capsys, argv):
    # a suite refuses a --q mode it has no check for, before it runs any:
    # it never prints a PASS from a check in another mode
    assert main(["verify"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"does not run with --q {argv[argv.index('--q') + 1]}" \
        in err and "Traceback" not in err


@pytest.mark.parametrize("q,want", [
    ("one", {"cubic relation": "q=1", "classical spectrum": "q=1",
             "defining relations": "symbolic", "fft counts": "at v0"}),
    ("spec", {"cubic relation": "at v0", "quantum spectrum": "symbolic",
              "[coproduct(g), C]": "symbolic", "fft counts": "at v0"})])
def test_verify_all_labels_each_mode(capsys, q, want):
    # verify all runs each suite in the asked mode where it has one and in
    # its own default elsewhere, and each line says which
    code, out = run(capsys, "verify", "all", "--N", "4", "--n", "3",
                    "--q", q, "--seed", "11")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
    assert len(lines) == 11
    for head, mode in want.items():
        line, = [ln for ln in lines if ln[6:].startswith(head)]
        assert line.split("  ")[1].endswith(f" {mode}"), line


@pytest.mark.parametrize("kind", ["multiplicities", "complements"])
@pytest.mark.parametrize("N", ["26", "32", "40"])
def test_table_size_guard_exit_2(monkeypatch, capsys, kind, N):
    # k = N // 2 above MAX_OPERATOR_BITS: refused before any tensor step
    # (at N = 32, n = 6 the table ran for 98 s)
    def never(*args):
        raise AssertionError("spinor_table called")
    monkeypatch.setattr(combinat, "spinor_table", never)
    assert main(["table", kind, "--N", N, "--n", "6"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"2^{int(N) // 2} weights of S" in err
    assert "Traceback" not in err


def test_table_at_the_size_limit_runs(capsys):
    # k = 12 = MAX_OPERATOR_BITS is still allowed
    code, out = run(capsys, "table", "multiplicities", "--N", "24", "--n",
                    "2", "--format", "json")
    entries = json.loads(out)["entries"]
    assert code == 0
    assert sum(e["multiplicity"] * e["dimension"] for e in entries) == 4 ** 12


@pytest.mark.parametrize("N,n", [(24, 12), (9, 60), (5, 300), (24, 7)])
def test_table_work_guard_exit_2(monkeypatch, capsys, N, n):
    # n 2^k C(n//2 + k, k) above MAX_TABLE_WORK: refused before any tensor
    # step ((24, 12) ran past 100 s, (9, 60) for 30 s, (5, 300) for 16 s)
    def never(*args):
        raise AssertionError("spinor_table called")
    monkeypatch.setattr(combinat, "spinor_table", never)
    assert main(["table", "multiplicities", "--N", str(N), "--n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "above the limit" in err and "Traceback" not in err


@pytest.mark.parametrize("N,n", [(24, 12), (9, 60), (26, 2)])
def test_verify_duality_size_guard_exit_2(monkeypatch, capsys, N, n):
    # the duality suite tensors the table `table multiplicities` does and
    # is refused by the same rule, before any tensor step ((24, 12) and
    # (9, 60) ran past 20 s without it)
    def never(*args):
        raise AssertionError("spinor_table called")
    monkeypatch.setattr(combinat, "spinor_table", never)
    t0 = time.perf_counter()
    code = main(["verify", "duality", "--N", str(N), "--n", str(n)])
    out, err = capsys.readouterr()
    assert code == 2 and time.perf_counter() - t0 < 1
    assert out == "" and "suite 'duality'" in err and "above the limit" in err
    assert "Traceback" not in err


def test_verify_so3_size_guard_exit_2(monkeypatch, capsys):
    # Nparam above MAX_SO3_PARAM is refused before any module is built
    def never(*args):
        raise AssertionError("so3 module built")
    monkeypatch.setattr(coideal, "so3_classical_rep", never)
    t0 = time.perf_counter()
    code = main(["verify", "so3", "--N", str(cli.MAX_SO3_PARAM + 1)])
    out, err = capsys.readouterr()
    assert code == 2 and time.perf_counter() - t0 < 1
    assert out == "" and "suite 'so3'" in err and "above the limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["fft", "--N", "9", "--n", "3"],
                                  ["fft", "--N", "8", "--n", "3"],
                                  ["verify", "fft", "--N", "8", "--n", "3"]])
def test_fft_at_n3_has_no_commutant_limit(capsys, argv):
    # (8, 3) and (9, 3), refused while fft solved for the commutant, are
    # certified by the lowering span over all 4096 columns
    code, out = run(capsys, *argv, "--seed", "11")
    assert code == 0 and ("VERDICT: equal" in out if argv[0] == "fft"
                          else "PASS" in out and "FAIL" not in out)
    if argv[0] == "fft":
        assert "lowering span       : 4096 of 4096 columns" in out


@pytest.mark.parametrize("N,n,want", [
    (3, 3, 20), (4, 2, 36), (4, 3, 400), (5, 3, 400), (6, 3, 8000),
    (7, 3, 8000), (12, 2, 46656), (13, 2, 46656), (8, 3, 160000),
    (9, 3, 160000)])
def test_commutant_unknowns_are_the_signature_count(N, n, want):
    # C(2n, n)^k, k = N // 2, against the sum of the squared sizes of the
    # joint eigenspaces of the Delta(K_i) at v0 = 5 mod P, the unknowns
    # that linalg.commutant_dimension solves for on the Delta(K_i); each
    # eigenspace is one weight space, as fft's weight check requires
    K, E = qgroup.coproduct_generators(N, n, 5, P)
    sizes, weights = {}, {}
    for j in range(K[0].nrows):
        sig = tuple(dK.data.get((j, j)) for dK in K)
        sizes[sig] = sizes.get(sig, 0) + 1
        weights.setdefault(sig, set()).add(qgroup.column_weight(N, n, j))
    assert sum(m * m for m in sizes.values()) == want == comb(2 * n, n) ** (
        N // 2)
    assert all(len(ws) == 1 for ws in weights.values())
    cli._check_weights(N, n, K, E)


def test_table_below_the_work_limit_runs(monkeypatch, capsys):
    # (24, 6) (3.7 s on its own, here on a one-weight table) and (12, 8)
    # pass the guard
    monkeypatch.setattr(combinat, "spinor_table",
                        lambda N, n, level: {(0,) * (N // 2): 1})
    code, out = run(capsys, "table", "multiplicities", "--N", "24", "--n", "6")
    assert code == 0 and "x1" in out
    monkeypatch.undo()
    code, out = run(capsys, "table", "multiplicities", "--N", "12", "--n", "8",
                    "--format", "json")
    entries = json.loads(out)["entries"]
    assert code == 0
    assert sum(e["multiplicity"] * e["dimension"] for e in entries) == 64 ** 8


def test_verify_spectrum_prints_its_blocks(capsys):
    code, out = run(capsys, "verify", "spectrum", "--N", "6")
    assert code == 0
    assert out.splitlines()[1] == ("# C splits into 27 blocks, the largest "
                                   "of size 8")


@pytest.mark.parametrize("q,name", [("sym", "quantum_spectrum_candidates"),
                                    ("one", "quantum_spectrum_candidates")])
def test_verify_spectrum_checks_the_multiplicities(monkeypatch, capsys, q,
                                                   name):
    # the first two eigenvalues swapped, each count left in place: the
    # product still vanishes and the counts still fill the space, but each
    # of the two eigenvalues now expects the other's multiplicity
    candidates = getattr(intertwiner, name)

    def swapped(N):
        (a, ma), (b, mb), *rest = candidates(N)
        return [(b, ma), (a, mb)] + rest
    monkeypatch.setattr(intertwiner, name, swapped)
    code, out = run(capsys, "verify", "spectrum", "--N", "5", "--q", q)
    assert code == 1 and "FAIL" in out and "PASS" not in out


@pytest.mark.parametrize("N,n,level", [(5, 3, -3), (3, 2, 0), (4, 3, 2),
                                       (6, 1, 4)])
def test_empty_table_exit_2(capsys, N, n, level):
    # below level N - 1 not even S is admissible, so every table is empty:
    # refused, naming the least level
    assert main(["table", "multiplicities", "--N", str(N), "--n", str(n),
                 "--level", str(level)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"S itself needs level >= {N - 1}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("N", range(3, 9))
def test_least_level_of_S_is_N_minus_1(capsys, N):
    # the level the empty-table error names is the least one at which the
    # weight (1/2, ..., 1/2) of S is admissible, and there tables are
    # nonempty
    k = N // 2
    assert is_admissible((1,) * k, N, N - 1)
    assert not is_admissible((1,) * k, N, N - 2)
    for n in (1, 2, 3):
        assert main(["table", "multiplicities", "--N", str(N), "--n", str(n),
                     "--level", str(N - 1)]) == 0
        assert "  x" in capsys.readouterr().out


# -- the exit-code contract on small inputs -------------------------------------

@st.composite
def cli_argv(draw):
    N, n = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    command = draw(st.sampled_from(["verify", "table", "fft"]))
    q = draw(st.sampled_from([None, "sym", "one", "spec"]))
    if command == "table":
        argv = ["table", draw(st.sampled_from(["multiplicities", "spectrum",
                                               "complements"]))]
        if draw(st.booleans()):
            argv += ["--level", str(draw(st.integers(-2, 8)))]
    elif command == "verify":
        argv = ["verify", draw(st.sampled_from(cli.SUITES))]
    else:
        argv, q = ["fft"], None
    if argv[-1] in ("fft", "all") and N == 6 and n > 2:
        N = 5           # (6, 3) and (6, 4) take seconds per certificate
    if command != "table":
        argv += ["--seed", str(draw(st.integers(0, 20)))]
    if q is not None:
        argv += ["--q", q]
    return argv + ["--N", str(N), "--n", str(n)]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_argv())
def test_exit_code_contract(capsys, argv):
    # 0 passed, 1 a counterexample, 2 a bad configuration, 3 a crash with
    # its traceback: every claim is true, so a small input gives 0 or 2,
    # and a traceback never appears without exit 3
    code = main(argv)
    out, err = capsys.readouterr()
    assert ("Traceback" in err) == (code == 3), (argv, code, err)
    assert code in (0, 2), (argv, code, err)
    if code == 0:
        assert "FAIL" not in out and "MISMATCH" not in out, argv
    else:
        assert "error" in err or "invalid N/n" in err, (argv, err)
