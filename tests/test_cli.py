"""Command line driver: exit codes, formats, determinism."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from pmdg import cli
from pmdg.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts_passes(capsys):
    code, out, err = run_cli(capsys, "counts", "--k", "3")
    assert code == 0
    assert "0 fail" in out
    assert err == ""


def test_ekr_passes(capsys):
    code, out, _ = run_cli(capsys, "ekr", "--k", "3")
    assert code == 0
    assert "coclique-number" in out


def test_spectra_k2_passes(capsys):
    code, out, _ = run_cli(capsys, "spectra", "--k", "2")
    assert code == 0
    assert "{2^1, -1^2}" in out


def test_spectra_k3_reports_the_bound_equality(capsys):
    # one genuine failure: the non-exempt eigenvalue 2 meets d/(2k-2)
    # exactly at k=3, so the strict inequality record honestly fails
    code, out, _ = run_cli(capsys, "spectra", "--k", "3")
    assert code == 1
    assert "strict-bound-nonexempt-labels" in out
    assert out.count(" fail") >= 1
    assert "1 fail" in out


def test_reps_reports_the_n10_exception(capsys):
    # two 42-dimensional shapes sit under the 45 bound at n=10, so the
    # eight-shape count record honestly fails there and only there
    code, out, _ = run_cli(capsys, "reps")
    assert code == 1
    lines = [ln for ln in out.splitlines() if ln.endswith("fail")]
    assert len(lines) == 1
    assert "small-degree-count" in lines[0]
    assert "n=10" in lines[0]


def test_graph_passes(capsys):
    code, out, _ = run_cli(capsys, "graph", "--k", "3")
    assert code == 0
    assert "one-factorization-rounds" in out


def test_polytope_passes(capsys):
    code, out, _ = run_cli(capsys, "polytope", "--k", "3")
    assert code == 0
    assert "gram-identity" in out


def test_cayley_passes(capsys):
    code, out, _ = run_cli(capsys, "cayley", "--k", "3")
    assert code == 0
    assert "cayley-obstruction-complete" in out


def test_unknown_command_usage_error(capsys):
    code, _, err = run_cli(capsys, "bogus")
    assert code == 2


def test_missing_command_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_cap_exceeded_exit(capsys):
    code, _, err = run_cli(capsys, "all", "--k", "7")
    assert code == 3
    assert "exceeds cap" in err
    assert "graph build" in err


def test_spectra_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "spectra", "--k", "6")
    assert code == 3
    assert "spectrum" in err


# (argv, exit code): usage errors and caps, each decided from the command
# table before any work, plus cheap valid selections
ARGUMENTS = [
    (("counts", "--k", "0"), 2),
    (("graph", "--k", "0"), 2),
    (("spectra", "--k", "1"), 2),
    (("all", "--k", "1"), 2),
    (("ekr", "--k", "1"), 2),
    (("cayley", "--k", "2"), 2),
    (("polytope", "--k", "1"), 2),
    (("reps", "--n", "0"), 2),
    (("reps", "--n", "40"), 2),
    (("spectra", "--n", "5"), 2),
    (("ekr", "--max-k", "2"), 2),
    (("all", "--max-k", "1"), 2),
    (("counts", "--k", "3", "--max-k", "4"), 2),
    (("reps", "--k", "3"), 2),
    (("counts", "--n", "3"), 2),
    (("ekr", "--max-k", "6"), 3),
    (("cayley", "--k", "200"), 3),
    (("counts", "--k", "31"), 3),
    (("graph", "--k", "7"), 3),
    (("polytope", "--k", "6"), 3),
    (("spectra", "--n", "30", "--k", "3"), 3),
    (("spectra", "--n", str(10**18), "--k", str(10**17)), 3),
    (("counts", "--max-k", str(10**18)), 3),
    (("counts", "--k", "1"), 0),
    (("graph", "--k", "1"), 0),
    (("ekr", "--k", "2"), 0),
    (("polytope", "--k", "2"), 0),
    (("cayley", "--k", "3"), 0),
    (("reps", "--n", "13"), 0),
    (("spectra", "--n", "6", "--k", "2"), 0),
    (("all", "--k", "2"), 1),
    (("spectra", "--n", "12", "--k", "4"), 0),
]


def _check_exit(tmp_path, argv):
    target = tmp_path / "report.txt"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, "--out", str(target)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert out == "" and "Traceback" not in err
    if code == 2:
        assert err.startswith("usage: pmdg")
    if code == 3:
        assert "exceeds cap" in err
    # a usage error or a cap writes no report, and a report is never empty
    assert target.exists() == (code in (0, 1))
    if code in (0, 1):
        assert target.read_text().splitlines()[-1] != "0 pass, 0 fail, 0 skipped"
    return code


@pytest.mark.parametrize("argv,code", ARGUMENTS)
def test_exit_codes(argv, code, tmp_path):
    assert _check_exit(tmp_path, argv) == code


@settings(max_examples=30, deadline=None)
@given(
    command=st.sampled_from(sorted(cli.COMMANDS)),
    flag=st.sampled_from(["--k", "--max-k", "--n"]),
    value=st.sampled_from([-7, -1, 0, 1, 2, 3, 14, 31, 200, 10**9]),
)
def test_exit_codes_over_arguments(command, flag, value, tmp_path_factory):
    _check_exit(tmp_path_factory.mktemp("cli"), (command, flag, str(value)))


def test_cap_exits_before_any_search(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    monkeypatch.setattr(cli, "build_graph", never)
    monkeypatch.setattr(cli, "enumerate_maximum_cocliques", never)
    code, out, err = run_cli(capsys, "ekr", "--max-k", "6")
    assert code == 3
    assert out == ""
    assert "coclique search=6 exceeds cap 5" in err


def test_counts_builds_no_graph(monkeypatch, capsys):
    def never(k):
        raise AssertionError(f"graph built at k={k}")

    monkeypatch.setattr(cli, "build_graph", never)
    assert run_cli(capsys, "counts", "--k", "7")[0] == 0


def test_all_builds_each_graph_and_incidence_once(monkeypatch, capsys):
    graphs, incidences = [], []
    build_graph, incidence_matrix = cli.build_graph, cli.incidence_matrix

    def counted_graph(k):
        graphs.append(k)
        return build_graph(k)

    def counted_incidence(graph):
        incidences.append(graph.k)
        return incidence_matrix(graph)

    monkeypatch.setattr(cli, "build_graph", counted_graph)
    monkeypatch.setattr(cli, "incidence_matrix", counted_incidence)
    assert run_cli(capsys, "all", "--format", "json")[0] == 1
    assert sorted(graphs) == [2, 3, 4]
    assert sorted(incidences) == [2, 3, 4]


def test_all_runs_each_coclique_search_once(monkeypatch, capsys):
    searched = []
    search = cli.enumerate_maximum_cocliques

    def counted_search(graph):
        searched.append(graph.k)
        return search(graph)

    monkeypatch.setattr(cli, "enumerate_maximum_cocliques", counted_search)
    assert run_cli(capsys, "all", "--format", "json")[0] == 1
    assert sorted(searched) == [2, 3, 4]


def test_json_format_parses(capsys):
    code, out, _ = run_cli(capsys, "counts", "--k", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(r["status"] == "pass" for r in payload)
    assert all(r["elapsed_ms"] == 0 for r in payload)


def test_csv_format_parses(capsys):
    code, out, _ = run_cli(capsys, "ekr", "--k", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "claim"
    assert all(row[4] == "pass" for row in rows[1:])


def test_reports_are_byte_identical(capsys):
    a = run_cli(capsys, "spectra", "--k", "3", "--format", "json")
    b = run_cli(capsys, "spectra", "--k", "3", "--format", "json")
    assert a == b


def test_timings_flag_changes_only_elapsed(capsys):
    code, out, _ = run_cli(capsys, "counts", "--k", "3", "--format", "json", "--timings")
    assert code == 0
    payload = json.loads(out)
    claims = [r["claim"] for r in payload]
    code2, out2, _ = run_cli(capsys, "counts", "--k", "3", "--format", "json")
    assert [r["claim"] for r in json.loads(out2)] == claims


def test_timings_charge_the_scan_to_its_own_link(capsys, monkeypatch):
    import time

    from pmdg import cayley

    real_scan = cayley.no_cyclic_pq_element

    def slow_scan(k, p, q):
        time.sleep(0.3)
        return real_scan(k, p, q)

    monkeypatch.setattr(cayley, "no_cyclic_pq_element", slow_scan)
    code, out, _ = run_cli(capsys, "cayley", "--k", "5", "--format", "json", "--timings")
    assert code == 0
    ms = {r["claim"]: r["elapsed_ms"] for r in json.loads(out)}
    assert ms["cayley-no-order-pq-element"] >= 300
    others = sum(v for claim, v in ms.items() if claim != "cayley-no-order-pq-element")
    assert others < 300
    # without --timings every record still reads zero
    code, out, _ = run_cli(capsys, "cayley", "--k", "5", "--format", "json")
    assert all(r["elapsed_ms"] == 0 for r in json.loads(out))


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "counts", "--k", "3", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload and payload[0]["status"] == "pass"


def test_all_default_range(capsys):
    code, out, _ = run_cli(capsys, "all", "--format", "json")
    payload = json.loads(out)
    # the honest failures: the k=3 strict bound and the n=10 eight-count
    fails = [r for r in payload if r["status"] == "fail"]
    assert code == 1
    assert {r["claim"] for r in fails} == {
        "strict-bound-nonexempt-labels",
        "small-degree-count",
    }
    ks = {r["params"].get("k") for r in payload if "k" in r["params"]}
    assert {"2", "3", "4"} <= ks
    assert "5" not in ks


def test_all_max_k_guard(capsys):
    code, _, err = run_cli(capsys, "all", "--max-k", "9")
    assert code == 3


def test_kneser_selection(capsys):
    code, out, _ = run_cli(capsys, "spectra", "--n", "6", "--k", "2")
    assert code == 0
    assert "subset-disjointness-spectrum" in out
    assert "{6^1, 1^9, -3^5}" in out


def test_kneser_selection_bad_pair(capsys):
    code, _, err = run_cli(capsys, "spectra", "--n", "3", "--k", "2")
    assert code == 2


def test_entry_point_via_module(capsys):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "pmdg", "counts", "--k", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_closed_pipe_exits_with_the_report_code():
    import os
    import subprocess
    import sys

    # a pipe whose only reader is gone before pmdg writes a byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pmdg", "cayley", "--k", "10"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode in (0, 1)


def test_spectra_loads_no_numpy():
    import subprocess
    import sys

    script = (
        "import os, sys\n"
        "from pmdg.cli import run\n"
        "code = run(['spectra', '--k', '5', '--out', os.devnull])\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
