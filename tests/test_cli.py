import csv
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

import fibaudit.sequences as seq
from fibaudit import cli, identities
from fibaudit.cli import main
from fibaudit.identities import IdentityFamily
from fibaudit.sequences import build_coeff_table, coeff_row
from fibaudit.transforms import Seq


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--n-max", "16")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def test_verify_reports_clamped_bounds(capsys):
    rc, out, err = run(capsys, "verify", "--n-max", "4096")
    assert rc == 0
    # The report is the one every --n-max >= 63 gives.
    assert out == (
        "PASS round_trip (100 checks, 0 failures)\n"
        "PASS lemma1 (1122 checks, 0 failures)\n"
        "PASS lemma2 (1122 checks, 0 failures)\n"
        "PASS lemma3 (465 checks, 0 failures)\n"
        "PASS theorem1 (25 checks, 0 failures)\n"
        "PASS corollary1 (105 checks, 0 failures)\n"
        "PASS corollary2 (105 checks, 0 failures)\n"
        "PASS gould (3521 checks, 0 failures)\n"
    )
    assert err == (
        "verify: n bounds for --n-max 4096: round_trip=63 lemma1=32 lemma2=32 "
        "lemma3=30 theorem1=15 corollary1=12 corollary2=12 gould=20\n"
    )


def test_verify_degenerate_n0(capsys):
    rc, out, _ = run(capsys, "verify", "--n-max", "0")
    assert rc == 0


def test_verify_invalid_n(capsys):
    rc, _, err = run(capsys, "verify", "--n-max", "-1")
    assert rc == 2
    assert "n-max" in err


def test_caps_enforced(capsys):
    rc, _, err = run(capsys, "tables", "--n-max", "100000")
    assert rc == 2
    assert "cap" in err
    rc, _, err = run(capsys, "audit", "--p-max", "65")
    assert rc == 2
    assert err == "error: p-max exceeds the hard cap 64 (use --unsafe-no-caps)\n"
    rc, _, err = run(capsys, "audit", "--p-max", "-1")
    assert rc == 2
    assert err == "error: p-max must be non-negative\n"


def test_audit_t2_json(capsys):
    rc, out, _ = run(
        capsys, "audit", "--families", "T2", "--p-max", "2", "--n-max", "12",
        "--format", "json",
    )
    assert rc == 0
    entries = json.loads(out)
    assert len(entries) == 26  # p in {1,2}, n in 0..12
    for e in entries:
        assert set(e) == {"family", "n", "p", "reading", "lhs", "rhs", "verdict", "note"}
        assert e["verdict"] == "PASS"
        assert isinstance(e["lhs"], str)


def test_audit_remark1_passes(capsys):
    rc, out, _ = run(capsys, "audit", "--families", "REMARK1", "--p-max", "12")
    assert rc == 0


def test_audit_all_reports_failures(capsys):
    rc, out, _ = run(
        capsys, "audit", "--families", "all", "--n-max", "6", "--p-max", "1",
        "--format", "csv",
    )
    assert rc == 3  # printed-form failures exist (e.g. T5 even branch)
    reader = csv.reader(io.StringIO(out))
    header = next(reader)
    assert header == ["family", "n", "p", "reading", "lhs", "rhs", "verdict", "note"]
    rows = list(reader)
    assert rows
    verdicts = {row[6] for row in rows}
    assert verdicts == {"PASS", "FAIL"}


def test_audit_unknown_family(capsys):
    rc, _, err = run(capsys, "audit", "--families", "T99")
    assert rc == 2


@pytest.mark.parametrize(
    "families, message",
    [
        ("T2,T99", "unknown family 'T99' in --families 'T2,T99'"),
        (",", "no family given"),
        ("t2", "unknown family 't2' in --families 't2'"),
    ],
)
def test_audit_bad_families_name_the_tag(capsys, families, message):
    rc, out, err = run(capsys, "audit", "--families", families)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_audit_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "audit", "--families", "T2", "--p-max", "1", "--n-max", "3",
        "--format", "json", "--out", str(path),
    )
    assert rc == 0
    assert out == ""
    assert json.loads(path.read_text(encoding="utf-8"))


def test_audit_out_io_failure(capsys):
    rc, _, err = run(
        capsys, "audit", "--families", "T2", "--p-max", "1", "--n-max", "1",
        "--out", "/nonexistent-dir/report.txt",
    )
    assert rc == 4


class _FullStdout:
    """A stdout on a full device: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n-max", "4"),
        ("tables", "--n-max", "4"),
        ("audit", "--families", "T2", "--n-max", "2", "--p-max", "1"),
    ],
)
def test_stdout_io_failure_exits_4_with_one_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    rc = main(list(argv))
    err = capsys.readouterr().err
    assert rc == 4
    # verify states its bounds on stderr before it writes the report.
    errors = [line for line in err.splitlines() if not line.startswith("verify: n bounds")]
    assert errors == [
        f"error: cannot write standard output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    ]


def test_closed_stdout_pipe_exits_4_with_one_line():
    # Buffered stdout fails only when flushed: in the command, and again at
    # interpreter exit unless the command has dropped what was left.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fibaudit.cli", "tables", "--n-max", "4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr.decode() == (
        f"error: cannot write standard output: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
    )


def test_escaping_exception_is_one_line(capsys, monkeypatch):
    # An exception in the first column: nothing is written, and the
    # message's line breaks are folded into one stderr line.
    def failing_cell(*args):
        raise RuntimeError("injected\nfault")

    monkeypatch.setattr(identities, "_audit_cell", failing_cell)
    rc, out, err = run(capsys, "audit", "--families", "T4", "--n-max", "8", "--p-max", "2")
    assert rc == 1
    assert out == ""
    assert err == "error: audit: RuntimeError: injected fault\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("output_format", ["json", "csv", "text"])
def test_failure_in_a_later_column_keeps_the_columns_before_it(
    capsys, monkeypatch, tmp_path, output_format
):
    argv = (
        "audit", "--families", "T2,T3,T5", "--n-max", "8", "--p-max", "1",
        "--format", output_format,
    )
    rc, full, _ = run(capsys, *argv)
    assert rc == 3
    real_cell = identities._audit_cell

    def failing_in_t5(family, *args):
        if family is IdentityFamily.T5:
            raise RuntimeError("injected fault")
        return real_cell(family, *args)

    monkeypatch.setattr(identities, "_audit_cell", failing_in_t5)
    path = tmp_path / "report"
    for extra in ([], ["--out", str(path)]):
        rc, out, err = run(capsys, *argv, *extra)
        assert rc == 1
        assert err == "error: audit: RuntimeError: injected fault\n"
        written = path.read_text(encoding="utf-8") if extra else out
        assert 0 < len(written) < len(full)
        assert full.startswith(written)
        assert written.count("T3") and "T5" not in written


def test_t4_report_past_the_int_str_limit(capsys):
    # T4's printed right sides pass CPython's 4300-digit int->str limit
    # here; they are written exactly, and the limit is left as it was.
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(
        capsys, "audit", "--families", "T4", "--n-max", "96", "--p-max", "2",
        "--format", "json",
    )
    assert (rc, err) == (3, "audit: 388 cells, 292 printed-form failures\n")
    assert sys.get_int_max_str_digits() == limit
    entries = json.loads(out)
    assert len(entries) == 388
    long = [e for e in entries if len(e["rhs"]) > 4300]
    assert long
    for e in long[::10]:
        want = identities.closed_form_rhs(IdentityFamily(e["family"]), e["n"], e["p"], e["reading"])
        assert int(Decimal(e["rhs"])) == want


def test_fast_path_mismatch_exits_1_with_one_line(capsys, monkeypatch):
    real_transform = identities.binomial_transform

    def off_by_one(seq):
        values = list(real_transform(seq))
        values[-1] += 1
        return Seq(tuple(values))

    monkeypatch.setattr(identities, "binomial_transform", off_by_one)
    rc, out, err = run(capsys, "audit", "--families", "T2", "--n-max", "8", "--p-max", "1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: audit: FastPathMismatch: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_tables_csv(capsys):
    rc, out, _ = run(capsys, "tables", "--n-max", "2", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Q"
    assert lines[1] == '"1"'
    assert lines[2] == '"2","1"'
    assert lines[3] == '"2","3","1"'
    assert lines[4] == "S"


def test_tables_n0(capsys):
    rc, out, _ = run(capsys, "tables", "--n-max", "0")
    assert rc == 0
    assert "Q[0]: 1" in out


def test_tables_json(capsys):
    rc, out, _ = run(capsys, "tables", "--n-max", "1", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["Q"] == [[1], [2, 1]]
    assert data["S"] == [[1], [-2, 1]]


def _tables_reference(n_max, output_format):
    """The tables report built whole, by the straightforward formatting."""
    tables = {kind: build_coeff_table(kind, n_max) for kind in ("Q", "S")}
    if output_format == "json":
        return json.dumps(
            {k: [list(r) for r in t.rows] for k, t in tables.items()}, indent=2
        ) + "\n"
    out = []
    for kind, table in tables.items():
        if output_format == "csv":
            out.append(kind)
            for row in table.rows:
                out.append(",".join(f'"{v}"' for v in row))
        else:
            for n, row in enumerate(table.rows):
                out.append(f"{kind}[{n}]: " + " ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("output_format", ["text", "csv", "json"])
def test_tables_match_reference_formatting(capsys, output_format):
    # Up to n = 40, and once past the head check's rows.
    for n_max in [*range(41), 200]:
        rc, out, _ = run(
            capsys, "tables", "--n-max", str(n_max), "--format", output_format
        )
        assert rc == 0
        assert out == _tables_reference(n_max, output_format), n_max


def test_tables_recurrence_fault_writes_nothing(capsys, monkeypatch, tmp_path):
    # The rows up to the cross-check limit are checked before the first
    # report byte, so a fault there leaves no partial report and no file.
    real = seq.q_coeff

    def broken(n, c):
        return real(n, c) + (1 if (n, c) == (20, 7) else 0)

    monkeypatch.setattr(seq, "q_coeff", broken)
    for extra in ([], ["--out", str(tmp_path / "tables.txt")]):
        rc, out, err = run(capsys, "tables", "--n-max", "30", *extra)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: tables: RecurrenceMismatch: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "tables.txt").exists()


@pytest.mark.parametrize("n_max, caught", [(40, 40), (60, 30)])
def test_tables_fault_past_the_checked_rows_is_caught(capsys, monkeypatch, n_max, caught):
    # A recurrence fault at row 30, past the rows checked before the first
    # byte, reaches row N; it is caught there, or at N//2 = 30 itself, by
    # the comparison with coeff_row, after the Q rows before it are out.
    real = seq._next_row

    def broken(n, prev):
        row = real(n, prev)
        return (row[0] + 1, *row[1:]) if n + 1 == 30 else row

    monkeypatch.setattr(seq, "_next_row", broken)
    rc, out, err = run(capsys, "tables", "--n-max", str(n_max))
    assert rc == 1
    assert err.startswith(f"error: tables: RecurrenceMismatch: Q({caught},")
    assert ", coeff_row gives " in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert [line.split(":")[0] for line in out.splitlines()] == [f"Q[{n}]" for n in range(caught)]


class _CountingSink:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_write_report_drops_each_chunk_before_making_the_next(monkeypatch, tmp_path, to_file):
    # Three 1 MB chunks, each made after the last was written, to a real
    # text file: --out, or standard output.  When the next is begun,
    # nothing of the last may still be traced, and no chunk may be held
    # twice, as a text file's encoded copy of it would be.
    traced = []

    def chunks():
        for _ in range(3):
            traced.append(tracemalloc.get_traced_memory()[0])
            yield "x" * 10**6

    written = tmp_path / ("report.txt" if to_file else "stdout.txt")
    with open(tmp_path / "stdout.txt", "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            rc = cli._write_report(str(written) if to_file else None, chunks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rc == 0
    assert max(traced) < 500_000, traced
    assert written.stat().st_size == 3 * 10**6
    assert peak < 1_500_000, peak


@pytest.mark.parametrize("output_format", ["text", "csv", "json"])
def test_tables_memory_stays_below_report_size(monkeypatch, output_format):
    # The report is written row by row and only the S section's chunks are
    # held, so the traced peak stays below the report's own size.
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        rc = main(["tables", "--n-max", "200", "--format", output_format])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert 0 < peak < sink.chars, (peak, sink.chars)


@pytest.mark.parametrize("output_format", ["text", "csv", "json"])
def test_audit_memory_stays_below_report_size(monkeypatch, output_format):
    # The report is written one (family, p) column at a time, so the
    # traced peak stays below the report's own size.
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        rc = main([
            "audit", "--families", "all", "--n-max", "64", "--p-max", "2",
            "--format", output_format,
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert 0 < peak < sink.chars, (peak, sink.chars)


@pytest.mark.parametrize(
    "families, n_max, p_max", [(list(IdentityFamily), 64, 2), ([IdentityFamily.T2], 16, 0)]
)
def test_audit_stream_equals_the_report_methods(capsys, families, n_max, p_max):
    report = identities.audit(families, range(n_max + 1), range(p_max + 1))
    tags = ",".join(f.value for f in families)
    for output_format, want in (
        ("json", report.to_json() + "\n"),
        ("csv", report.to_csv()),
        ("text", report.to_text()),
    ):
        rc, out, err = run(
            capsys, "audit", "--families", tags, "--n-max", str(n_max),
            "--p-max", str(p_max), "--format", output_format,
        )
        assert rc == (3 if report.entries else 0)
        assert out == want, output_format
        fails = sum(e.verdict == "FAIL" for e in report.entries)
        assert err == f"audit: {len(report.entries)} cells, {fails} printed-form failures\n"


def test_s_row_texts_apply_the_sign_rule():
    # Rows 0..64 hold negative q entries at both parities of n + c, and
    # zeros (q(3,0), q(7,0), ...) where n + c is odd, the entries negated.
    signs_seen = set()
    for n in range(65):
        q_row = coeff_row("Q", n)
        signs_seen.update(((n + c) % 2, (q > 0) - (q < 0)) for c, q in enumerate(q_row))
        texts = cli._s_row_texts(n, list(map(str, q_row)))
        assert texts == list(map(str, coeff_row("S", n))), n
    assert {(0, -1), (1, -1), (1, 0)} <= signs_seen


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n-max", "12"),
        ("audit", "--families", "T2,T6", "--n-max", "5", "--p-max", "1"),
        *[("tables", "--n-max", "6", "--format", f) for f in ("text", "csv", "json")],
    ],
)
def test_emit_writes_str_payloads_that_sum_to_the_report(capsys, monkeypatch, argv):
    payloads = []
    real_emit = cli._emit

    def recording_emit(out, payload):
        payloads.append(payload)
        real_emit(out, payload)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    rc, out, _ = run(capsys, *argv)
    assert rc in (0, 3)
    assert payloads
    assert all(type(p) is str for p in payloads)
    assert sum(len(p) for p in payloads) == len(out)
    assert "".join(payloads) == out


@pytest.mark.parametrize("n_max,p_max", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_audit_all_at_the_smallest_bounds(capsys, n_max, p_max):
    rc, out, err = run(
        capsys, "audit", "--families", "all", "--n-max", str(n_max),
        "--p-max", str(p_max), "--format", "json",
    )
    assert rc == 3  # T3's even branch fails at n = 0
    assert "error:" not in err
    entries = json.loads(out)
    assert {e["verdict"] for e in entries} == {"PASS", "FAIL"}
    if (n_max, p_max) == (0, 1):
        with_n0 = {e["family"] for e in entries if e["n"] == 0}
        assert with_n0 == {
            f.value for f in IdentityFamily
            if not f.value.startswith("REMARK1_") and f is not IdentityFamily.T4_ODD
        }


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--format", "json"),
        ("verify", "--p-max", "1"),
        ("verify", "--families", "T2"),
        ("tables", "--p-max", "1"),
        ("tables", "--families", "T2"),
        ("bench", "--n-max", "256"),
        ("verify", "--unsafe-no-caps"),
    ],
)
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err


def test_unsafe_no_caps_lifts_the_caps(capsys):
    # `verify` clamps each suite's n itself, so it has no cap to lift.
    rc, out, _ = run(capsys, "verify", "--n-max", "5000")
    rc_cap, out_cap, _ = run(capsys, "verify", "--n-max", "4096")
    assert rc == rc_cap == 0
    assert out == out_cap
    rc, out, _ = run(
        capsys, "audit", "--families", "REMARK1", "--p-max", "65", "--unsafe-no-caps",
        "--format", "csv",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 780  # 12 relations x p in 1..65
    assert {row[6] for row in rows} == {"PASS"}


def test_unknown_command(capsys):
    rc = main(["frobnicate"])
    assert rc == 2
