"""Pinned reports: each command, run with --out, must keep its exit code and
the sha256 of its report.  Every row of PINS and every command of
perfbench/expected.json is one case; a new pin is one row."""

import hashlib
import json
from pathlib import Path

import pytest

from fibaudit.cli import main

_EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"

_TABLES_256 = ("rows 0..20 are checked against the definition and rows 256 and 128 against"
               " coeff_row; the others are not")
_AUDIT_GRID = "the audit grid (all families, n <= 64, p <= 2); its json is an expected.json row"

# (command, rc, sha256 of the report, why it is pinned)
PINS = [
    ("tables --n-max 256 --format text", 0,
     "d5399620b5daa1b67f48ad6357211c3a7e32fbfb4ce3a1aff8feda3548cf771a", _TABLES_256),
    ("tables --n-max 256 --format csv", 0,
     "74638c4ca02df1dca5a627582ccdba9c77a59f1dcf851aa7d81ae9b448f9c0aa", _TABLES_256),
    ("tables --n-max 256 --format json", 0,
     "eeb56b92d962437ce8cba3a8c3040f7acd56d9d99e5c63679b519dcfc95d4f24", _TABLES_256),
    ("audit --families all --n-max 64 --p-max 2 --format csv", 3,
     "b728902cebdb167617e4ecb3955733db23c8140148b84a484cef21654aa1b15c", _AUDIT_GRID),
    ("audit --families all --n-max 64 --p-max 2 --format text", 3,
     "dbe692b7f9467f94a513aef6a56f25598636d7491b8f67e6547ad5316722e825", _AUDIT_GRID),
    ("audit --families T2,T3,T5,T6,T7,PROP1,LEMMA5,LEMMA7 --n-max 256 --p-max 4 --format json", 3,
     "a4bd95ab754a9cf94186a07673b98ca7e1a35e73cb9107306e54ef279fc9342f",
     "dense columns to n = 256, so every sampled check runs at n = 256 and 128"),
    ("audit --families T6,T7,PROP1,LEMMA5,LEMMA7 --n-max 512 --p-max 3 --format json", 3,
     "c588724e9badc424874188fb5f845dbf9a87f85e98212c9362f6cf114c4f12e3",
     "T6/T7/LEMMA5/LEMMA7 step their row sums and PROP1 its left sides to n = 512"),
    ("audit --families T6,T7,LEMMA5,LEMMA7 --n-max 1024 --p-max 2 --format json", 3,
     "c4e547929b9038b382be255f9ba1efaba945e4958445df3902ab12f803a05846",
     "the per-cell T6/T7/LEMMA5/LEMMA7 row sums are checked at n = 1024 and 512 (17,425 cells)"),
    ("audit --families T4 --n-max 96 --p-max 2 --format json", 3,
     "ed40fc4fdc763e4e637acf575befb51a258e9281f13b268704c4fe22799a5e90",
     "T4's printed right sides reach 7,782 digits, past the default 4,300-digit int->str limit"),
    ("audit --families T6,T7 --n-max 128 --p-max 8 --format json", 3,
     "434b5c173a90fe654ce54e0fbc4e54020d3ab42a2eda0b50fc3ad0480d09b9d3",
     "T6/T7 at p = 5..8"),
    ("audit --families T2,T3,T4,T5 --n-max 128 --p-max 8 --format json", 3,
     "dac755524b45a54396916df860386a425cfabbe66edd3edd7ff60e86a93cc493",
     "T2/T3/T5 at p = 5..8 and T4 at p = 3..8"),
    ("audit --families PROP1 --n-max 128 --p-max 8 --format json", 0,
     "58b1a4784a10518d20de525322ace4eee0350a78fdce33689a2bb8cd236affc9",
     "PROP1 at p = 5..8"),
    ("audit --families REMARK1 --n-max 0 --p-max 64 --format json", 0,
     "a75f549460732a37ecc54e0e8debd830c16f00ac778b002e081ab7e21ac0287d",
     "all twelve REMARK1 relations at p = 1..64 (768 cells)"),
    ("audit --families T2,T3,T4,T5,T6,T7,PROP1 --n-max 16 --p-max 64 --format json", 3,
     "14aad467169124bf58c5822716dca6438f64c68265e1977f47265b7d82aaf039",
     "every p to the cap at n <= 16 (15,419 cells)"),
    ("audit --families T4 --n-max 256 --p-max 2 --format json", 3,
     "a7efcf27fee2714e88def0d77ed596927310fb5f18f10a36f1f841be1618ab18",
     "T4's sampled checks run at n = 256/128 (T4_EVEN) and 255/127 (T4_ODD)"),
]
PINS += [
    (command, want["rc"], want["sha256"], "a benchmark gate in perfbench/expected.json")
    for command, want in json.loads(_EXPECTED.read_text(encoding="utf-8")).items()
]


@pytest.mark.parametrize(
    "command, rc, sha256, reason", PINS, ids=[pin[0].replace(" ", "_") for pin in PINS]
)
def test_pinned_report(tmp_path, capsys, command, rc, sha256, reason):
    path = tmp_path / "report"
    try:
        got_rc = main([*command.split(), "--out", str(path)])
        digest = hashlib.sha256()
        with path.open("rb") as report:
            for chunk in iter(lambda: report.read(1 << 20), b""):
                digest.update(chunk)
        if "--format json" in command:
            with path.open(encoding="utf-8") as report:
                json.load(report)
    finally:
        path.unlink(missing_ok=True)
    got = (got_rc, capsys.readouterr().out, digest.hexdigest())
    assert got == (rc, "", sha256), f"{command} ({reason})"
