"""Command-line front end: `verify` runs the transform property suites,
`audit` checks the printed identities against the oracles, and `tables`
prints the q/s coefficient tables.

Each command takes only the flags it reads: all three take --n-max and
--out; `tables` adds --format and --unsafe-no-caps; `audit` adds those two,
--families and --p-max.  Reports go to standard output (or --out);
diagnostics go to standard error.  `audit` writes its report one
(family, p) column at a time and holds one column, not the report; its
values are exact past CPython's 4,300-digit int->str limit.  Exit codes:
0 success, 1 suite failure or an unexpected error (reported as one line on
standard error; an `audit` that fails after its first column has already
written the columns before it), 2 invalid configuration, 3 printed-form
audit FAIL, 4 output I/O failure.
"""
from __future__ import annotations

import argparse
import random
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain

from .identities import (
    FAMILY_FACTS,
    REPORT_FORMATS,
    IdentityFamily,
    audit_columns,
    audit_notes,
)
from .ring import PHI, PSI
from .sequences import binomial, coeff_rows
from .transforms import (
    Seq,
    binomial_transform,
    corollary1_eval,
    corollary2_eval,
    inverse_transform,
    lemma2_lhs,
    lemma3_sum,
    nabla_direct,
    nabla_sum,
    theorem1_eval,
)

HARD_N_MAX = 4096
HARD_P_MAX = 64


def _validate(args: argparse.Namespace) -> str | None:
    p_max = getattr(args, "p_max", 0)  # only `audit` takes --p-max
    if args.n_max < 0:
        return "n-max must be non-negative"
    if p_max < 0:
        return "p-max must be non-negative"
    # `verify` clamps each suite's n itself, so it takes no caps.
    if not getattr(args, "unsafe_no_caps", True):
        if args.n_max > HARD_N_MAX:
            return f"n-max exceeds the hard cap {HARD_N_MAX} (use --unsafe-no-caps)"
        if p_max > HARD_P_MAX:
            return f"p-max exceeds the hard cap {HARD_P_MAX} (use --unsafe-no-caps)"
    return None


def _parse_families(families: str) -> list[IdentityFamily]:
    """The families one --families string names; ValueError names the first
    unknown tag, or says that no tag was given."""
    tags = {"all": list(IdentityFamily)}
    for family, facts in FAMILY_FACTS.items():
        tags[family.value] = [family]
        if facts.group:
            tags.setdefault(facts.group, []).append(family)
    out: list[IdentityFamily] = []
    for part in families.split(","):
        part = part.strip()
        if part and part not in tags:
            raise ValueError(f"unknown family {part!r} in --families {families!r}")
        out.extend(tags.get(part, ()))
    if not out:
        raise ValueError("no family given")
    return out


def _emit(out, payload: str) -> None:
    # Every report byte passes through here, one str at a time;
    # perfbench/spans.py wraps this function by name to count them.  A text
    # file encodes each str it is given into one bytes object, so the
    # payload goes in 64 KiB slices rather than copied whole.
    for start in range(0, len(payload), 1 << 16):
        out.write(payload[start:start + (1 << 16)])


def _write_report(path: str | None, chunks: Iterable[str]) -> int:
    """Write the report's chunks, in order, to the --out `path` or,
    without one, to standard output.

    Each chunk is written as soon as it is made and dropped before the
    next is made, so this function holds one chunk at a time, never two.
    """
    if not path:
        for chunk in chunks:
            _emit(sys.stdout, chunk)
            del chunk
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                _emit(fh, chunk)
                del chunk
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _random_seq(rng: random.Random, length: int) -> Seq:
    return Seq(tuple(rng.randint(-50, 50) for _ in range(length)))


# Each suite takes its effective bound `top` = min(--n-max, its cap in
# _VERIFY_SUITES): the largest index n it checks, so sequences have
# length at most top + 1.  It yields one bool per check, True if it holds.


def _suite_round_trip(rng, top):
    for _ in range(50):
        a = _random_seq(rng, rng.randint(1, top + 1))
        yield inverse_transform(binomial_transform(a)) == a
        yield binomial_transform(inverse_transform(a)) == a


def _suite_lemma1(rng, top):
    b = _random_seq(rng, top + 1)
    for n in range(top + 1):
        for m in range(n + 1):
            yield nabla_direct(b, m, n) == nabla_sum(b, m, n)
            yield binomial(n, m) * nabla_sum(b, m, n) == sum(
                binomial(n, j) * binomial(j, n - m) * (-1) ** (n - j) * b[j]
                for j in range(n + 1)
            )


def _suite_lemma2(rng, top):
    a = _random_seq(rng, top + 1)
    b = binomial_transform(a)
    for n in range(top + 1):
        for m in range(n + 1):
            yield lemma2_lhs(a, m, n) == nabla_sum(b, m, n)
            yield sum(
                binomial(n, k) * binomial(k, m) * a[k] for k in range(n + 1)
            ) == binomial(n, m) * nabla_sum(b, m, n)


def _suite_lemma3(rng, top):
    for n in range(1, top + 1):
        for m in range(1, n + 1):
            yield lemma3_sum(n, m) == Fraction((-1) ** m, m)


def _suite_theorem1(rng, top):
    for _ in range(25):
        length = rng.randint(1, top + 1)
        a = _random_seq(rng, length)
        c = _random_seq(rng, length)
        lhs, rhs8, rhs81 = theorem1_eval(a, c)
        yield lhs == rhs8 == rhs81


_COROLLARY_XS = (0, 1, -1, Fraction(1, 2), 2, PHI, PSI)


def _suite_corollary(evaluate, rng, top):
    """Corollary 1 or 2, as `evaluate` (corollary1_eval or corollary2_eval)
    gives both sides."""
    for _ in range(15):
        a = _random_seq(rng, rng.randint(1, top + 1))
        for x in _COROLLARY_XS:
            lhs, rhs = evaluate(a, x)
            yield lhs == rhs


def _suite_gould(rng, top):
    for n in range(top + 1):
        for m in range(n + 1):
            for l in range(n + 1):
                yield sum(
                    binomial(m, k) * binomial(n - k, l) * (-1) ** k
                    for k in range(m + 1)
                ) == binomial(n - m, l - m)
    for n in range(1, top + 1):
        for m in range(1, n + 1):
            yield sum(
                binomial(n - m, j) * (-1) ** j * Fraction(m, m + j)
                for j in range(n - m + 1)
            ) == Fraction(1, binomial(n, n - m))


# (name, suite, cap on the suite's n); the corollary suites look their
# evaluator up when they run, so a wrapped one is seen.
_VERIFY_SUITES = (
    ("round_trip", _suite_round_trip, 63),
    ("lemma1", _suite_lemma1, 32),
    ("lemma2", _suite_lemma2, 32),
    ("lemma3", _suite_lemma3, 30),
    ("theorem1", _suite_theorem1, 15),
    ("corollary1", lambda rng, top: _suite_corollary(corollary1_eval, rng, top), 12),
    ("corollary2", lambda rng, top: _suite_corollary(corollary2_eval, rng, top), 12),
    ("gould", _suite_gould, 20),
)


def cmd_verify(args: argparse.Namespace) -> int:
    rng = random.Random(20240501)
    lines = []
    bounds = []
    any_fail = False
    for name, suite, cap in _VERIFY_SUITES:
        top = min(args.n_max, cap)
        results = list(suite(rng, top))
        fails = results.count(False)
        any_fail = any_fail or fails > 0
        status = "FAIL" if fails else "PASS"
        lines.append(f"{status} {name} ({len(results)} checks, {fails} failures)")
        bounds.append(f"{name}={top}")
    print(
        f"verify: n bounds for --n-max {args.n_max}: " + " ".join(bounds),
        file=sys.stderr,
    )
    rc = _write_report(args.out, ["\n".join(lines) + "\n"])
    if rc:
        return rc
    return 1 if any_fail else 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def cmd_audit(args: argparse.Namespace) -> int:
    try:
        families = _parse_families(args.families)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cells = fails = 0

    def columns():
        # Each column is counted as it passes on to be written.
        nonlocal cells, fails
        for entries in audit_columns(families, range(args.n_max + 1), range(args.p_max + 1)):
            cells += len(entries)
            fails += sum(e.verdict == "FAIL" for e in entries)
            yield entries

    chunks = REPORT_FORMATS[args.format](columns(), audit_notes(families))
    if args.format == "json":
        chunks = chain(chunks, ["\n"])
    # The first column is made before --out is opened, so a run that fails
    # there leaves no file; one that fails later keeps the columns before it.
    rc = _write_report(args.out, chain([next(chunks)], chunks))
    if rc:
        return rc
    print(f"audit: {cells} cells, {fails} printed-form failures", file=sys.stderr)
    return 0 if fails == 0 else 3


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _s_row_texts(n: int, q_texts: list[str]) -> list[str]:
    """Decimal strings of s row n, taken from those of q row n:
    s(n,c) = (-1)^(n+c) q(n,c), so the strings where n+c is odd are negated."""
    texts = list(q_texts)
    odd = (n + 1) % 2
    texts[odd::2] = [
        t[1:] if t[0] == "-" else t if t == "0" else "-" + t for t in texts[odd::2]
    ]
    return texts


def _text_row(kind: str, n: int, texts: list[str]) -> str:
    return f"{kind}[{n}]: " + " ".join(texts) + "\n"


def _csv_row(kind: str, n: int, texts: list[str]) -> str:
    head = f"{kind}\n" if n == 0 else ""
    return head + '"' + '","'.join(texts) + '"\n'


def _json_row(kind: str, n: int, texts: list[str]) -> str:
    # The layout of json.dumps({"Q": rows, "S": rows}, indent=2), written
    # row by row; no row and no table is empty.
    if n:
        head = ",\n"
    elif kind == "Q":
        head = '{\n  "Q": [\n'
    else:
        head = '\n  ],\n  "S": [\n'
    return head + "    [\n      " + ",\n      ".join(texts) + "\n    ]"


# format -> (one row's chunk, closing chunk)
_TABLE_FORMATS = {
    "text": (_text_row, ""),
    "csv": (_csv_row, ""),
    "json": (_json_row, "\n  ]\n}\n"),
}


def _tables_report(output_format: str, q_rows) -> Iterator[str]:
    """The tables report, one chunk per row: every Q row, then every S row.

    Each q row is held only while it is rendered.  A Q row's chunk is
    yielded at once; its S row's chunk, made next from the same strings
    with the signs of s applied (so it can reuse the written Q chunk's
    memory), is kept until the Q section is out.
    """
    row_chunk, closing = _TABLE_FORMATS[output_format]
    s_chunks = []
    for n, q_row in enumerate(q_rows):
        q_texts = list(map(str, q_row))
        yield row_chunk("Q", n, q_texts)
        s_chunks.append(row_chunk("S", n, _s_row_texts(n, q_texts)))
    yield from s_chunks
    if closing:
        yield closing


def cmd_tables(args: argparse.Namespace) -> int:
    # coeff_rows checks the first rows when called, so a recurrence fault
    # is raised before --out is opened or any byte is written.
    q_rows = coeff_rows("Q", args.n_max)
    return _write_report(args.out, _tables_report(args.format, q_rows))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibaudit",
        description="Exact verification and auditing of binomial-transform "
        "and Fibonacci-power identities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n-max", type=int, default=16)
    common.add_argument("--out", default=None, metavar="PATH")
    # `audit` and `tables` write formatted reports whose size is capped.
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--format", choices=("json", "csv", "text"), default="text")
    capped.add_argument("--unsafe-no-caps", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common], help="run the transform property suites")
    audit_parser = sub.add_parser(
        "audit", parents=[common, capped], help="audit printed identities vs oracles"
    )
    audit_parser.add_argument(
        "--families", default="all",
        help="comma-separated identity tags (T2, T4, REMARK1, PROP1, ...) or 'all'",
    )
    audit_parser.add_argument("--p-max", type=int, default=2)
    sub.add_parser(
        "tables", parents=[common, capped], help="print the q/s coefficient tables"
    )
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "audit": cmd_audit,
    "tables": cmd_tables,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    error = _validate(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        # No traceback: one line naming the command and the exception.
        message = " ".join(str(exc).split())
        print(
            f"error: {args.command}: {type(exc).__name__}: {message}",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
