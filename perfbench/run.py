#!/usr/bin/env python3
"""fibaudit benchmark: three closed-loop workloads, timed end to end and,
in a separate traced run, per layer.

    python3 perfbench/run.py --workload audit-grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run executes one workload in this single process, one
operation in flight, no ``--parallel``, and repeats full passes of it until
``--seconds`` is used up.  Every pass goes through the correctness gate.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
human-readable summary goes to standard error.  ``--size tiny`` runs the
same workloads on small inputs (used by ``selfcheck.py``).

Workloads (see README.md for why each exists):
  audit-grid     fibaudit audit --families all --n-max 64 --p-max 2 --format json
  audit-deep     seeded single large cells of T2/T3/T4/T5, one audit() call each
                 (runs by hand; not listed in BENCHMARK.json)
  tables-verify  verify --n-max 64; a length-513 transform round trip;
                 tables --n-max 768
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SIZES = {
    "full": {
        "grid": ["--n-max", "64", "--p-max", "2"],
        "deep_n": (256, 4096),
        "deep_cap_linear": 16384,   # T2/T3/T5: n*p
        "deep_cap_quad": 2**20,     # T4 printed reading: n*n*p
        "deep_strata": (4, 3),      # (log n strata, p strata) per family, 2 cells each
        "verify_n": 64,
        "seq_len": 513,
        "tables_n": 768,
    },
    "tiny": {
        "grid": ["--n-max", "6", "--p-max", "1"],
        "deep_n": (16, 64),
        "deep_cap_linear": 256,
        "deep_cap_quad": 4096,
        "deep_strata": (1, 1),
        "verify_n": 6,
        "seq_len": 17,
        "tables_n": 16,
    },
}

SETUP_FIRST = 4  # set-up samples before the first pass; one more follows each pass
DEEP_FAMILIES = ("T2", "T3", "T4", "T5")
DEEP_P_MAX = 64


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import fibaudit from this checkout's src/, never from elsewhere."""
    if not (SRC / "fibaudit" / "__init__.py").is_file():
        fail_setup(f"no fibaudit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fibaudit
    import fibaudit.cli
    if Path(fibaudit.__file__).resolve().parent != (SRC / "fibaudit").resolve():
        fail_setup(f"imported fibaudit from {fibaudit.__file__}, not from {SRC}")
    return fibaudit


def time_setup() -> float:
    """Seconds from starting a fresh interpreter until fibaudit and its CLI
    are imported and the first operation could start."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fibaudit, fibaudit.cli; "
        "sys.stdout.write('ready\\n'); sys.stdout.flush()"
    )
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        fail_setup(f"set-up child failed (rc {proc.returncode})")
    return elapsed


@dataclass
class PassResult:
    op_times: list = field(default_factory=list)  # seconds per operation, in pass order
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.op_times)

    def raised(self, exc: BaseException, ops: int = 1) -> None:
        self.failed += ops
        self.errors[f"{type(exc).__name__}: {str(exc)[:80]}"] += ops


def _root(tracer, request):
    return tracer.span("bench.op", request) if tracer else contextlib.nullcontext()


class Workload:
    def __init__(self, program, size: dict, seed: int, expected: dict) -> None:
        self.fa = program
        self.size = size
        self.seed = seed
        self.expected = expected
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def cli_op(self, result: PassResult, args: list, name: str, tracer, ops: int = 1):
        """One CLI command writing its report to a file; returns (rc, path, stderr)."""
        path = self.tmp / f"{name}.out"
        path.unlink(missing_ok=True)
        err = io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with _root(tracer, name), contextlib.redirect_stderr(err):
                rc = self.fa.cli.main(args + ["--out", str(path)])
        except Exception as exc:  # a program failure: count it and go on
            result.raised(exc, ops)
        result.op_times.append(time.perf_counter() - t0)
        result.attempted += ops
        return rc, path, err.getvalue()

    def gate_report(self, result: PassResult, args: list, rc, path: Path, err: str) -> None:
        """Compare a CLI report's rc and sha256 with the seed commit's."""
        key = " ".join(args)
        want = self.expected[key]
        if rc is None:
            return  # already counted as raised
        if rc != want["rc"]:
            result.wrong.append(f"{key}: rc {rc}, expected {want['rc']}: {err.strip()[:200]}")
        elif not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != want["sha256"]:
            result.wrong.append(f"{key}: report bytes differ from the recorded digest")
        # Delete the report before the kernel writes it back, so no disk
        # traffic (tables writes 67 MB a pass) spills into later passes.
        path.unlink(missing_ok=True)


class AuditGrid(Workload):
    """The dense all-family grid through the CLI; one operation per cell."""

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.args = ["audit", "--families", "all", *self.size["grid"], "--format", "json"]
        self.cells = self.expected[" ".join(self.args)]["cells"]

    def run_pass(self, tracer) -> PassResult:
        result = PassResult()
        rc, path, err = self.cli_op(result, self.args, "audit-grid", tracer, ops=self.cells)
        self.gate_report(result, self.args, rc, path, err)
        return result


def expected_verdict(family: str, n: int, reading: str) -> str:
    """Adjudication of README "Audit findings" for n >= 2."""
    if family == "T2":
        return "PASS"
    if family == "T3":
        return "PASS" if n % 2 == 0 else "FAIL"
    if family == "T4_EVEN":
        return "PASS" if reading == "base-subscript" else "FAIL"
    if family == "T4_ODD":
        return "FAIL"
    if family == "T5":
        return "PASS" if n % 2 == 1 else "FAIL"
    raise ValueError(family)


def _log_uniform_int(lo: int, hi: int, u: float) -> int:
    """The integer at quantile u of a log-uniform draw over lo..hi."""
    value = math.floor(math.exp(math.log(lo) + u * (math.log(hi + 1) - math.log(lo))))
    return min(hi, max(lo, value))


def deep_cells(size: dict, seed: int) -> list[tuple[str, int, int]]:
    """Seeded single cells, stratified so every pass covers the whole range.

    For each family, n is log-uniform over the n the cost cap admits and p
    is log-uniform in 1..min(64, cap(n)).  Each (n, p) stratum pair gets an
    antithetic pair of draws (quantiles u and 1-u in both coordinates), so
    the mix of small and large cells, and with it the pass time and the
    share of cells past the int->str limit, hardly depends on the seed.
    """
    rng = random.Random(seed)
    n_lo, n_top = size["deep_n"]
    m_n, m_p = size["deep_strata"]
    cells = []
    for family in DEEP_FAMILIES:
        if family == "T4":
            def p_cap(n):
                return min(DEEP_P_MAX, size["deep_cap_quad"] // (n * n))
        else:
            def p_cap(n):
                return min(DEEP_P_MAX, size["deep_cap_linear"] // n)
        n_hi = n_top
        while p_cap(n_hi) < 1:
            n_hi -= 1
        for i in range(m_n):
            for j in range(m_p):
                a, b = rng.random(), rng.random()
                for u, v in ((a, b), (1 - a, 1 - b)):
                    n = _log_uniform_int(n_lo, n_hi, (i + u) / m_n)
                    p = _log_uniform_int(1, p_cap(n), (j + v) / m_p)
                    name = family
                    if family == "T4":
                        name = "T4_EVEN" if n % 2 == 0 else "T4_ODD"
                    cells.append((name, n, p))
    return cells


class AuditDeep(Workload):
    """Single large cells, each one library call audit(...).to_json()."""

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.cells = deep_cells(self.size, self.seed)

    def run_pass(self, tracer) -> PassResult:
        identities = self.fa.identities
        result = PassResult()
        reports = []
        for family, n, p in self.cells:
            t0 = time.perf_counter()
            try:
                with _root(tracer, f"{family}:n={n}:p={p}"):
                    text = identities.audit([identities.IdentityFamily[family]], [n], [p]).to_json()
            except Exception as exc:  # a program failure: count it and go on
                result.raised(exc)
            else:
                reports.append((family, n, p, text))
            result.op_times.append(time.perf_counter() - t0)
        result.attempted = len(self.cells)
        for family, n, p, text in reports:
            self.gate_cell(result, family, n, p, text)
        return result

    @staticmethod
    def gate_cell(result: PassResult, family: str, n: int, p: int, text: str) -> None:
        readings = {"printed", "base-subscript"} if family.startswith("T4") else {"printed"}
        entries = json.loads(text)
        seen = {e["reading"] for e in entries}
        if seen != readings or len(entries) != len(readings):
            result.wrong.append(f"{family} n={n} p={p}: readings {sorted(seen)}")
            return
        for e in entries:
            want = expected_verdict(family, n, e["reading"])
            if (e["family"], e["n"], e["p"]) != (family, n, p) or e["verdict"] != want:
                result.wrong.append(
                    f"{family} n={n} p={p} {e['reading']}: {e['verdict']}, expected {want}")


class TablesVerify(Workload):
    """verify, a transform round trip and tables: three operations a pass."""

    def __init__(self, *a) -> None:
        super().__init__(*a)
        rng = random.Random(self.seed)
        self.seq = self.fa.Seq(tuple(rng.randint(-50, 50) for _ in range(self.size["seq_len"])))
        self.verify_args = ["verify", "--n-max", str(self.size["verify_n"])]
        self.tables_args = ["tables", "--n-max", str(self.size["tables_n"])]

    def run_pass(self, tracer) -> PassResult:
        result = PassResult()
        verify = self.cli_op(result, self.verify_args, "verify", tracer)
        transforms = self.fa.transforms
        back = None
        t0 = time.perf_counter()
        try:
            with _root(tracer, "round-trip"):
                back = transforms.inverse_transform(transforms.binomial_transform(self.seq))
        except Exception as exc:  # a program failure: count it and go on
            result.raised(exc)
        result.op_times.append(time.perf_counter() - t0)
        result.attempted += 1
        tables = self.cli_op(result, self.tables_args, "tables", tracer)
        self.gate_report(result, self.verify_args, *verify)
        self.gate_report(result, self.tables_args, *tables)
        if back is not None and back != self.seq:
            result.wrong.append("inverse_transform(binomial_transform(a)) != a")
        return result


WORKLOADS = {"audit-grid": AuditGrid, "audit-deep": AuditDeep, "tables-verify": TablesVerify}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "ok_rate": "ratio", "peak_rss_mb": "MB",
}

CLOSED_FORM_FAMILIES = ("T2", "T3", "T4", "T5", "T6", "T7")


def layer_metrics(tr) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced pass from the tracer's aggregates."""
    def s(*names):
        return sum(tr.self_ns.get(n, 0) for n in names) / 1e9

    def c(*names):
        return sum(tr.calls.get(n, 0) for n in names)

    closed = {f: s(f"identities.closed_form.{f}") for f in CLOSED_FORM_FAMILIES}
    out = {
        "ring.mul_calls": (c("ring.mul"), "count"),
        "ring.pow_calls": (c("ring.pow"), "count"),
        "ring.pow_s": (s("ring.pow"), "s"),
        "ring.div_sqrt5_calls": (c("ring.div_sqrt5"), "count"),
        "sequences.q_coeff_calls": (c("sequences.q_coeff"), "count"),
        "sequences.q_coeff_s": (s("sequences.q_coeff"), "s"),
        "sequences.s_coeff_calls": (c("sequences.s_coeff"), "count"),
        "sequences.s_coeff_s": (s("sequences.s_coeff"), "s"),
        "sequences.fib_lucas_calls": (c("sequences.fib_lucas"), "count"),
        "sequences.fib_lucas_s": (s("sequences.fib_lucas"), "s"),
        "sequences.build_coeff_table_s": (s("sequences.build_coeff_table"), "s"),
        "transforms.transform_calls": (c("transforms.transform"), "count"),
        "transforms.transform_s": (s("transforms.transform"), "s"),
        "transforms.nabla_s": (s("transforms.nabla"), "s"),
        "transforms.identity_eval_s": (s("transforms.identity_eval"), "s"),
        "identities.cells": (c("identities.cell"), "count"),
        "identities.cell_errors": (tr.errors.get("identities.cell", 0), "count"),
        "identities.oracle_calls": (c("identities.oracle"), "count"),
        "identities.oracle_s": (s("identities.oracle"), "s"),
        "identities.closed_form_s": (sum(closed.values()), "s"),
    }
    for f in CLOSED_FORM_FAMILIES:
        out[f"identities.closed_form.{f}_s"] = (closed[f], "s")
    out.update({
        "identities.prop1_s": (s("identities.prop1"), "s"),
        "identities.remark1_s": (s("identities.remark1"), "s"),
        "identities.cross_power_s": (s("identities.cross_power"), "s"),
        "identities.render_s": (s("identities.render"), "s"),
        "identities.render_max_digits": (tr.max_digits, "digits"),
        "cli.self_s": (s("cli.main"), "s"),
        "cli.emit_s": (s("cli.emit"), "s"),
        "cli.bytes_out": (tr.bytes_out, "bytes"),
    })
    return out


def run_passes(workload, seconds: float, tracer=None, between=None):
    """A closed loop of full passes until the measuring window is used up.
    With a tracer, each traced pass is paired with an untraced one, so the
    overhead is measured in the same run.  ``between`` runs after each
    pass, outside its time."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(workload.run_pass(None))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(workload.run_pass(tracer))
            finally:
                tracer.uninstall()
            tracer.keep = False
            layers.append(layer_metrics(tracer))
        if between is not None:
            between()
        if time.perf_counter() - start >= seconds:
            return plain, traced, layers


def quiet_wall(passes: list) -> float:
    """Seconds of one pass on a quiet machine: each operation's fastest time
    over the passes, summed.  Shared hosts slow a process by up to 2x in
    spells of seconds; a median over a few passes flips with those spells,
    while each operation's minimum does not.  The minimum also drops the
    first pass's cost of growing the heap."""
    return sum(min(times) for times in zip(*(r.op_times for r in passes)))


def summarize(passes: list, setup_s: float | None) -> tuple[dict, dict]:
    walls = [r.wall for r in passes]
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    wall_s = quiet_wall(passes)
    metrics = {
        "wall_s": wall_s,
        "ops_per_s": (attempted - failed) / len(passes) / wall_s,
        "ok_rate": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    info = {
        "passes": len(walls),
        "wall_median_s": statistics.median(walls),
        "wall_max_s": max(walls),
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    program = import_program()
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    setup_times = []
    if not args.trace:
        # Spread the set-up samples over the run, so one slow spell of a
        # shared machine does not decide the median.
        setup_times = [time_setup() for _ in range(SETUP_FIRST)]
    workload = WORKLOADS[args.workload](program, SIZES[args.size], args.seed, expected)

    tracer = None
    if args.trace:
        from spans import Tracer  # perfbench/spans.py, next to this file
        tracer = Tracer()
    plain, traced, layers = run_passes(
        workload, args.seconds, tracer,
        between=None if args.trace else lambda: setup_times.append(time_setup()))
    everything = plain + traced
    wrong = [w for r in everything for w in r.wrong]
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)

    metrics, info = summarize(plain, statistics.median(setup_times) if setup_times else None)
    units = dict(END_TO_END_UNITS)
    if args.trace:
        units.update({k: unit for k, (_, unit) in layers[0].items()})
        reported = {k: statistics.median_low(sample[k][0] for sample in layers) for k in layers[0]}
        reported["trace.overhead_ratio"] = quiet_wall(traced) / quiet_wall(plain)
        units["trace.overhead_ratio"] = "ratio"
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"spans of the first traced pass: {spans_path}", file=sys.stderr)
    else:
        reported = metrics

    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{info['passes']} untraced passes, pass seconds median {info['wall_median_s']:.4f} "
          f"tail (max) {info['wall_max_s']:.4f}; error_rate {failed / attempted:.4f} "
          f"({failed}/{attempted} operations raised)", file=sys.stderr)
    for kind, count in sorted(sum((r.errors for r in everything), Counter()).items()):
        print(f"  raised x{count}: {kind}", file=sys.stderr)
    for key, value in reported.items():
        print(f"  {key} = {value:.6g} {units[key]}", file=sys.stderr)
    for w in wrong[:20]:
        print(f"  WRONG: {w}", file=sys.stderr)

    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
