"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps public functions of the fibaudit layers from outside the
package: every module attribute (and class attribute) that is the original
function object is replaced, so calls are seen under whichever name the
caller looks up (``fibaudit.identities.q_coeff`` as well as
``fibaudit.sequences.q_coeff``).  ``uninstall`` puts the originals back, so
untraced passes in the same process run the unmodified code.

A span records (id, parent id, request id, name, start ns, end ns).  Self
time is a span's duration minus the time covered by its child spans and is
accumulated per span name as the span closes; calls and raised exceptions
are counted at the same boundaries.  The layers run on one thread with no
queues, so no waiting time exists to record.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from fractions import Fraction

MODULES = ("fibaudit", "fibaudit.ring", "fibaudit.sequences", "fibaudit.transforms",
           "fibaudit.identities", "fibaudit.cli")

# (defining module, attribute, span name or None for a per-call name, kind).
# kind "count" only counts calls; "span" records a span.
TRACED = (
    ("fibaudit.ring", "GoldenInt.__mul__", "ring.mul", "count"),
    ("fibaudit.ring", "ring_pow", "ring.pow", "span"),
    ("fibaudit.ring", "div_sqrt5", "ring.div_sqrt5", "count"),
    ("fibaudit.sequences", "q_coeff", "sequences.q_coeff", "span"),
    ("fibaudit.sequences", "s_coeff", "sequences.s_coeff", "span"),
    ("fibaudit.sequences", "fib", "sequences.fib_lucas", "span"),
    ("fibaudit.sequences", "lucas", "sequences.fib_lucas", "span"),
    ("fibaudit.sequences", "build_coeff_table", "sequences.build_coeff_table", "span"),
    ("fibaudit.transforms", "binomial_transform", "transforms.transform", "span"),
    ("fibaudit.transforms", "inverse_transform", "transforms.transform", "span"),
    ("fibaudit.transforms", "nabla_direct", "transforms.nabla", "span"),
    ("fibaudit.transforms", "nabla_sum", "transforms.nabla", "span"),
    ("fibaudit.transforms", "theorem1_eval", "transforms.identity_eval", "span"),
    ("fibaudit.transforms", "corollary1_eval", "transforms.identity_eval", "span"),
    ("fibaudit.transforms", "corollary2_eval", "transforms.identity_eval", "span"),
    ("fibaudit.transforms", "lemma2_lhs", "transforms.identity_eval", "span"),
    ("fibaudit.transforms", "lemma3_sum", "transforms.identity_eval", "span"),
    ("fibaudit.identities", "_audit_cell", "identities.cell", "span"),
    ("fibaudit.identities", "fib_power_sum_oracle", "identities.oracle", "span"),
    ("fibaudit.identities", "fib_power_sum_binet", "identities.oracle", "span"),
    ("fibaudit.identities", "closed_form_rhs", None, "span"),
    ("fibaudit.identities", "prop1_eval", "identities.prop1", "span"),
    ("fibaudit.identities", "remark1_relation", "identities.remark1", "span"),
    ("fibaudit.identities", "cross_power_expansion", "identities.cross_power", "span"),
    ("fibaudit.identities", "render_exact", "identities.render", "span"),
    ("fibaudit.identities", "AuditReport.to_json", None, "span"),
    ("fibaudit.identities", "AuditReport.to_csv", None, "span"),
    ("fibaudit.identities", "AuditReport.to_text", None, "span"),
    ("fibaudit.cli", "main", "cli.main", "span"),
    ("fibaudit.cli", "_emit", "cli.emit", "span"),
)

_LOG10_2 = 0.30102999566398120
KEEP_SPANS = 200_000  # spans kept for the span file; the rest are only counted


def _int_digits(x: int, powers: dict) -> int:
    """Exact decimal digit count of x without int->str (which is capped)."""
    x = abs(x)
    if x < 10:
        return 1
    d = int((x.bit_length() - 1) * _LOG10_2) + 1
    if d not in powers:
        powers[d] = 10**d
    return d + (x >= powers[d])


class Tracer:
    """Spans, self time and counts for one traced pass at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self._patches: list[tuple] = []
        self._powers: dict[int, int] = {}
        self._next_id = 0
        self.request = None
        self.keep = True  # store spans; turned off after the first traced pass
        self.reset()

    def reset(self) -> None:
        """Clear the per-pass aggregates (kept spans are not cleared)."""
        self.stack: list[list] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.max_digits = 0
        self.bytes_out = 0

    # -- span boundaries ----------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        self.stack.append([self._next_id, name, parent, time.perf_counter_ns(), 0])

    def exit(self, raised: bool) -> None:
        end = time.perf_counter_ns()
        span_id, name, parent, start, child_ns = self.stack.pop()
        dur = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns
        self.calls[name] = self.calls.get(name, 0) + 1
        if raised:
            self.errors[name] = self.errors.get(name, 0) + 1
        if self.stack:
            self.stack[-1][4] += dur
        if self.keep:
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((span_id, parent, self.request, name, start, end))
            else:
                self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str, request):
        """A benchmark-side root span around one operation."""
        self.request = request
        self.enter(name)
        try:
            yield
        except BaseException:
            self.exit(True)
            raise
        else:
            self.exit(False)
        finally:
            self.request = None

    # -- hooks ---------------------------------------------------------------

    def digits(self, x) -> int:
        if isinstance(x, bool):
            return 0
        if isinstance(x, int):
            return _int_digits(x, self._powers)
        if isinstance(x, Fraction):
            return max(_int_digits(x.numerator, self._powers),
                       _int_digits(x.denominator, self._powers))
        if isinstance(x, str):
            return len(x)
        u, v = getattr(x, "u", 0), getattr(x, "v", 0)
        return max(_int_digits(u, self._powers), _int_digits(v, self._powers))

    def _on_render(self, args) -> None:
        self.max_digits = max(self.max_digits, self.digits(args[0]))

    def _on_emit(self, args) -> None:
        # _emit(config, payload): count what the CLI writes.
        payload = args[1]
        self.bytes_out += len(payload) if payload.isascii() else len(payload.encode("utf-8"))

    def _name_for(self, attr: str, args) -> str:
        if attr == "closed_form_rhs":
            return "identities.closed_form." + args[0].value[:2]
        # AuditReport serialization belongs to the CLI's emit step when the
        # CLI asked for it, and to the library caller otherwise.
        if any(frame[1] == "cli.main" for frame in self.stack):
            return "cli.emit"
        return "identities.serialize"

    # -- installation --------------------------------------------------------

    def _wrap(self, fn, attr: str, name: str | None, kind: str):
        tracer = self
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args):
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                return fn(*args)
            return counted

        leaf = attr.rsplit(".", 1)[-1]
        hook = {"render_exact": tracer._on_render, "_emit": tracer._on_emit}.get(leaf)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if hook is not None:
                hook(args)
            tracer.enter(name or tracer._name_for(leaf, args))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(True)
                raise
            tracer.exit(False)
            return result
        return spanned

    def install(self) -> None:
        """Replace every alias of every traced function with a wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for mod_name, attr, name, kind in TRACED:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                targets = [cls]
            else:
                original = getattr(owner, attr)
                targets = modules
            wrapper = self._wrap(original, attr, name, kind)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans_kept": len(self.spans),
                                 "spans_dropped": self.dropped}) + "\n")
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
