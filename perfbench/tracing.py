"""Span recorder for the traced run and the per-layer metrics built from it.

The traced run wraps the fstack entry points listed in ``api.TRACED`` by
rebinding module attributes (and the two bank ``process_block``
methods) in its own process only.  Each span keeps its name, start,
end, parent span and op id; spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the
durations of its child spans (the program is single-threaded, so
children never overlap).
"""

import contextlib
import functools
import statistics
import time
import weakref

import numpy as np

import api

SETUP = "setup"

# name, unit, better, end-to-end metric it should move, where it shows
# most / least.  Per op unless the name is a set-up step.
LAYER_METRICS = (
    ("stacking.plan_s", "s", "lower", "setup_s",
     "all workloads equally (ms); there so a planner change shows"),
    ("filter_design.coarse_s", "s", "lower", "setup_s",
     "ref_iir (IIR fit, about 12 s) / gmr2_fine (FIR, 0.1 s)"),
    ("filter_design.coarse_iir_s", "s", "lower", "setup_s", "ref_iir / absent elsewhere"),
    ("filter_design.verify_allpass_s", "s", "lower", "setup_s", "ref_iir / absent elsewhere"),
    ("filter_design.coarse_fir_s", "s", "lower", "setup_s",
     "sweep_fir / gmr2_fine only for its config; absent on ref_iir"),
    ("filter_design.fine_fir_s", "s", "lower", "setup_s",
     "ref_iir and sweep_fir (Remez) / gmr2_fine (Kaiser)"),
    ("filter_design.fine_fir_attempts", "count", "lower", "setup_s",
     "lengths tried by the fine design; 6 at desk scale"),
    ("filter_design.coarse_iir_coefs", "count", "lower", "none", "must stay 280"),
    ("filter_design.coarse_fir_taps", "count", "lower", "none", "must stay 860"),
    ("filter_design.fine_fir_taps", "count", "lower", "none", "must stay 5568 or 115200"),
    ("frontend.stimulus_s", "s", "lower", "setup_s", "all"),
    ("frontend.awgn_s", "s", "lower", "samples_per_s", "sweep_fir / zero on the others"),
    ("frontend.awgn_calls", "count", "lower", "samples_per_s", "sweep_fir / zero on the others"),
    ("channelizer.coarse_analyze_s", "s", "lower", "samples_per_s",
     "ref_iir, sweep_fir / zero on gmr2_fine"),
    ("channelizer.coarse_synthesize_s", "s", "lower", "samples_per_s",
     "ref_iir, sweep_fir / zero on gmr2_fine"),
    ("channelizer.fine_analyze_s", "s", "lower", "samples_per_s", "gmr2_fine / small on ref_iir"),
    ("channelizer.fine_synthesize_s", "s", "lower", "samples_per_s",
     "gmr2_fine / small on ref_iir"),
    ("channelizer.find_delay_s", "s", "lower", "samples_per_s",
     "ref_iir, sweep_fir / zero on gmr2_fine"),
    ("channelizer.aligned_mse_s", "s", "lower", "samples_per_s",
     "ref_iir, sweep_fir / zero on gmr2_fine"),
    ("channelizer.end_to_end_self_s", "s", "lower", "samples_per_s",
     "ref_iir, sweep_fir / zero on gmr2_fine"),
    ("polyphase.analysis_self_s", "s", "lower", "samples_per_s",
     "all; all-pass on ref_iir, FIR branches on the other two"),
    ("polyphase.synthesis_self_s", "s", "lower", "samples_per_s",
     "all; all-pass on ref_iir, FIR branches on the other two"),
    ("polyphase.analysis_calls", "count", "lower", "samples_per_s", "all"),
    ("polyphase.synthesis_calls", "count", "lower", "samples_per_s", "all"),
    ("polyphase.frames", "count", "lower", "samples_per_s", "all"),
    ("polyphase.coarse_analysis_calls", "count", "lower", "samples_per_s",
     "2 per pass on ref_iir and sweep_fir (the second is the power table) / zero on gmr2_fine"),
    ("polyphase.model_adds_per_sample", "ops/sample", "lower", "none", "exact counts"),
    ("polyphase.model_mults_per_sample", "ops/sample", "lower", "none", "exact counts"),
    ("polyphase.model_ops_per_s", "1/s", "higher", "samples_per_s",
     "compare ref_iir with sweep_fir: does the smaller recursive model become wall time"),
    ("fftcore.transform_s", "s", "lower", "samples_per_s", "gmr2_fine / small on ref_iir"),
    ("fftcore.transform_calls", "count", "lower", "samples_per_s", "gmr2_fine / small on ref_iir"),
    ("fftcore.points", "count", "lower", "samples_per_s", "gmr2_fine / small on ref_iir"),
    ("trace.overhead_pct", "%", "lower", "none",
     "traced median op time against untraced, all workloads"),
)

# Times that are zero by construction on a workload in BENCHMARK.json
# (gmr2_fine runs no coarse stage, no recursive design and no delay
# search; only sweep_fir adds noise).  They stay in the run record and
# out of the result line, so no reported time is a constant zero.
RECORD_ONLY = frozenset({
    "filter_design.coarse_iir_s", "filter_design.verify_allpass_s",
    "filter_design.coarse_fir_s", "frontend.awgn_s", "frontend.awgn_calls",
    "channelizer.coarse_analyze_s", "channelizer.coarse_synthesize_s",
    "channelizer.find_delay_s", "channelizer.aligned_mse_s",
    "channelizer.end_to_end_self_s",
})

# traced entry point each metric is read from; when the entry point is
# gone the metric is reported absent
SOURCE = {
    "filter_design.verify_allpass_s": "filter_design.verify_allpass",
    "frontend.awgn_s": "frontend.add_awgn",
    "frontend.awgn_calls": "frontend.add_awgn",
    "channelizer.coarse_analyze_s": "channelizer.coarse_analyze",
    "channelizer.coarse_synthesize_s": "channelizer.coarse_synthesize",
    "channelizer.fine_analyze_s": "channelizer.fine_analyze",
    "channelizer.fine_synthesize_s": "channelizer.fine_synthesize",
    "channelizer.find_delay_s": "channelizer.find_delay",
    "channelizer.aligned_mse_s": "channelizer.aligned_mse",
    "channelizer.end_to_end_self_s": "channelizer.end_to_end",
    "polyphase.analysis_self_s": "polyphase.AnalysisBank.process_block",
    "polyphase.analysis_calls": "polyphase.AnalysisBank.process_block",
    "polyphase.coarse_analysis_calls": "polyphase.AnalysisBank.process_block",
    "polyphase.synthesis_self_s": "polyphase.SynthesisBank.process_block",
    "polyphase.synthesis_calls": "polyphase.SynthesisBank.process_block",
    "fftcore.transform_s": "fftcore.transform_many",
    "fftcore.transform_calls": "fftcore.transform_many",
    "fftcore.points": "fftcore.transform_many",
}
BANK_METRICS = ("polyphase.frames", "polyphase.model_adds_per_sample",
                "polyphase.model_mults_per_sample", "polyphase.model_ops_per_s")
BANKS = ("polyphase.AnalysisBank.process_block", "polyphase.SynthesisBank.process_block")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "data")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.data = None
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "data": self.data}


class Tracer:
    """Spans of the current op; nothing is recorded while ``op`` is None."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self.absent = {}  # traced entry point -> why it could not be wrapped
        self.counter_errors = {}  # op id -> mismatches against the closed form
        self._expected = weakref.WeakKeyDictionary()  # bank -> [adds, mults, frames]

    def begin(self, name):
        if self.op is None:
            return None
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, parent, self.op)
        self.spans.append(span)
        return span

    def finish(self, span):
        if span is not None:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """The benchmark's own span around one of its set-up calls."""
        span = self.begin(name)
        try:
            yield
        finally:
            self.finish(span)

    # -- wrapping -------------------------------------------------------

    def install(self):
        """Wrap every entry point in ``api.TRACED`` that still exists."""
        for target in api.TRACED:
            found, reason = api.lookup_traced(target)
            if found is None:
                self.absent[target] = reason
                continue
            owner, attr, original = found
            if target in BANKS:
                setattr(owner, attr, self._wrap_bank(target, original))
            else:
                api.rebind(original, self._wrap(target, original))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(span)
                if span is not None and name == "fftcore.transform_many":
                    span.data = {"points": int(np.size(args[1]))}

        return traced

    def _wrap_bank(self, name, method):
        tracer = self
        analysis = name.startswith("polyphase.AnalysisBank")

        @functools.wraps(method)
        def traced(bank, data):
            span = tracer.begin(name)
            if span is None:
                return method(bank, data)
            before = bank.counters.copy()
            try:
                out = method(bank, data)
            finally:
                tracer.finish(span)
            frames = np.size(data) // bank.num_branches if analysis else np.shape(data)[0]
            after = bank.counters
            span.data = {
                "branches": bank.num_branches,
                "frames": int(frames),
                "adds": after.real_adds - before.real_adds,
                "mults": after.real_mults - before.real_mults,
            }
            tracer._check_counters(bank, int(frames))
            return out

        return traced

    def _check_counters(self, bank, frames):
        """c06 rule: the bank's counters equal the closed form times frames, exactly."""
        fs = api.Fstack()
        proto, n = bank.prototype, bank.num_branches
        if isinstance(proto, fs.FirPrototype):
            adds, mults = fs.fir_candidate_cost(n, proto.length)
        else:
            adds, mults = fs.iir_candidate_cost(n, proto.num_branches * proto.sections_per_branch)
        expected = self._expected.setdefault(bank, [0.0, 0.0, 0])
        expected[0] += frames * adds
        expected[1] += frames * mults
        expected[2] += frames
        got = bank.counters
        if (got.real_adds, got.real_mults, got.frames) != tuple(expected):
            self.counter_errors.setdefault(self.op, []).append(
                f"{type(bank).__name__}(N={n}): counters "
                f"{(got.real_adds, got.real_mults, got.frames)} != closed form {tuple(expected)}"
            )

    # -- per-layer metrics ---------------------------------------------

    def layer_metrics(self, info, traced_ops, overhead_pct):
        """Every LAYER_METRICS value, and the reason for each one reported absent.

        ``info`` describes the workload's set-up (see workloads.Workload.layer_info);
        per-op values are medians over ``traced_ops``.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration

        def total(spans, name, self_time=False):
            return sum(s.duration - (child[i] if self_time else 0.0)
                       for i, s in spans if s.name == name)

        def count(spans, name):
            return sum(1 for _, s in spans if s.name == name)

        by_op = {}
        for i, span in enumerate(self.spans):
            by_op.setdefault(span.op, []).append((i, span))
        setup = by_op.get(SETUP, [])
        values = {
            "stacking.plan_s": total(setup, "setup.plan"),
            "filter_design.verify_allpass_s": total(setup, "filter_design.verify_allpass"),
            "filter_design.fine_fir_s": total(setup, "setup.fine_design"),
            "frontend.stimulus_s": total(setup, "setup.stimulus"),
            "filter_design.fine_fir_attempts": info["fine_fir_attempts"],
            "filter_design.fine_fir_taps": info["fine_fir_taps"],
            "trace.overhead_pct": overhead_pct,
        }
        absent = {}
        coarse = values["filter_design.coarse_s"] = total(setup, "setup.coarse_design")
        if info["coarse_kind"] == "iir":
            values["filter_design.coarse_iir_s"] = coarse
            values["filter_design.coarse_iir_coefs"] = info["coarse_size"]
            for name in ("filter_design.coarse_fir_s", "filter_design.coarse_fir_taps"):
                absent[name] = "this workload designs the recursive coarse candidate"
        else:
            values["filter_design.coarse_fir_s"] = coarse
            values["filter_design.coarse_fir_taps"] = info["coarse_size"]
            for name in ("filter_design.coarse_iir_s", "filter_design.coarse_iir_coefs",
                         "filter_design.verify_allpass_s"):
                absent[name] = "this workload designs the FIR coarse candidate"

        per_op = []
        for op in traced_ops:
            spans = by_op.get(op, [])
            banks = [s for _, s in spans if s.name in BANKS and s.data]
            adds = sum(s.data["adds"] for s in banks)
            mults = sum(s.data["mults"] for s in banks)
            bank_self = sum(total(spans, name, self_time=True) for name in BANKS)
            per_op.append({
                "frontend.awgn_s": total(spans, "frontend.add_awgn"),
                "frontend.awgn_calls": count(spans, "frontend.add_awgn"),
                "channelizer.coarse_analyze_s": total(spans, "channelizer.coarse_analyze"),
                "channelizer.coarse_synthesize_s": total(spans, "channelizer.coarse_synthesize"),
                "channelizer.fine_analyze_s": total(spans, "channelizer.fine_analyze"),
                "channelizer.fine_synthesize_s": total(spans, "channelizer.fine_synthesize"),
                "channelizer.find_delay_s": total(spans, "channelizer.find_delay"),
                "channelizer.aligned_mse_s": total(spans, "channelizer.aligned_mse"),
                "channelizer.end_to_end_self_s": total(spans, "channelizer.end_to_end", True),
                "polyphase.analysis_self_s": total(spans, BANKS[0], True),
                "polyphase.synthesis_self_s": total(spans, BANKS[1], True),
                "polyphase.analysis_calls": count(spans, BANKS[0]),
                "polyphase.synthesis_calls": count(spans, BANKS[1]),
                "polyphase.frames": sum(s.data["frames"] for s in banks),
                "polyphase.coarse_analysis_calls": sum(
                    1 for s in banks
                    if s.name == BANKS[0] and s.data["branches"] == info["coarse_branches"]),
                "polyphase.model_adds_per_sample": adds / info["samples_per_op"],
                "polyphase.model_mults_per_sample": mults / info["samples_per_op"],
                "polyphase.model_ops_per_s": (adds + mults) / bank_self if bank_self else 0.0,
                "fftcore.transform_s": total(spans, "fftcore.transform_many"),
                "fftcore.transform_calls": count(spans, "fftcore.transform_many"),
                "fftcore.points": sum(s.data["points"] for _, s in spans
                                      if s.name == "fftcore.transform_many"),
            })
        for name in per_op[0] if per_op else ():
            values[name] = statistics.median(row[name] for row in per_op)

        for name, target in SOURCE.items():
            if target in self.absent:
                absent[name] = self.absent[target]
        if any(target in self.absent for target in BANKS):
            for name in BANK_METRICS:
                absent[name] = "a bank process_block method no longer exists"
        result = {}
        for name, unit, *_ in LAYER_METRICS:
            value = 0.0 if name in absent else values.get(name, 0.0)
            result[name] = {"value": float(value), "unit": unit}
        return result, absent
