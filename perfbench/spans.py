"""Layer spans recorded from outside the program.

``Tracer`` replaces a function at the name its caller looks it up by (a
module attribute or a class attribute) with a wrapper that records calls,
total time and the part of that time covered by nested wrapped calls, so a
span's self time is its total minus its child spans.  Spans are kept in
memory and every replaced attribute is restored on exit.

``PoolCounter`` replaces ``harness.ProcessPoolExecutor`` with a subclass
that counts pools created and tasks mapped onto them.  Spans inside pool
workers cannot be seen from the parent, so pool runs count pools only.
"""

from __future__ import annotations

import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor


def span_targets(rislink):
    """(owner, attribute, span name) for every layer boundary the benchmark
    times.  Each owner is where the calling code looks the name up, so the
    wrapper sees every call the program makes through that name."""
    cli, harness = rislink.cli, rislink.harness
    channel, downlink, uplink = rislink.channel, rislink.downlink, rislink.uplink
    analysis, waveform = rislink.analysis, rislink.waveform
    return [
        (cli, "main", "cli.main"),
        (cli, "load_scenario", "config.load_scenario"),
        (cli, "run_uplink_ser", "harness"),
        (cli, "run_downlink_ber", "harness"),
        (cli, "run_pdf_fit", "harness"),
        (cli, "export_csv", "harness.export_csv"),
        (harness.stats, "kstest", "harness.kstest"),
        (harness, "build_downlink_frame", "scenario.build_downlink_frame"),
        (harness, "build_uplink_instance", "scenario.build_uplink_instance"),
        (channel.JakesFading, "create", "channel.JakesFading.create"),
        (channel.JakesFading, "sample_at", "channel.JakesFading.sample_at"),
        (channel, "complex_normal", "channel.complex_normal"),
        (channel, "ula_steering", "channel.ula_steering"),
        (channel, "upa_steering", "channel.upa_steering"),
        (channel, "los_component", "channel.los_component"),
        (downlink, "hadamard_pilots", "downlink.hadamard_pilots"),
        (downlink, "ls_estimate", "downlink.ls_estimate"),
        (downlink, "zf_precoder", "downlink.zf_precoder"),
        (downlink, "equivalent_channel", "downlink.equivalent_channel"),
        (downlink, "joint_detect", "downlink.joint_detect"),
        (downlink, "bipolar_candidates", "downlink.bipolar_candidates"),
        (uplink, "exact_linear_gains", "uplink.exact_linear_gains"),
        (uplink, "build_regions", "uplink.build_regions"),
        (uplink.DecisionRegions, "locate", "uplink.DecisionRegions.locate"),
        (analysis, "closed_form_ser", "analysis.closed_form_ser"),
        (analysis, "gamma_difference_pdf", "analysis.gamma_difference_pdf"),
        (analysis, "gaussian_approx", "analysis.gaussian_approx"),
        # the waveform layer is the test oracle; no experiment should reach it
        (waveform, "modulate", "waveform"),
        (waveform, "correlate", "waveform"),
        (waveform, "apply_doppler", "waveform"),
    ]


def span_names(targets):
    return list(dict.fromkeys(name for _, _, name in targets))


class Tracer:
    """Context manager that installs span wrappers on enter and removes them
    on exit; ``calls``, ``total`` and ``self_time`` hold the spans."""

    def __init__(self, targets):
        self.targets = targets
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self._stack = []
        self._saved = []

    def self_time(self, name):
        return self.total[name] - self.child[name]

    def _wrap(self, fn, name):
        stack, calls, total, child = self._stack, self.calls, self.total, self.child

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                child[name] += frame[0]
                if stack:
                    stack[-1][0] += dt

        return span

    def __enter__(self):
        for owner, attr, name in self.targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False


class PoolCounter:
    """Counts the process pools the harness creates and the tasks it maps
    onto them while the context is active."""

    def __init__(self, harness):
        self.harness = harness
        self.pools = 0
        self.tasks = 0
        self._saved = None

    def __enter__(self):
        counter = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                counter.pools += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                items = [list(it) for it in iterables]
                counter.tasks += len(items[0]) if items else 0
                return super().map(fn, *items, **kwargs)

        self._saved = self.harness.ProcessPoolExecutor
        self.harness.ProcessPoolExecutor = CountingPool
        return self

    def __exit__(self, *exc):
        self.harness.ProcessPoolExecutor = self._saved
        return False
