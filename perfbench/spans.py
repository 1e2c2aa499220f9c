"""Span tracing around the library's layer boundaries, from outside the library.

The tracer replaces module attributes (``vi.update_mu``, ``gibbs.post_process``
...) with wrappers that record one span per call: name, start, end, parent
span and operation id. Library code that calls these names through its
module globals is traced without changing it. A target that no longer
exists is reported as absent and counts zero calls.
"""

from __future__ import annotations

import contextlib
import csv
import statistics
import time
from collections import defaultdict

# (module, attribute, span name). Span names follow the layer that does the
# work; a function imported into several modules is wrapped at each call site.
TARGETS = (
    ("model", "load_csv", "model.load_csv"),
    ("model", "write_theta_csv", "model.write_theta_csv"),
    ("freqfit", "frequentist_fit", "freqfit.frequentist_fit"),
    ("freqfit", "fit_additive", "freqfit.fit_additive"),
    ("freqfit", "fit_interaction", "freqfit.fit_interaction"),
    ("vi", "fit", "vi.fit"),
    ("vi", "init_state", "vi.init_state"),
    ("vi", "update_mu", "vi.update_mu"),
    ("vi", "update_g", "vi.update_g"),
    ("vi", "update_e", "vi.update_e"),
    ("vi", "update_lambda", "vi.update_lambda"),
    ("vi", "update_gamma", "vi.update_gamma"),
    ("vi", "update_delta", "vi.update_delta"),
    ("vi", "update_tau", "vi.update_tau"),
    ("vi", "elbo", "vi.elbo"),
    ("vi", "post_process", "vi.post_process"),
    ("vi", "trunc_normal_moments", "statsmath.trunc_normal_moments"),
    ("statsmath", "trunc_normal_moments", "statsmath.trunc_normal_moments"),
    ("statsmath", "sample_trunc_normal", "statsmath.sample_trunc_normal"),
    ("gibbs", "gibbs_fit", "gibbs.gibbs_fit"),
    ("gibbs", "frequentist_fit", "freqfit.frequentist_fit"),
    ("gibbs", "_cond_mu", "gibbs.cond_mu"),
    ("gibbs", "_cond_g", "gibbs.cond_g"),
    ("gibbs", "_cond_e", "gibbs.cond_e"),
    ("gibbs", "_cond_lambda", "gibbs.cond_lambda"),
    ("gibbs", "_cond_gamma", "gibbs.cond_gamma"),
    ("gibbs", "_cond_delta", "gibbs.cond_delta"),
    ("gibbs", "_cond_tau", "gibbs.cond_tau"),
    ("gibbs", "_resid", "gibbs.resid"),
    ("gibbs", "ThetaPoint", "gibbs.ThetaPoint"),
    ("gibbs", "post_process", "gibbs.post_process"),
    ("gibbs", "sample_trunc_normal", "statsmath.sample_trunc_normal"),
    ("gibbs", "rhat_table", "gibbs.rhat_table"),
    ("gibbs", "summarize", "gibbs.summarize"),
    ("gibbs", "posterior_mean_theta", "gibbs.posterior_mean_theta"),
    ("analysis", "predict", "analysis.predict"),
    ("analysis", "export_heatmap", "analysis.export_heatmap"),
    ("analysis", "compare", "analysis.compare"),
    ("analysis", "sample_trunc_normal", "statsmath.sample_trunc_normal"),
    ("analysis", "ComparisonReport.to_csv", "analysis.ComparisonReport.to_csv"),
)

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """Records spans in memory while installed; restores every attribute on exit."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _resolve(self, module: str, attr: str):
        owner = self.modules.get(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, leaf, None)):
            return None, leaf
        return owner, leaf

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][_END] = time.perf_counter()

    def _wrapper(self, original, name: str):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def __enter__(self):
        present = set()
        for module, attr, name in TARGETS:
            owner, leaf = self._resolve(module, attr)
            if owner is None:
                continue
            original = owner.__dict__.get(leaf, getattr(owner, leaf))
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrapper(original, name))
            present.add(name)
        self.absent = {name for _, _, name in TARGETS} - present
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)
        return False

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def per_op(self) -> dict[int, dict[str, list[float]]]:
        """Per operation and span name: [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        out: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for k, s in enumerate(self.spans):
            entry = out[s[_OP]][s[_NAME]]
            dur = s[_END] - s[_START]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[k]
        return out

    def write(self, path) -> None:
        """All spans as CSV: name, start, end (seconds), parent index, op id."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for k, s in enumerate(self.spans):
                writer.writerow([k, s[_NAME], f"{s[_START]:.9f}", f"{s[_END]:.9f}",
                                 s[_PARENT], s[_OP]])


def median_per_op(per_op: dict, ops, name: str, field: int) -> float:
    """Median over the given operations of one span's calls/total/self."""
    values = [per_op.get(op, {}).get(name, [0, 0.0, 0.0])[field] for op in ops]
    return float(statistics.median(values)) if values else 0.0
