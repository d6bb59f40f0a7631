"""In-memory span tracer for the traced benchmark run.

A span is ``[name, start, end, parent, iteration]``: ``name`` is
``<layer>.<metric>`` (the layer is the geocount module that does the work),
``parent`` is the index of the enclosing span, and ``iteration`` is the id of
the benchmark iteration the span belongs to.  Spans are recorded around the
public geocount functions, by replacing those names in the namespaces that
call them: the benchmark's own call table, ``geocount.cli``,
``geocount.fitting`` and the ``Dataset`` class.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
import warnings
from collections import defaultdict

import scipy.linalg

ROOT = "iteration"

LIKELIHOOD_KERNELS = (
    "logit_loglik",
    "logit_grad",
    "poisson_loglik",
    "poisson_grad",
    "zip_loglik",
    "zip_grad",
)
RENDERERS = (
    "render_fit_text",
    "render_fit_csv",
    "render_fit_json",
    "render_hotspot_csv",
    "render_hotspot_geojson",
)
DATASET_ACCESSORS = ("counts", "centroids", "covariate_values")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered)
    return out


def self_time_by_iteration(spans) -> dict[int, dict[str, float]]:
    """Per iteration: self seconds summed by span name and by layer.

    The root span's self time, the part of the iteration no layer span
    covers, is reported as ``unattributed``.
    """
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        name, iteration = span[0], span[4]
        totals = out[iteration]
        if name == ROOT:
            totals["unattributed"] += own
            continue
        totals[name] += own
        totals[name.split(".", 1)[0] + ".self"] += own
    return out


def _is_linalg_warning(record) -> bool:
    """Numerical warnings: scipy's LinAlgWarning and numpy's RuntimeWarning (overflow etc.)."""
    return issubclass(record.category, (RuntimeWarning, scipy.linalg.LinAlgWarning))


class Tracer:
    """Records spans and per-iteration counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.weights_peak_mb = 0.0
        self.probe_memory = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._iteration = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._iteration])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[self._iteration][key] += amount

    def begin_iteration(self, iteration: int) -> None:
        self._iteration = iteration
        self._root = self._open(ROOT)

    def end_iteration(self) -> None:
        self._close(self._root)

    def wrap(self, fn, name, on_exit=None, probe=False):
        """``fn`` recorded as span ``name`` (a callable of the arguments, or a str).

        With ``probe``, calls made while ``probe_memory`` is set also record
        their tracemalloc peak in ``weights_peak_mb``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            memory = probe and self.probe_memory
            if memory:
                tracemalloc.start()
            index = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.weights_peak_mb = max(self.weights_peak_mb, peak)
            if on_exit is not None:
                on_exit(result, *args, **kwargs)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, name, on_exit=None, inner=None, probe=False) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        target = original if inner is None else inner(original)
        setattr(owner, attr, self.wrap(target, name, on_exit, probe))

    def install(self, lib) -> None:
        """Wrap the public entry points in ``lib`` and in geocount's callers."""
        import geocount.cli as cli
        import geocount.fitting as fitting
        from geocount.data import Dataset

        self._patch(lib, "main", "cli.main")
        for owner in (lib, cli):
            self._patch(owner, "generate", "simulate.generate", self._on_generate)
            self._patch(owner, "write_dataset", "ingest.write_dataset", self._on_write)
            self._patch(owner, "read_dataset", "ingest.read_dataset", self._on_read)
            self._patch(owner, "build_weights", _weights_label, self._on_weights, probe=True)
            self._patch(owner, "getis_ord_gstar", "spatial.gstar")
        self._patch(lib, "fit", "fitting.fit", inner=self._counting_fit)
        self._patch(cli, "fit", "fitting.fit", inner=self._counting_fit)
        for attr in RENDERERS:
            self._patch(cli, attr, "cli.render", self._on_render)
        self._patch(fitting, "build_design", "data.build_design")
        self._patch(fitting, "fd_hessian", "fitting.fd_hessian")
        for attr in LIKELIHOOD_KERNELS:
            kind = "grad_calls" if attr.endswith("_grad") else "loglik_calls"
            on_exit = functools.partial(self._on_kernel, "likelihoods." + kind)
            self._patch(fitting, attr, "likelihoods.kernel", on_exit)
        for attr in DATASET_ACCESSORS:
            self._patch(Dataset, attr, "data.accessor", self._on_accessor)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters ----------------------------------------------------------

    def _counting_fit(self, fit_fn):
        """``fit`` that also counts fits, iterations and warnings raised inside."""

        @functools.wraps(fit_fn)
        def fit(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fit_fn(*args, **kwargs)
            self.count("fitting.fits")
            self.count("fitting.iterations", result.iterations)
            self.count("fitting.nonconverged", int(not result.converged))
            self.count("fitting.linalg_warnings", sum(map(_is_linalg_warning, caught)))
            return result

        return fit

    def _on_generate(self, dataset, *args, **kwargs):
        self.count("simulate.generate_calls")

    def _on_write(self, result, dataset, sink, *args, **kwargs):
        if isinstance(sink, (str, os.PathLike)):
            self.count("ingest.bytes_written", os.path.getsize(sink))

    def _on_read(self, dataset, *args, **kwargs):
        self.count("ingest.rows_read", len(dataset))

    def _on_weights(self, weights, *args, **kwargs):
        per_row = weights.entries.indptr[1:] - weights.entries.indptr[:-1]
        self.count("spatial.weights_nnz", weights.entries.nnz)
        # an island's only weight is its own
        self.count("spatial.islands", int((per_row <= int(weights.include_self)).sum()))

    def _on_render(self, text, *args, **kwargs):
        self.count("cli.bytes_out", len(text.encode("utf-8")))

    def _on_kernel(self, key, result, *args, **kwargs):
        self.count(key)

    def _on_accessor(self, result, *args, **kwargs):
        self.count("data.accessor_calls")

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, iteration."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _weights_label(centroids, scheme, *args, **kwargs) -> str:
    kind = "band" if type(scheme).__name__ == "DistanceBand" else "knn"
    return f"spatial.build_weights_{kind}"
