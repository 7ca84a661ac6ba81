"""Timing spans around psispec's layers, installed from outside the package.

``Tracer.install`` replaces each function in ``LAYERS``, wherever a psispec
module holds a reference to it, with a wrapper that records a span (name,
start, end, parent) and the layer's work counts.  Spans stay in memory until
``summary`` turns them into per-layer total and self times.

With ``peaks`` set, spans marked for it also record their ``tracemalloc``
peak.  tracemalloc hooks every allocation, and the prefix kernel and the CSV
reader allocate one Python float per value, which makes them 20 to 45 times
slower; so peaks come from a pass of their own, never from a timed one.
"""

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

MB = float(1 << 20)


def _count_sieved(counts, args, result):
    lo, hi = args[0], args[1]
    counts["prime_series.integers_sieved"] += hi - lo


def _count_segments(counts, args, result):
    counts["spectral.welch_segments"] += result.estimator["n_segments"]


def _count_zero_terms(counts, args, result):
    xs, t_desc = args[0], args[1]
    counts["zeta.zero_terms"] += len(xs) * len(t_desc)


def _count_rows_read(counts, args, result):
    counts["cli.rows_read"] += result.n


def _count_emitted(counts, args, result):
    text = args[1]
    counts["cli.bytes_written"] += len(text.encode())
    if text.startswith("#"):
        # one header line follows the leading "#" metadata lines
        counts["cli.rows_written"] += text.count("\n") - text.count("\n#") - 2


#: Names of the counts the hooks below keep.
COUNTS = (
    "prime_series.integers_sieved", "spectral.welch_segments", "zeta.zero_terms",
    "cli.rows_written", "cli.bytes_written", "cli.rows_read",
)

#: (module, function, span name, count hook, record tracemalloc peak).
#: A span name of None counts without timing, so ``_emit`` stays part of its
#: command's self time.
LAYERS = [
    ("prime_series", "psi_series", "prime_series.psi_series", None, True),
    ("_kernels", "mangoldt_segment", "kernels.mangoldt_segment", _count_sieved, False),
    ("_kernels", "half_jump_prefix", "kernels.half_jump_prefix", None, False),
    ("prime_series", "smooth_part", "prime_series.smooth_part", None, False),
    ("prime_series", "fluctuation_at", "prime_series.fluctuation_at", None, False),
    ("spectral", "remove_mean", "spectral.remove_mean", None, False),
    ("spectral", "burg_fit", "spectral.burg_fit", None, False),
    ("_kernels", "burg_recursion", "kernels.burg_recursion", None, False),
    ("spectral", "ar_psd", "spectral.ar_psd", None, False),
    ("spectral", "welch_psd", "spectral.welch_psd", _count_segments, False),
    ("powerlaw", "fit_power_law", "powerlaw.fit_power_law", None, False),
    ("zeta", "load_zeros", "zeta.load_zeros", None, False),
    ("zeta", "psi_fluc_from_zeros", "zeta.psi_fluc_from_zeros", None, False),
    ("_kernels", "zero_pair_sum", "kernels.zero_pair_sum", _count_zero_terms, False),
    ("cli", "read_sample_csv", "cli.read_sample_csv", _count_rows_read, True),
    ("cli", "cmd_sample", "cli.command", None, False),
    ("cli", "cmd_spectrum", "cli.command", None, False),
    ("cli", "cmd_fit", "cli.command", None, False),
    ("cli", "cmd_reconstruct", "cli.command", None, False),
    ("cli", "_emit", None, _count_emitted, False),
]


class Tracer:
    """Spans, counts and peaks of the layers, kept in memory."""

    def __init__(self):
        self.peaks = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.peak_mb = defaultdict(float)
        self._open = []
        self._restore = []

    def _wrap(self, name, fn, count, peak):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                count(self.counts, args, result)
                return result
            own_trace = self.peaks and peak and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
                if own_trace:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_mb[name] = max(self.peak_mb[name], peak_bytes / MB)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function in every loaded psispec module."""
        modules = [m for n, m in sys.modules.items() if n == "psispec" or n.startswith("psispec.")]
        for mod_name, fn_name, name, count, peak in LAYERS:
            original = getattr(sys.modules.get(f"psispec.{mod_name}"), fn_name, None)
            if original is None:
                print(f"trace: psispec.{mod_name}.{fn_name} not found", file=sys.stderr)
                continue
            wrapper = self._wrap(name, original, count, peak)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.peak_mb.clear()

    def metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since ``reset``.

        ``<span>_s`` is a span's total time, ``cli.emit_self_s`` the self
        time of the commands, ``<span>_peak_mb`` a tracemalloc peak, and
        layers not reached read 0.
        """
        total, own = self.summary()
        metrics = {}
        for _, _, name, _, peak in LAYERS:
            if name in (None, "cli.command"):
                continue
            metrics[f"{name}_s"] = total.get(name, 0.0)
            if peak:
                metrics[f"{name}_peak_mb"] = self.peak_mb.get(name, 0.0)
        metrics["cli.emit_self_s"] = own.get("cli.command", 0.0)
        metrics.update((count, self.counts[count]) for count in COUNTS)
        return metrics

    def summary(self) -> tuple[dict, dict]:
        """Total and self seconds per span name, summed over calls."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        return dict(total), dict(own)
