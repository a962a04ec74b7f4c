"""Per-layer tracing of kerrstokes, installed from outside the package.

:class:`Tracer` replaces public functions of the package's modules with
wrappers, in every ``kerrstokes.*`` namespace that binds them, and puts
the originals back on :meth:`Tracer.uninstall`.  Layer boundaries get
spans (name, start, end, parent, op); hot inner calls (the kernel_* functions,
``spectrum_value``, ``PulseSpec`` construction, approximation warnings)
get counters only.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANS = (
    ("optimize", "scan_phase"),
    ("optimize", "optimal_phase_coh_sq"),
    ("optimize", "optimal_phase_two_sq"),
    ("optimize", "optimal_phase_xpm"),
    ("optimize", "optimal_phase_bs_s01"),
    ("optimize", "optimal_phase_bs_s2"),
    ("scenario", "run"),
    ("scenario", "validate"),
    ("scenario", "collect_issues"),
    ("stokes", "averages_coh_sq"),
    ("stokes", "averages_two_sq"),
    ("stokes", "averages_xpm"),
    ("stokes", "averages_bs"),
    ("spectra", "spectrum"),
    ("config_io", "load_config"),
    ("cli", "main"),
    ("oracle", "wk_numeric"),
    ("oracle", "mc_coherent_phasor"),
    ("verify", "run_checks"),
    ("figures", "figure_preset"),
)
KERNELS = ("kernel_coh_sq", "kernel_two_sq", "kernel_xpm", "kernel_bs_s01", "kernel_bs_s2")

# Span names summed into one per-layer metric.
GROUPS = {
    "optimize.optimal_phase": tuple(n for m, n in SPANS if n.startswith("optimal_phase_")),
    "stokes.averages": tuple(n for m, n in SPANS if n.startswith("averages_")),
}

# Per-layer metrics and their units.  Span and counter figures are per
# traced op; figures.figure_preset.self_s is the total over input
# generation; import figures come from ``python -X importtime``.
LAYER_METRICS = {
    "optimize.scan_phase.calls": "count/op",
    "optimize.scan_phase.self_s": "s/op",
    "optimize.optimal_phase.calls": "count/op",
    "optimize.optimal_phase.self_s": "s/op",
    "optimize.kernel_builds_per_scan": "count/scan",
    "pulse.PulseSpec.constructions": "count/op",
    "pulse.approximation_warnings": "count/op",
    "spectra.kernel_build.calls": "count/op",
    "spectra.spectrum_value.calls": "count/op",
    "spectra.spectrum.self_s": "s/op",
    "spectra.spectrum.points": "count/op",
    "stokes.averages.calls": "count/op",
    "stokes.averages.self_s": "s/op",
    "scenario.run.calls": "count/op",
    "scenario.run.self_s": "s/op",
    "scenario.validate.self_s": "s/op",
    "scenario.collect_issues.calls": "count/op",
    "config_io.load_config.calls": "count/op",
    "config_io.load_config.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.bytes_written": "B/op",
    "oracle.wk_numeric.calls": "count/op",
    "oracle.wk_numeric.self_s": "s/op",
    "oracle.mc_coherent_phasor.self_s": "s/op",
    "verify.run_checks.self_s": "s/op",
    "figures.figure_preset.self_s": "s",
    "import.kerrstokes_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "trace.overhead_pct": "%",
}
COUNTERS = {
    "pulse.PulseSpec.constructions",
    "pulse.approximation_warnings",
    "spectra.kernel_build.calls",
    "spectra.spectrum_value.calls",
    "spectra.spectrum.points",
    "cli.bytes_written",
}


class _CountingWarnings:
    """Stand-in for the ``warnings`` module seen by ``kerrstokes.pulse``."""

    def __init__(self, real, tracer, category):
        self._real = real
        self._tracer = tracer
        self._category = category

    def warn(self, message, category=None, stacklevel=1, source=None):
        if category is self._category:
            self._tracer.counts["pulse.approximation_warnings"] += 1
        self._real.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index, op, time covered by children].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._scan_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        is_scan = name == "optimize.scan_phase"
        is_spectrum = name == "spectra.spectrum"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, perf_counter(), 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            self._scan_depth += is_scan
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._scan_depth -= is_scan
                stack.pop()
                rec[2] = end
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if is_spectrum:
                self.counts["spectra.spectrum.points"] += result.omega.size
            return result

        return wrapper

    def _counter(self, name, fn, in_scan=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if in_scan and self._scan_depth:
                counts[in_scan] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, modules, original, replacement):
        for module in modules:
            names = [k for k, v in vars(module).items() if v is original]
            for attr in names:
                self._patches.append((module, attr, original))
                setattr(module, attr, replacement)

    def install(self):
        import kerrstokes.pulse
        from kerrstokes.errors import ApproximationWarning

        modules = [m for n, m in list(sys.modules.items())
                   if n == "kerrstokes" or n.startswith("kerrstokes.")]
        loaded = {n.split(".", 1)[1]: m for n, m in sys.modules.items()
                  if n.startswith("kerrstokes.")}
        for mod, func in SPANS:
            if mod in loaded:
                orig = getattr(loaded[mod], func)
                self._rebind(modules, orig, self._span(f"{mod}.{func}", orig))
        spectra = loaded["spectra"]
        for func in KERNELS:
            orig = getattr(spectra, func)
            self._rebind(modules, orig, self._counter(
                "spectra.kernel_build.calls", orig, "optimize.scan_kernel_builds"))
        orig = spectra.spectrum_value
        self._rebind(modules, orig, self._counter("spectra.spectrum_value.calls", orig))
        spec = kerrstokes.pulse.PulseSpec
        post_init = spec.__post_init__
        counts = self.counts

        def counted_post_init(pulse):
            counts["pulse.PulseSpec.constructions"] += 1
            post_init(pulse)

        self._patches.append((spec, "__post_init__", post_init))
        spec.__post_init__ = counted_post_init
        real = kerrstokes.pulse.warnings
        self._patches.append((kerrstokes.pulse, "warnings", real))
        kerrstokes.pulse.warnings = _CountingWarnings(real, self, ApproximationWarning)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op span and counter totals over the traced ops."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for name, start, end, _, op, children in self.spans:
            key = name if op is not None else f"setup:{name}"
            calls[key] += 1
            self_s[key] += (end - start) - children
        for group, members in GROUPS.items():
            module = group.split(".")[0]
            calls[group] = sum(calls[f"{module}.{m}"] for m in members)
            self_s[group] = sum(self_s[f"{module}.{m}"] for m in members)
        out = {}
        for name in LAYER_METRICS:
            base = name.rsplit(".", 1)[0]
            if name.startswith(("import.", "trace.")):
                continue
            if name in COUNTERS:
                out[name] = self.counts[name] / ops
            elif name == "figures.figure_preset.self_s":
                out[name] = self_s["setup:figures.figure_preset"]
            elif name == "optimize.kernel_builds_per_scan":
                scans = calls["optimize.scan_phase"]
                out[name] = self.counts["optimize.scan_kernel_builds"] / scans if scans else 0.0
            elif name.endswith(".calls"):
                out[name] = calls[base] / ops
            else:
                out[name] = self_s[base] / ops
        return out

    def dump(self, path):
        """Write the spans and counters as JSON."""
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op, _ in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="ascii") as handle:
            json.dump(doc, handle)


def import_times(src_dir) -> dict[str, float]:
    """Import cost of kerrstokes, numpy and scipy from ``python -X importtime``.

    import.kerrstokes_s is the cumulative time of ``import kerrstokes``;
    the numpy and scipy figures sum the self time of every module of
    those packages.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import kerrstokes"],
        env={**os.environ, "PYTHONPATH": str(src_dir)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    totals = {"import.kerrstokes_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m[1]), int(m[2]), m[4]
        if name == "kerrstokes":
            totals["import.kerrstokes_s"] = cumulative_us * 1e-6
        for pkg in ("scipy", "numpy"):
            if name == pkg or name.startswith(pkg + "."):
                totals[f"import.{pkg}_s"] += self_us * 1e-6
    return totals
