"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Each workload has ``setup(seed, out_dir) -> items`` (imports kerrstokes and
builds the inputs; this is what ``setup_s`` times), ``op(item)`` (the timed
call into kerrstokes) and ``check(slot, item, output, perturb=False)``,
which returns a list of problems.  With ``perturb`` the check first moves
one output by :data:`PERTURBATION`; the run uses that as a negative
control and requires the check to reject it.

kerrstokes functions are looked up on their modules at call time, so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import refmodel as ref

# Outputs against the reference model, relative to the size of the terms.
REL_TOL = 1e-12
# Scan against closed form, the agreement the optimizer itself promises.
AGREEMENT_TOL = 1e-9
# Closed-form phase against the reference model, in radians.
PHASE_TOL = 1e-9
PERTURBATION = 1e-9
TWO_PI = 2.0 * math.pi


class OpFailed(Exception):
    """The program reported failure for one op (a non-zero exit code)."""


def spectrum_problems(sc, grid, omega, values, normalized, intensity, perturb=False):
    """S and S* on the grid against the reference model at the phases of ``sc``."""
    if omega.shape != grid.shape or not np.array_equal(omega, grid):
        return ["omega column is not the requested grid"]
    if values.shape != grid.shape or normalized.shape != grid.shape:
        return ["spectrum columns do not match the grid length"]
    if perturb:
        values = values.copy()
        values[-1] += PERTURBATION
    problems = []
    a, b = ref.coefficients(sc)
    want = ref.spectrum(a, b, grid)
    scale = ref.spectrum_scale(a, b, grid)
    worst = float(np.max(np.abs(values - want) / scale))
    if not worst <= REL_TOL:
        problems.append(f"S(Omega) is off the reference by {worst:.3g} of its scale")
    want_intensity = ref.reference_intensity(sc)
    if not abs(intensity - want_intensity) <= REL_TOL * want_intensity:
        problems.append(f"reference intensity {intensity!r}, expected {want_intensity!r}")
    worst = float(np.max(np.abs(normalized - (want - 1.0) / want_intensity) * want_intensity / scale))
    if not worst <= REL_TOL:
        problems.append(f"s_star is off (S - 1) / reference by {worst:.3g} of its scale")
    return problems


def stokes_problems(sc, summary):
    """Mean Stokes parameters, radius and degree of polarization."""
    want = ref.mean_stokes(sc)
    scale = 1.0 + sum(abs(x) for x in want)
    got = [summary[k] for k in ("s0", "s1", "s2", "s3")]
    problems = [
        f"{k} = {g!r}, expected {w!r}"
        for k, g, w in zip(("s0", "s1", "s2", "s3"), got, want)
        if not abs(g - w) <= REL_TOL * scale
    ]
    radius = math.sqrt(want[1] ** 2 + want[2] ** 2 + want[3] ** 2)
    if not abs(summary["poincare_radius"] - radius) <= REL_TOL * scale:
        problems.append(f"poincare_radius = {summary['poincare_radius']!r}, expected {radius!r}")
    dop = summary["degree_of_polarization"]
    if want[0] > 0.0 and not (dop is not None and abs(dop - radius / want[0]) <= REL_TOL * scale / want[0]):
        problems.append(f"degree_of_polarization = {dop!r}, expected {radius / want[0]!r}")
    return problems


# --------------------------------------------------------------------------
# optimize-sweep: in-process kerrstokes.run() with omega0 set.

PRESET_IDS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12)
DRAWS_PER_FAMILY = 4


def to_reference(config) -> ref.Scenario:
    pulses = tuple(
        ref.Pulse(p.n0, p.gamma, p.gamma_x, p.phi_lin, p.envelope.shape.value, p.envelope.tau_p)
        for p in config.pulses
    )
    bs = config.beamsplitter
    return ref.Scenario(
        config.kind.value, config.stokes_index.value, pulses, config.analysis_time,
        bs.r if bs is not None else None, config.omega0, config.normalization,
    )


def sweep_draws(ks, rng):
    """Seeded members of the figure families, S3 and S1 variants included."""
    pulse, kinds, index = ks.PulseSpec, ks.ScenarioKind, ks.StokesIndex
    grid, medium = ks.OmegaGrid(0.0, 5.0, 512), ks.RelaxationKernel(1.0)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def config(kind, pulses, stokes, omega0, bs=None):
        return ks.ScenarioConfig(
            kind=kind, pulses=pulses, medium=medium, stokes_index=stokes,
            omega_grid=grid, beamsplitter=bs, omega0=omega0,
        )

    half = ks.BeamSplitter(0.5, 0.5)
    out = []
    for i in range(DRAWS_PER_FAMILY):
        s23 = (index.S2, index.S3)[i % 2]
        out.append(config(kinds.COH_SQ, (
            pulse(u(0.5, 2.0), phi_lin=u(0.0, TWO_PI)),
            pulse(100.0, gamma=u(0.5, 3.0) / 200.0),
        ), s23, u(0.0, 1.5)))
        out.append(config(kinds.TWO_SQ, (
            pulse(100.0, gamma=0.01, phi_lin=u(0.0, TWO_PI)),
            pulse(100.0 * u(1.0, 7.0), gamma=0.005),
        ), s23, u(0.0, 1.5)))
        out.append(config(kinds.XPM, (
            pulse(100.0, gamma=0.01, gamma_x=0.005),
            pulse(100.0 * u(0.25, 3.0), gamma=0.04, gamma_x=0.005),
        ), s23, u(0.0, 1.5)))
        out.append(config(kinds.XPM, (
            pulse(100.0, gamma=0.01, gamma_x=0.005),
            pulse(100.0, gamma=0.01 * u(2.0, 7.0), gamma_x=0.005),
        ), s23, u(0.0, 1.5)))
        # Beam splitter S0/S1 at gamma = 0.45; redraw until the closed-form
        # vertex is well inside the arccos domain.
        s01 = (index.S0, index.S1)[i % 2]
        while True:
            candidate = config(kinds.BS_INTERF, (
                pulse(1.0, gamma=0.45), pulse(u(1.2, 2.2), gamma=0.45), pulse(0.0),
            ), s01, u(0.0, 1.0), half)
            vertex = ref.s01_vertex(to_reference(candidate))
            if abs(vertex) <= 0.95:
                out.append(candidate)
                break
        base = u(0.0, TWO_PI)
        gamma = u(0.5, 1.25) / 200.0
        out.append(config(kinds.BS_INTERF, (
            pulse(100.0, gamma=gamma, phi_lin=base + 0.5 * math.pi),
            pulse(100.0, gamma=gamma, phi_lin=base),
            pulse(100.0, phi_lin=u(0.0, TWO_PI)),
        ), s23, u(0.0, 1.0), half))
    return out


class OptimizeSweep:
    name = "optimize-sweep"

    def setup(self, seed, out_dir):
        import kerrstokes
        import kerrstokes.figures

        self.ks = kerrstokes
        configs = [c for fid in PRESET_IDS for c in kerrstokes.figures.figure_preset(fid).configs]
        configs += sweep_draws(kerrstokes, np.random.default_rng(seed))
        return [(c, to_reference(c)) for c in configs]

    def op(self, item):
        return self.ks.run(item[0])

    def check(self, slot, item, result, perturb=False):
        config, sc = item
        opt = result.optimum
        if opt is None:
            return ["no phase optimum returned"]
        problems = []
        delta, s_min, scale = ref.closed_optimum(sc)
        if not abs(opt.s_min_closed - s_min) <= REL_TOL * scale:
            problems.append(f"s_min_closed = {opt.s_min_closed!r}, reference {s_min!r}")
        if sc.kind == "bs_interf" and sc.index in ("S2", "S3"):
            # The closed form is a stationary point here, not always the
            # minimum: the scan may go lower, never higher.
            if not opt.s_min_numeric <= s_min + AGREEMENT_TOL:
                problems.append(f"scan minimum {opt.s_min_numeric!r} above closed {s_min!r}")
        elif opt.flags:
            problems.append(f"unexpected optimizer flags {opt.flags}")
        elif not abs(opt.s_min_numeric - s_min) <= AGREEMENT_TOL:
            problems.append(f"s_min_numeric = {opt.s_min_numeric!r}, reference {s_min!r}")
        if math.isnan(delta) != math.isnan(opt.delta_phi_opt) or abs(opt.delta_phi_opt - delta) > PHASE_TOL:
            problems.append(f"delta_phi_opt = {opt.delta_phi_opt!r}, reference {delta!r}")
        applied = opt.delta_phi_opt if math.isfinite(opt.delta_phi_opt) else opt.delta_phi_numeric
        at_phase = ref.with_offset(sc, applied)
        g = config.omega_grid
        series = result.spectrum
        problems += spectrum_problems(
            at_phase, np.linspace(g.start, g.stop, g.count), series.omega, series.values,
            series.normalized, series.reference_intensity, perturb,
        )
        problems += stokes_problems(at_phase, asdict(result.summary))
        return problems


# --------------------------------------------------------------------------
# spectrum-export: in-process ``kerrstokes run`` on generated INI configs.

EXPORT_SLOTS = (
    ("coh_sq", "csv"), ("two_sq", "json"), ("xpm", "csv"), ("bs_interf", "json"),
    ("coh_sq", "json"), ("two_sq", "csv"), ("xpm", "json"), ("bs_interf", "csv"),
)
# Grid sizes at which a CSV and a JSON export cost about the same, so the
# op-time distribution has no gap at its median.
EXPORT_POINTS = {"csv": 120_000, "json": 80_000}


@dataclass(frozen=True)
class ExportItem:
    config: Path
    out: Path
    fmt: str
    grid: tuple[float, float, int]
    scenario: ref.Scenario


def export_scenario(kind, slot, rng):
    """Draw one scenario for an export slot; no omega0, so no scan runs."""

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    shape = ("constant", "gaussian", "sech")[int(rng.integers(0, 3))]
    tau_p = None if shape == "constant" else u(2.0, 8.0)

    def pulse(n_lo, n_hi, kerr=True, cross=False):
        return ref.Pulse(
            u(n_lo, n_hi), u(0.001, 0.01) if kerr else 0.0,
            u(0.0005, 0.005) if cross else 0.0, u(0.0, TWO_PI), shape, tau_p,
        )

    normalization = u(1.0, 100.0) if rng.random() < 0.5 else None
    t = u(-1.0, 1.0)
    if kind == "coh_sq":
        pulses, r = (pulse(0.5, 5.0, kerr=False), pulse(20.0, 300.0)), None
    elif kind == "two_sq":
        pulses, r = (pulse(20.0, 300.0), pulse(20.0, 300.0)), None
    elif kind == "xpm":
        pulses, r = (pulse(20.0, 300.0, cross=True), pulse(20.0, 300.0, cross=True)), None
    else:
        pulses, r = (pulse(20.0, 200.0), pulse(20.0, 200.0), pulse(20.0, 200.0, kerr=False)), u(0.2, 0.8)
    if kind == "bs_interf":
        index = (("S0", "S1"), ("S2", "S3"))[slot // 4][int(rng.integers(0, 2))]
    else:
        index = ("S2", "S3")[int(rng.integers(0, 2))]
    return ref.Scenario(kind, index, pulses, t, r, None, normalization)


def config_text(sc: ref.Scenario, grid, tau_r) -> str:
    lines = [
        "[scenario]", f"kind = {sc.kind}", f"stokes_index = {sc.index}",
        f"analysis_time = {sc.t!r}",
    ]
    if sc.normalization is not None:
        lines.append(f"normalization = {sc.normalization!r}")
    lines += ["", "[medium]", f"tau_r = {tau_r!r}", "", "[grid]",
              f"start = {grid[0]!r}", f"stop = {grid[1]!r}", f"count = {grid[2]}"]
    for i, p in enumerate(sc.pulses, start=1):
        lines += ["", f"[pulse{i}]", f"n0 = {p.n0!r}", f"envelope = {p.shape}"]
        if p.tau_p is not None:
            lines.append(f"tau_p = {p.tau_p!r}")
        lines += [f"gamma = {p.gamma!r}", f"phi_lin = {p.phi_lin!r}"]
        if p.gamma_x:
            lines.append(f"gamma_x = {p.gamma_x!r}")
    if sc.r is not None:
        lines += ["", "[beamsplitter]", f"r = {sc.r!r}", f"t = {1.0 - sc.r!r}"]
    return "\n".join(lines) + "\n"


class SpectrumExport:
    name = "spectrum-export"

    def setup(self, seed, out_dir):
        import kerrstokes.cli

        self.cli = kerrstokes.cli
        self.digests = {}
        work = Path(out_dir) / self.name
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        items = []
        for slot, (kind, fmt) in enumerate(EXPORT_SLOTS):
            sc = export_scenario(kind, slot, rng)
            grid = (float(rng.uniform(0.0, 0.5)), float(rng.uniform(4.0, 10.0)), EXPORT_POINTS[fmt])
            path = work / f"config-{slot}.ini"
            path.write_text(config_text(sc, grid, float(rng.uniform(0.5, 2.0))), encoding="ascii")
            items.append(ExportItem(path, work / f"export.{fmt}", fmt, grid, sc))
        return items

    def op(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(
                ["run", "--config", str(item.config), "--format", item.fmt, "--out", str(item.out)]
            )
        if code != 0:
            raise OpFailed(f"kerrstokes run exited with {code}")
        return buf.getvalue()

    def output_path(self, item):
        return item.out

    def check(self, slot, item, stdout, perturb=False):
        sc = item.scenario
        data = item.out.read_bytes()
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(slot, digest) != digest:
            problems.append("a repeat export is not byte-identical to the first")
        bundle = json.loads(stdout.strip().splitlines()[-1])
        if item.fmt == "csv":
            header, _, body = data.partition(b"\n")
            if header != b"omega,s_value,s_star":
                problems.append(f"CSV header {header[:40]!r}")
            omega, values, star = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2).T
        else:
            doc = json.loads(data)
            spec = doc["spectrum"]
            omega, values, star = (np.array(spec[k], dtype=float) for k in ("omega", "s_value", "s_star"))
            problems += self._header_problems(doc, sc, "document")
        problems += self._header_problems(bundle, sc, "bundle")
        if bundle["points"] != item.grid[2]:
            problems.append(f"bundle reports {bundle['points']} points, asked for {item.grid[2]}")
        problems += spectrum_problems(
            sc, np.linspace(*item.grid), omega, values, star, bundle["reference_intensity"], perturb,
        )
        return problems

    @staticmethod
    def _header_problems(doc, sc, what):
        problems = [f"{what}: {k} = {doc[k]!r}, expected {v!r}"
                    for k, v in (("kind", sc.kind), ("stokes_index", sc.index), ("optimum", None))
                    if doc[k] != v]
        return problems + [f"{what}: {p}" for p in stokes_problems(sc, doc["summary"])]


# --------------------------------------------------------------------------
# self-check: in-process ``kerrstokes verify``.

VERIFY_CHECKS = 30


class SelfCheck:
    name = "self-check"

    def setup(self, seed, out_dir):
        import kerrstokes.cli

        self.cli = kerrstokes.cli
        work = Path(out_dir) / self.name
        work.mkdir(parents=True, exist_ok=True)
        # verify draws from its own fixed seed; the benchmark seed names the report.
        return [work / f"verify-{seed}.json"]

    def op(self, path):
        code = self.cli.main(["verify", "--out", str(path)])
        if code not in (0, 4):
            raise OpFailed(f"kerrstokes verify exited with {code}")
        return code

    def output_path(self, path):
        return path

    def check(self, slot, path, code, perturb=False):
        report = json.loads(path.read_text(encoding="ascii"))
        checks = report["checks"]
        if perturb:
            checks[0]["passed"] = False
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if report["check_count"] != VERIFY_CHECKS or len(checks) != VERIFY_CHECKS:
            problems.append(f"{report['check_count']} checks reported, expected {VERIFY_CHECKS}")
        failed = [c["name"] for c in checks if not c["passed"]]
        if failed or report["failed"] or not report["passed"]:
            problems.append(f"failed checks: {failed or report['failed']}")
        return problems


WORKLOADS = {w.name: w for w in (OptimizeSweep, SpectrumExport, SelfCheck)}
