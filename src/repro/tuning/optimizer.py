"""End-to-end per-function DVFS tuning: the offline oracle.

The workflow the paper's conclusion sketches, made concrete:

1. **Sweep** — run the instrumented application at each available static
   frequency and gather per-function time/energy (exactly the Figure 5
   data).
2. **Decide** — build the per-function clock table (min-EDP or
   energy-under-slowdown-constraint).
3. **Apply** — re-run with the table through
   :func:`~repro.experiments.runner.run_scaled_experiment`, inside the
   same Slurm job lifecycle as the static baselines, and measure the
   outcome with the same PMT instrumentation.
4. **Report** — savings against the nominal clock and against the best
   *static* frequency, i.e. whether per-function switching beats anything
   a whole-run setting could achieve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.aggregate import function_seconds, function_totals
from repro.analysis.edp import run_edp
from repro.config import SystemConfig, TestCaseConfig
from repro.errors import ConfigurationError
from repro.experiments.runner import run_scaled_experiment
from repro.instrumentation.records import RunMeasurements


@dataclass(frozen=True)
class FunctionSweepPoint:
    """One function's measurements at one frequency."""

    function: str
    freq_mhz: float
    seconds: float
    joules: float

    @property
    def edp(self) -> float:
        return self.joules * self.seconds


def build_oracle_policy(
    points: list[FunctionSweepPoint],
    baseline_mhz: float,
    objective: str = "edp",
    max_slowdown: float | None = None,
    tolerance: float = 0.0,
    min_function_seconds: float = 0.0,
) -> dict[str, float]:
    """Pick the best frequency per function from sweep measurements.

    Returns the clock table: function -> MHz.  A function left out of it
    keeps whatever clock is running when it starts.

    Parameters
    ----------
    points:
        Per-(function, frequency) measurements from the sweep.
    baseline_mhz:
        The nominal frequency (the reference for the slowdown
        constraint).
    objective:
        ``"edp"`` (default) or ``"energy"``.
    max_slowdown:
        If set, frequencies whose function time exceeds
        ``max_slowdown * t(baseline)`` are excluded — the
        performance-constrained energy minimization from the DVFS
        literature.
    tolerance:
        Among frequencies whose objective is within ``(1 + tolerance)`` of
        the best, prefer the *lowest* frequency.  Near-ties across
        functions then collapse onto common frequencies, which minimizes
        clock switches at function boundaries (each switch costs real
        time, see :mod:`repro.tuning.dynamic`) and hedges against sweep
        measurement noise on short functions.
    min_function_seconds:
        Functions whose *baseline* accumulated time is below this are left
        out of the table entirely (the run keeps the running clock for
        them): their sweep data is sensor-quantization noise and a 10 ms
        switch would dwarf any saving.
    """
    if objective not in ("edp", "energy"):
        raise ConfigurationError(f"unknown objective {objective!r}")
    if tolerance < 0:
        raise ConfigurationError("tolerance must be >= 0")
    by_function: dict[str, list[FunctionSweepPoint]] = {}
    for point in points:
        by_function.setdefault(point.function, []).append(point)

    table: dict[str, float] = {}
    for function, candidates in by_function.items():
        baseline = next(
            (p for p in candidates if p.freq_mhz == baseline_mhz), None
        )
        if baseline is None:
            raise ConfigurationError(
                f"sweep for {function!r} lacks the baseline frequency "
                f"{baseline_mhz} MHz"
            )
        if baseline.seconds < min_function_seconds:
            continue  # too short to earn a switch; inherit at run time
        feasible = [
            p
            for p in candidates
            if max_slowdown is None or p.seconds <= max_slowdown * baseline.seconds
        ]
        if not feasible:
            feasible = [baseline]
        key = (lambda p: p.edp) if objective == "edp" else (lambda p: p.joules)
        best_value = key(min(feasible, key=key))
        near_best = [
            p for p in feasible if key(p) <= (1.0 + tolerance) * best_value
        ]
        table[function] = min(near_best, key=lambda p: p.freq_mhz).freq_mhz
    return table


@dataclass(frozen=True)
class TuningReport:
    """Outcome of one tuning campaign."""

    #: Function -> MHz the dynamic run applied (mirrors
    #: :attr:`~repro.tuning.governor.GovernorReport.clock_table`).
    clock_table: dict[str, float]
    baseline_mhz: float
    baseline_edp: float
    baseline_seconds: float
    best_static_mhz: float
    best_static_edp: float
    dynamic_edp: float
    dynamic_seconds: float
    dynamic_run: RunMeasurements
    switch_count: int

    @property
    def edp_vs_baseline(self) -> float:
        """Dynamic EDP / nominal-clock EDP (< 1 means savings)."""
        if self.baseline_edp <= 0:
            raise ConfigurationError(
                f"baseline EDP is {self.baseline_edp!r}: the sweep measured "
                "no energy at the baseline frequency (degenerate run?)"
            )
        return self.dynamic_edp / self.baseline_edp

    @property
    def edp_vs_best_static(self) -> float:
        """Dynamic EDP / best static-frequency EDP."""
        if self.best_static_edp <= 0:
            raise ConfigurationError(
                f"best-static EDP is {self.best_static_edp!r}: the sweep "
                "measured no energy at the best static frequency "
                "(degenerate run?)"
            )
        return self.dynamic_edp / self.best_static_edp


def sweep_points(run: RunMeasurements) -> list[FunctionSweepPoint]:
    energy = function_totals(run, "gpu")
    seconds = function_seconds(run)
    return [
        FunctionSweepPoint(
            function=name,
            freq_mhz=run.gpu_freq_mhz,
            seconds=seconds[name],
            joules=energy[name],
        )
        for name in energy
    ]


def tune_per_function(
    system: SystemConfig,
    test_case: TestCaseConfig,
    num_cards: int,
    freqs_mhz: tuple[float, ...],
    num_steps: int,
    particles_per_rank: float,
    objective: str = "edp",
    max_slowdown: float | None = None,
    tolerance: float = 0.04,
    seed: int = 0,
) -> TuningReport:
    """The full sweep -> decide -> apply -> report loop."""
    baseline_mhz = max(freqs_mhz)
    points: list[FunctionSweepPoint] = []
    static_edp: dict[float, float] = {}
    baseline_seconds = 0.0
    for freq in freqs_mhz:
        result = run_scaled_experiment(
            system,
            test_case,
            num_cards,
            gpu_freq_mhz=freq,
            num_steps=num_steps,
            particles_per_rank=particles_per_rank,
            seed=seed,
        )
        points.extend(sweep_points(result.run))
        static_edp[freq] = run_edp(result.run)
        if freq == baseline_mhz:
            baseline_seconds = result.run.app_seconds

    clock_table = build_oracle_policy(
        points,
        baseline_mhz,
        objective=objective,
        max_slowdown=max_slowdown,
        tolerance=tolerance,
        # Functions shorter than 2 % of the run are switch-exempt: their
        # sweep data is quantization noise and switches cost real time.
        min_function_seconds=0.02 * baseline_seconds,
    )
    dynamic = run_scaled_experiment(
        system,
        test_case,
        num_cards,
        gpu_freq_mhz=baseline_mhz,
        num_steps=num_steps,
        particles_per_rank=particles_per_rank,
        seed=seed,
        governor=clock_table,
    )
    best_static_mhz = min(static_edp, key=static_edp.get)
    return TuningReport(
        clock_table=clock_table,
        baseline_mhz=baseline_mhz,
        baseline_edp=static_edp[baseline_mhz],
        baseline_seconds=baseline_seconds,
        best_static_mhz=best_static_mhz,
        best_static_edp=static_edp[best_static_mhz],
        dynamic_edp=run_edp(dynamic.run),
        dynamic_seconds=dynamic.run.app_seconds,
        dynamic_run=dynamic.run,
        switch_count=dynamic.governor.switches,
    )
