"""System and simulation configurations reproducing Table 1 of the paper.

Three systems are modelled:

* **LUMI-G** — HPE/Cray EX blades: 1x 64-core AMD EPYC 7A53 (512 GB), 4x AMD
  MI250X cards = 8 GCDs per node (one MPI rank drives one GCD), Slingshot-11
  fabric, HPE/Cray ``pm_counters`` telemetry with a *memory* power sensor,
  GPU frequency **not** user controllable.
* **CSCS-A100** — 1x 64-core AMD EPYC 7713, 4x NVIDIA A100-SXM4-80GB per
  node, NVML telemetry (no separate memory sensor), GPU frequency **not**
  user controllable.
* **miniHPC** — 2x 28-core Intel Xeon Gold 6258R (modelled as one combined
  CPU complex, 1.5 TB), 2x NVIDIA A100-PCIE-40GB per node, NVML telemetry,
  GPU frequency user controllable (the frequency-sweep system of Figures
  4/5).

Power-model coefficients are calibrated from public TDP/idle figures for
these parts; they are documented inline and summarized in EXPERIMENTS.md.
The *shape* of every experiment (who wins, crossovers) depends on the
structure of the model rather than the exact coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.cluster import NetworkModel
from repro.hardware.node import NodeSpec
from repro.hardware.power_model import PowerModel
from repro.hardware.specs import CpuSpec, GpuSpec, MemorySpec, NicSpec
from repro.units import ghz, mhz

# ---------------------------------------------------------------------------
# GPU specifications
# ---------------------------------------------------------------------------

#: AMD MI250X, one GCD (the unit an MPI rank drives).  Full-card TDP 560 W
#: and ~90 W idle split across two GCDs plus card overhead; peak FP64 vector
#: 23.95 TFLOP/s and 1.6 TB/s HBM2e per GCD.
MI250X_GCD = GpuSpec(
    model="AMD MI250X (GCD)",
    vendor="amd",
    memory_gib=64.0,
    nominal_freq_hz=mhz(1700),
    memory_freq_hz=mhz(1600),
    supported_freqs_hz=tuple(
        mhz(f) for f in (800, 900, 1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700)
    ),
    peak_flops=23.95e12,
    peak_bandwidth=1.6e12,
    power_model=PowerModel(
        static_watts=16.0,
        clock_watts=42.0,
        compute_watts=160.0,
        memory_watts=62.0,
        alpha=3.0,
    ),
    gcds_per_card=2,
)

#: Discrete frequencies used by the miniHPC sweep (paper Figures 4 and 5:
#: 1410 MHz baseline down to 1005 MHz).
A100_SWEEP_FREQS_MHZ = (1410, 1365, 1320, 1275, 1230, 1185, 1140, 1095, 1050, 1005)

_A100_SUPPORTED = tuple(mhz(f) for f in A100_SWEEP_FREQS_MHZ + (960, 900, 800, 700))

#: NVIDIA A100-SXM4-80GB: 400 W TDP, ~60 W idle, 9.7 TFLOP/s FP64 vector,
#: 2.04 TB/s HBM2e.
A100_SXM4_80GB = GpuSpec(
    model="NVIDIA A100-SXM4-80GB",
    vendor="nvidia",
    memory_gib=80.0,
    nominal_freq_hz=mhz(1410),
    memory_freq_hz=mhz(1593),
    supported_freqs_hz=_A100_SUPPORTED,
    peak_flops=9.7e12,
    peak_bandwidth=2.04e12,
    power_model=PowerModel(
        static_watts=20.0,
        clock_watts=42.0,
        compute_watts=255.0,
        memory_watts=83.0,
        alpha=3.0,
    ),
    gcds_per_card=1,
)

#: NVIDIA A100-PCIE-40GB: 250 W TDP, ~55 W idle, 9.7 TFLOP/s FP64,
#: 1.56 TB/s HBM2.
A100_PCIE_40GB = GpuSpec(
    model="NVIDIA A100-PCIE-40GB",
    vendor="nvidia",
    memory_gib=40.0,
    nominal_freq_hz=mhz(1410),
    memory_freq_hz=mhz(1593),
    supported_freqs_hz=_A100_SUPPORTED,
    peak_flops=9.7e12,
    peak_bandwidth=1.555e12,
    power_model=PowerModel(
        static_watts=17.0,
        clock_watts=39.0,
        compute_watts=142.0,
        memory_watts=52.0,
        alpha=3.0,
    ),
    gcds_per_card=1,
)

# ---------------------------------------------------------------------------
# CPU / memory / NIC specifications
# ---------------------------------------------------------------------------

#: AMD EPYC 7A53 "Trento" (LUMI-G host CPU): 64 cores, 280 W TDP.
EPYC_7A53 = CpuSpec(
    model="AMD EPYC 7A53",
    cores=64,
    nominal_freq_hz=ghz(2.0),
    peak_flops=2.0e12,
    power_model=PowerModel(
        static_watts=58.0, clock_watts=32.0, compute_watts=150.0, memory_watts=40.0
    ),
)

#: AMD EPYC 7713 (CSCS-A100 host CPU; Table 1 prints "7113"): 64 cores, 225 W.
EPYC_7713 = CpuSpec(
    model="AMD EPYC 7713",
    cores=64,
    nominal_freq_hz=ghz(2.0),
    peak_flops=2.0e12,
    power_model=PowerModel(
        static_watts=52.0, clock_watts=28.0, compute_watts=110.0, memory_watts=35.0
    ),
)

#: 2x Intel Xeon Gold 6258R modelled as one combined complex: 56 cores,
#: 2 x 205 W TDP.
XEON_6258R_DUAL = CpuSpec(
    model="2x Intel Xeon Gold 6258R",
    cores=56,
    nominal_freq_hz=ghz(2.7),
    peak_flops=4.8e12,
    power_model=PowerModel(
        static_watts=96.0, clock_watts=54.0, compute_watts=200.0, memory_watts=60.0
    ),
)

MEMORY_512GB = MemorySpec(
    capacity_gib=512.0,
    peak_bandwidth=400e9,
    power_model=PowerModel(
        static_watts=34.0, clock_watts=6.0, compute_watts=0.0, memory_watts=70.0
    ),
)

MEMORY_1_5TB = MemorySpec(
    capacity_gib=1536.0,
    peak_bandwidth=280e9,
    power_model=PowerModel(
        static_watts=44.0, clock_watts=6.0, compute_watts=0.0, memory_watts=58.0
    ),
)

SLINGSHOT_NIC = NicSpec(
    model="HPE Slingshot-11",
    bandwidth_bytes_per_s=25e9,
    latency_s=1.8e-6,
    power_model=PowerModel(
        static_watts=14.0, clock_watts=2.0, compute_watts=0.0, memory_watts=12.0
    ),
)

HDR_NIC = NicSpec(
    model="Mellanox HDR-200",
    bandwidth_bytes_per_s=25e9,
    latency_s=1.5e-6,
    power_model=PowerModel(
        static_watts=12.0, clock_watts=2.0, compute_watts=0.0, memory_watts=10.0
    ),
)

EDR_NIC = NicSpec(
    model="Mellanox EDR-100",
    bandwidth_bytes_per_s=12.5e9,
    latency_s=1.6e-6,
    power_model=PowerModel(
        static_watts=10.0, clock_watts=2.0, compute_watts=0.0, memory_watts=8.0
    ),
)

# ---------------------------------------------------------------------------
# System configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlurmTimingModel:
    """How long the non-application phases of a job take on a system.

    These phases are what Slurm's energy accounting sees but PMT (which
    starts at the first time-step) does not — the source of the Figure 1
    validation gap.  Times grow with node count: launching and wiring up
    more ranks takes longer.
    """

    #: Fixed prolog + srun launch time in seconds.
    launch_base_s: float
    #: Additional launch seconds per node.
    launch_per_node_s: float
    #: Application init (IC generation, allocation, host-to-device copy)
    #: in seconds per (million particles per rank).
    init_s_per_mparticle: float
    #: Fixed application init overhead in seconds.
    init_base_s: float
    #: Job epilog / teardown seconds.
    teardown_s: float


@dataclass(frozen=True)
class SystemConfig:
    """One of the paper's three systems."""

    name: str
    node_spec: NodeSpec
    network: NetworkModel
    pmt_backend: str
    has_memory_sensor: bool
    slurm_timing: SlurmTimingModel
    max_nodes: int

    def __post_init__(self) -> None:
        if self.pmt_backend not in ("cray", "nvml", "rocm", "rapl", "dummy"):
            raise ConfigurationError(
                f"unknown PMT backend {self.pmt_backend!r} for {self.name!r}"
            )
        if self.max_nodes <= 0:
            raise ConfigurationError("max_nodes must be positive")

    @property
    def ranks_per_node(self) -> int:
        """One MPI rank per schedulable GPU unit."""
        return self.node_spec.num_gpu_units

    @property
    def cards_per_node(self) -> int:
        """Physical GPU cards per node (power-sensor granularity)."""
        return self.node_spec.num_cards

    def nodes_for_cards(self, num_cards: int) -> int:
        """Nodes needed to provide ``num_cards`` GPU cards."""
        per_node = self.cards_per_node
        if num_cards <= 0 or num_cards % per_node:
            raise ConfigurationError(
                f"{self.name}: card count {num_cards} is not a multiple of "
                f"{per_node} cards/node"
            )
        nodes = num_cards // per_node
        if nodes > self.max_nodes:
            raise ConfigurationError(
                f"{self.name}: {num_cards} cards needs {nodes} nodes, "
                f"max is {self.max_nodes}"
            )
        return nodes


LUMI_G = SystemConfig(
    name="LUMI-G",
    node_spec=NodeSpec(
        cpu=EPYC_7A53,
        gpu=MI250X_GCD,
        num_gpu_units=8,
        memory=MEMORY_512GB,
        nic=SLINGSHOT_NIC,
        aux_watts=330.0,
        card_overhead_watts=16.0,
        gpu_freq_user_controllable=False,
    ),
    network=NetworkModel(
        latency_s=1.8e-6, bandwidth_bytes_per_s=25e9, intra_node_factor=6.0
    ),
    pmt_backend="cray",
    has_memory_sensor=True,
    slurm_timing=SlurmTimingModel(
        launch_base_s=62.0,
        launch_per_node_s=3.4,
        init_s_per_mparticle=0.85,
        init_base_s=18.0,
        teardown_s=12.0,
    ),
    max_nodes=1024,
)

CSCS_A100 = SystemConfig(
    name="CSCS-A100",
    node_spec=NodeSpec(
        cpu=EPYC_7713,
        gpu=A100_SXM4_80GB,
        num_gpu_units=4,
        memory=MEMORY_512GB,
        nic=HDR_NIC,
        aux_watts=245.0,
        card_overhead_watts=0.0,
        gpu_freq_user_controllable=False,
    ),
    network=NetworkModel(
        latency_s=1.5e-6, bandwidth_bytes_per_s=25e9, intra_node_factor=5.0
    ),
    pmt_backend="nvml",
    has_memory_sensor=False,
    slurm_timing=SlurmTimingModel(
        launch_base_s=17.0,
        launch_per_node_s=1.2,
        init_s_per_mparticle=0.30,
        init_base_s=9.0,
        teardown_s=6.0,
    ),
    max_nodes=128,
)

MINIHPC = SystemConfig(
    name="miniHPC",
    node_spec=NodeSpec(
        cpu=XEON_6258R_DUAL,
        gpu=A100_PCIE_40GB,
        num_gpu_units=2,
        memory=MEMORY_1_5TB,
        nic=EDR_NIC,
        aux_watts=170.0,
        card_overhead_watts=0.0,
        gpu_freq_user_controllable=True,
    ),
    network=NetworkModel(
        latency_s=1.6e-6, bandwidth_bytes_per_s=12.5e9, intra_node_factor=3.0
    ),
    pmt_backend="nvml",
    has_memory_sensor=False,
    slurm_timing=SlurmTimingModel(
        launch_base_s=8.0,
        launch_per_node_s=0.8,
        init_s_per_mparticle=0.34,
        init_base_s=5.0,
        teardown_s=4.0,
    ),
    max_nodes=1,
)

SYSTEMS: dict[str, SystemConfig] = {
    s.name: s for s in (LUMI_G, CSCS_A100, MINIHPC)
}


def get_system(name: str) -> SystemConfig:
    """Look up a system configuration by its Table 1 name."""
    try:
        return SYSTEMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None


# ---------------------------------------------------------------------------
# Simulation (test-case) configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestCaseConfig:
    """One of the paper's two production test cases."""

    name: str
    #: Particles per GPU unit (per MPI rank) in the paper-scale runs.
    particles_per_gpu: float
    #: Number of time-steps (``-s 100`` in Table 1).
    num_steps: int
    #: Whether the case needs self-gravity (Evrard) or driving (turbulence).
    has_gravity: bool
    has_driving: bool
    #: Table 1 global particle counts in billions (for reference/reporting).
    global_particles_billions: tuple[float, ...] = ()


SUBSONIC_TURBULENCE = TestCaseConfig(
    name="Subsonic Turbulence",
    particles_per_gpu=150e6,
    num_steps=100,
    has_gravity=False,
    has_driving=True,
    global_particles_billions=(0.6, 1.2, 2.4, 7.4, 9.2, 14.7),
)

EVRARD_COLLAPSE = TestCaseConfig(
    name="Evrard Collapse",
    particles_per_gpu=80e6,
    num_steps=100,
    has_gravity=True,
    has_driving=False,
    global_particles_billions=(0.6, 1.2, 2.4, 3.2, 4.8, 7.7),
)

#: Pure-hydro blast demo case used by the observability commands
#: (``export-trace`` / ``watch``).  Not part of Table 1 — the paper's
#: production cases stay the only entries in :data:`TEST_CASES`.
SEDOV_BLAST = TestCaseConfig(
    name="Sedov Blast",
    particles_per_gpu=125e6,
    num_steps=100,
    has_gravity=False,
    has_driving=False,
    global_particles_billions=(1.0, 2.0, 4.0),
)

TEST_CASES: dict[str, TestCaseConfig] = {
    c.name: c for c in (SUBSONIC_TURBULENCE, EVRARD_COLLAPSE)
}

#: Cases the observability commands accept: the paper cases plus Sedov.
OBSERVABILITY_CASES: dict[str, TestCaseConfig] = {
    **TEST_CASES,
    SEDOV_BLAST.name: SEDOV_BLAST,
}


# ---------------------------------------------------------------------------
# Campaign execution settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSettings:
    """Execution defaults of the campaign engine (``repro campaign``).

    These are deliberately *cosmetic* with respect to results: none of
    them enters the content-addressed run identity, so changing the
    cache location, the worker count, or any federation tunable can
    never invalidate (or corrupt) a cached result.  Environment
    overrides: ``REPRO_CACHE_DIR``, ``REPRO_CAMPAIGN_WORKERS``,
    ``REPRO_LEASE_TTL_S``, ``REPRO_MAX_ATTEMPTS``, and
    ``REPRO_WORKER_SYSTEMS`` (comma-separated system names this worker
    prefers to execute, for federated placement).
    """

    #: Root directory of the content-addressed result cache.
    cache_dir: str = ".repro-cache"
    #: Local lease-queue workers draining cache misses; 1 is the serial
    #: reference path (bit-identical to any parallel drain by construction).
    workers: int = 1
    #: Federated lease time-to-live: a lease whose heartbeat is older
    #: than this is considered abandoned and may be stolen.
    lease_ttl_s: float = 30.0
    #: Failed attempts per key before it is quarantined as poisoned.
    max_attempts: int = 3
    #: System names this worker advertises as preferred (federated
    #: placement); empty means no preference.
    worker_systems: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("campaign workers must be >= 1")
        if not self.cache_dir:
            raise ConfigurationError("campaign cache_dir must be non-empty")
        if self.lease_ttl_s <= 0:
            raise ConfigurationError("campaign lease_ttl_s must be > 0")
        if self.max_attempts < 1:
            raise ConfigurationError("campaign max_attempts must be >= 1")

    def federation(self):
        """The :class:`~repro.campaign.queue.FederationConfig` view."""
        from repro.campaign.queue import FederationConfig

        return FederationConfig(
            lease_ttl_s=self.lease_ttl_s,
            heartbeat_s=min(
                FederationConfig.heartbeat_s, self.lease_ttl_s / 3.0
            ),
            max_attempts=self.max_attempts,
        )

    @classmethod
    def from_env(cls) -> "CampaignSettings":
        """Settings with environment overrides applied."""
        import os

        def _number(name, default, parse):
            text = os.environ.get(name, "")
            if not text:
                return default
            try:
                return parse(text)
            except ValueError:
                raise ConfigurationError(
                    f"{name}={text!r} is not a number"
                ) from None

        systems_text = os.environ.get("REPRO_WORKER_SYSTEMS", "")
        worker_systems = tuple(
            name.strip() for name in systems_text.split(",") if name.strip()
        )
        return cls(
            cache_dir=os.environ.get("REPRO_CACHE_DIR", cls.cache_dir),
            workers=_number("REPRO_CAMPAIGN_WORKERS", cls.workers, int),
            lease_ttl_s=_number("REPRO_LEASE_TTL_S", cls.lease_ttl_s, float),
            max_attempts=_number("REPRO_MAX_ATTEMPTS", cls.max_attempts, int),
            worker_systems=worker_systems,
        )


#: Built-in campaign defaults (no environment applied).
DEFAULT_CAMPAIGN = CampaignSettings()

#: The online DVFS governor's policies (``repro.tuning.governor``): the
#: ``--governor`` choices and the values a campaign ``RunKey`` accepts.
#: Declared here so the CLI can offer them without importing the tuning
#: stack.
GOVERNOR_POLICIES = ("min-energy", "min-edp", "power-cap")
