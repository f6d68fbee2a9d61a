"""Pipeline-level fault injection: break one sensor inside a live telemetry.

The wrappers in :mod:`repro.sensors.faults` operate on a single
sensor-shaped object.  This module applies them *inside* an assembled
:class:`~repro.sensors.telemetry.NodeTelemetry`, swapping the underlying
:class:`~repro.sensors.base.SampledEnergyCounter` of one named target for a
fault-wrapped one — every consumer path (virtual sysfs files, NVML-style
calls, Slurm accounting reads) then sees the fault, which is how the
fault-injection ablation exercises the full measurement stack end to end.

Targets are platform-relative:

* ``node`` — the node-level counter (pm_counters node file on Cray, the
  IPMI BMC elsewhere); this is also what Slurm accounting integrates;
* ``cpu`` — the CPU counter (pm_counters cpu file / RAPL package);
* ``memory`` — the memory counter (Cray only);
* ``gpu<K>`` — card ``K``'s counter (pm_counters ``accelK`` / NVML);
* ``rocm<K>`` — card ``K``'s ROCm hwmon register (Cray nodes only).

Injection mutates the telemetry in place and returns the fault wrapper so
tests can introspect it.  All faults are deterministic.
"""

from __future__ import annotations

from repro.errors import SensorError
from repro.sensors.faults import DropoutFault, FrozenCounterFault, GlitchFault
from repro.sensors.telemetry import NodeTelemetry

#: The supported failure modes, in the order the ablation reports them.
FAULT_KINDS = ("freeze", "dropout", "glitch")


def _resolve_setter(telemetry: NodeTelemetry, target: str):
    """Return ``(get_counter, set_counter)`` for a target name."""
    pm = telemetry.pm_counters
    if target.startswith("rocm"):
        index = int(target[len("rocm"):] or 0)
        if not telemetry.rocm or index >= len(telemetry.rocm):
            raise SensorError(f"no ROCm card {index} on {telemetry.node.name}")
        holder = telemetry.rocm[index]
        return (
            lambda: holder.counter,
            lambda c: setattr(holder, "counter", c),
        )
    if target.startswith("gpu"):
        index = int(target[len("gpu"):] or 0)
        if pm is not None:
            stem = f"accel{index}"
            if stem not in pm.counters:
                raise SensorError(
                    f"no accel counter {index} on {telemetry.node.name}"
                )
            return (
                lambda: pm.counters[stem],
                lambda c: pm.counters.__setitem__(stem, c),
            )
        if not telemetry.nvml or index >= len(telemetry.nvml):
            raise SensorError(f"no NVML device {index} on {telemetry.node.name}")
        holder = telemetry.nvml[index]
        return (
            lambda: holder.counter,
            lambda c: setattr(holder, "counter", c),
        )
    if target in ("node", "cpu", "memory"):
        if pm is not None:
            stem = "" if target == "node" else target
            if stem not in pm.counters:
                raise SensorError(
                    f"no {target!r} pm_counters file on {telemetry.node.name}"
                )
            return (
                lambda: pm.counters[stem],
                lambda c: pm.counters.__setitem__(stem, c),
            )
        if target == "node":
            if telemetry.ipmi is None:
                raise SensorError(
                    f"no node-level sensor on {telemetry.node.name}"
                )
            holder = telemetry.ipmi
        elif target == "cpu":
            if telemetry.rapl is None:
                raise SensorError(f"no RAPL domain on {telemetry.node.name}")
            holder = telemetry.rapl
        else:
            raise SensorError(
                f"platform {telemetry.system.name} has no memory sensor"
            )
        return (
            lambda: holder.counter,
            lambda c: setattr(holder, "counter", c),
        )
    raise SensorError(
        f"unknown fault target {target!r}; expected node/cpu/memory/"
        "gpu<K>/rocm<K>"
    )


def inject_fault(
    telemetry: NodeTelemetry,
    kind: str,
    target: str = "gpu0",
    *,
    freeze_at: float = 10.0,
    outage_start: float = 10.0,
    outage_end: float = 25.0,
    probability: float = 0.02,
    magnitude_watts: float = 50_000.0,
    seed: int = 0,
):
    """Inject one deterministic fault into one sensor of ``telemetry``.

    Parameters
    ----------
    telemetry:
        The node telemetry to sabotage (mutated in place).
    kind:
        One of :data:`FAULT_KINDS` — ``freeze`` (counter stops at
        ``freeze_at``), ``dropout`` (reads raise inside
        ``[outage_start, outage_end)``) or ``glitch`` (deterministic wild
        power readings with the given per-read probability).
    target:
        Which sensor to break (see module docstring).

    Returns the installed fault wrapper.
    """
    if kind not in FAULT_KINDS:
        raise SensorError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
        )
    get_counter, set_counter = _resolve_setter(telemetry, target)
    inner = get_counter()
    if kind == "freeze":
        wrapper = FrozenCounterFault(inner, freeze_at=freeze_at)
    elif kind == "dropout":
        wrapper = DropoutFault(inner, outage_start, outage_end)
    else:
        wrapper = GlitchFault(
            inner,
            probability=probability,
            magnitude_watts=magnitude_watts,
            seed=seed,
        )
    set_counter(wrapper)
    return wrapper
