"""Frozen oracles for the campaign store's entry bytes and cache addresses.

The store writes an entry as compact JSON with the run's records stored
as columns (schema 2), decodes it with one ``json.loads``, and hashes
keys from memoized per-config JSON fragments.  None of that may change a
stored byte or an address: the straightforward definitions below (the
records of ``dataclasses.asdict`` transposed to columns; a SHA-256 over
the dumped ``canonical_payload`` of ``tests/oracles/``) are kept as the oracles the fast
paths must reproduce exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.aggregate import function_totals
from repro.audit.hooks import audit_campaign_result
from repro.cli import main
from repro.campaign import (
    CACHE_SCHEMA_VERSION,
    CODE_VERSION,
    ResultStore,
    RunKey,
    execute_key,
    run_key_hash,
)
from repro.campaign.keys import resolve_test_case
from repro.campaign.store import (
    AccountingSummary,
    CampaignResult,
    _deserialize,
    _serialize,
)
from repro.config import LUMI_G, MINIHPC, SUBSONIC_TURBULENCE
from repro.errors import AnalysisError, AuditError
from repro.instrumentation.records import (
    COUNTERS,
    FunctionEnergyRecord,
    NodeWindowRecord,
    RunMeasurements,
    TelemetryHealthRecord,
)
from tests.oracles.measurement import attributed_joules, canonical_payload

STEPS = 3


def oracle_run_payload(run: RunMeasurements) -> dict:
    """``asdict(run)`` with its list of record dicts turned into columns."""
    payload = dataclasses.asdict(run)
    rows = payload.pop("records")

    def sparse(section: str) -> dict:
        names = {name for row in rows for name in row[section]}
        return {name: [row[section].get(name) for row in rows] for name in names}

    payload["records"] = {
        **{
            name: [row[name] for row in rows]
            for name in ("rank", "function", "calls", "seconds")
        },
        "joules": sparse("joules"),
        "health": sparse("health"),
    }
    return payload


def oracle_serialize(key: RunKey, result, digest: str) -> str:
    """The schema-2 entry: compact, sorted keys, records as columns."""
    payload = {
        "schema": 2,
        "hash": digest,
        "key": dataclasses.asdict(key),
        "run": oracle_run_payload(result.run),
        "accounting": dataclasses.asdict(result.accounting),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def oracle_hash(key: RunKey, **configs) -> str:
    """SHA-256 of the canonical payload, dumped sorted and compact."""
    payload = canonical_payload(key, **configs)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def system_key(system: str, cards: int, governor: str | None) -> RunKey:
    case = "Evrard Collapse" if governor else "Subsonic Turbulence"
    return RunKey(
        system=system,
        test_case=case,
        num_cards=cards,
        gpu_freq_mhz=None,
        num_steps=STEPS,
        particles_per_rank=resolve_test_case(case).particles_per_gpu,
        seed=0,
        governor=governor,
    )


KEYS = tuple(
    system_key(system, cards, governor)
    for system, cards in (("LUMI-G", 4), ("CSCS-A100", 4), ("miniHPC", 2))
    for governor in (None, "min-edp")
)


@pytest.fixture(scope="module")
def results():
    return {key: execute_key(key) for key in KEYS}


#: SHA-256 of each key's ``run.to_json()`` followed by its accounting as
#: sorted compact JSON.  Every measured energy, time and health count of
#: the six runs is in these bytes, to the last bit: a change that moves
#: one must re-pin the digests and say why.
RESULT_DIGESTS = {
    "LUMI-G/Subsonic Turbulence/4c/default/150000000ppr/3s/seed0":
        "89f6d8d25727a5e02b7f7bfe86236d916f5b06696ccac6a050affcba257a3de3",
    "LUMI-G/Evrard Collapse/4c/default/80000000ppr/3s/seed0/min-edp":
        "8e2919c440fe3104fd10da0197e88977108d7f6d37b698ce05457e85509f925c",
    "CSCS-A100/Subsonic Turbulence/4c/default/150000000ppr/3s/seed0":
        "89a01bbdab060805dd7eb2c8bf491827c0976e80c76d1c8da8d871717e45f2ca",
    "CSCS-A100/Evrard Collapse/4c/default/80000000ppr/3s/seed0/min-edp":
        "4ca9d6484a9476b7f3887d721f66d30adf56d3dbcfde2132b78f0c0ab690a12b",
    "miniHPC/Subsonic Turbulence/2c/default/150000000ppr/3s/seed0":
        "b7b19db00ae456f10760388aeb65bf46cd1e0fbe7cc4f2025bece4d039358910",
    "miniHPC/Evrard Collapse/2c/default/80000000ppr/3s/seed0/min-edp":
        "64e3289890e333afe03f7ec623d12d5f13af281823032c071391a67651fdbf53",
}


def result_digest(result: CampaignResult) -> str:
    accounting = dataclasses.asdict(result.accounting)
    text = result.run.to_json() + json.dumps(
        accounting, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()


class TestEntryBytes:
    def test_schema_2_and_the_measuring_code_unchanged(self):
        assert CACHE_SCHEMA_VERSION == 2
        assert CODE_VERSION == "2"

    @pytest.mark.parametrize("key", KEYS, ids=lambda k: k.label)
    def test_measured_bits_are_pinned(self, results, key):
        assert result_digest(results[key]) == RESULT_DIGESTS[key.label]

    @pytest.mark.parametrize("key", KEYS, ids=lambda k: k.label)
    def test_put_writes_the_oracle_bytes(self, tmp_path, results, key):
        store = ResultStore(tmp_path)
        path = store.put(key, results[key])
        assert path.read_text() == oracle_serialize(key, results[key], path.stem)

    @pytest.mark.parametrize("key", KEYS, ids=lambda k: k.label)
    def test_oracle_entry_reads_back_as_the_same_hit(self, tmp_path, results, key):
        """An entry written by the oracle encoder is a hit, equal to the run."""
        store = ResultStore(tmp_path)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(oracle_serialize(key, results[key], path.stem))
        assert store.lookup(key) == (results[key], "hit")
        assert store.stats()["corrupt"] == 0


def small_run(records: list[FunctionEnergyRecord]) -> RunMeasurements:
    return RunMeasurements(
        system_name="miniHPC",
        test_case="Evrard Collapse",
        num_ranks=2,
        num_nodes=1,
        gcds_per_card=1,
        gpu_freq_mhz=1410.0,
        num_steps=2,
        particles_per_rank=1e6,
        app_start=1.0,
        app_end=3.5,
        records=records,
        node_windows=[NodeWindowRecord(0, 900.0, 200.0, None, [300.0, 310.0])],
        telemetry_health=[TelemetryHealthRecord(0, reads=12)],
    )


TWO_RECORDS = [
    FunctionEnergyRecord(
        0, "Density", 2, 1.25, {"gpu": 150.0, "cpu": 40.0}, {"reads": 6.0}
    ),
    FunctionEnergyRecord(1, "Density", 2, 1.5, {"gpu": 160.0, "cpu": 40.0}),
]

#: Sparse health, a record without memory, ints where floats are usual,
#: and the float extremes the text form must keep.
EDGE_RECORDS = [
    FunctionEnergyRecord(0, "IAD", 3, 2, {"gpu": -0.0, "memory": 7}, {"retries": 1.0}),
    FunctionEnergyRecord(1, "IAD", 3, 1e308, {"gpu": 1e308}),
    FunctionEnergyRecord(1, "Density", 0, -0.0, {}, {"gap_seconds": 0.5}),
]


def damaged(column: str, value) -> str:
    """A two-record measurement file with one records column replaced;
    ``"joules.gpu"`` names the ``gpu`` column of the ``joules`` map."""
    payload = small_run(TWO_RECORDS).to_dict()
    *section, name = column.split(".")
    records = payload["records"]
    (records[section[0]] if section else records)[name] = value
    return json.dumps(payload)


#: Files a decoder that ``zip``s the columns without checking them would
#: read as a different run: strings and objects iterate like lists, short
#: columns drop records, long ones drop values, nulls become field values.
DAMAGED_COLUMNS = {
    "function column is a string": ("function", "ab"),
    "calls column is an object": ("calls", {"0": 2, "1": 2}),
    "joules column is a string": ("joules.gpu", "ab"),
    "seconds column is short": ("seconds", [1.25]),
    "rank column is short": ("rank", [0]),
    "calls column is long": ("calls", [2, 2, 2]),
    "joules column is short": ("joules.cpu", [40.0]),
    "health column is long": ("health.reads", [6.0, None, 1.0]),
    "null rank": ("rank", [0, None]),
    "null function": ("function", [None, "Density"]),
    "null calls": ("calls", [2, None]),
    "null seconds": ("seconds", [None, 1.5]),
}


floats = st.floats(allow_nan=False) | st.sampled_from([-0.0, 1e308, -1e308])
number = st.integers(-(2**53), 2**53) | floats
counters = st.dictionaries(st.sampled_from(COUNTERS), number)
health = st.dictionaries(
    st.sampled_from(["reads", "retries", "gap_seconds", "stuck_reads"]), number
)
records = st.lists(
    st.builds(
        FunctionEnergyRecord,
        rank=st.integers(0, 7),
        function=st.sampled_from(["Density", "IAD", "MomentumEnergy"]),
        calls=st.integers(0, 10**6),
        seconds=number,
        joules=counters,
        health=health,
    ),
    max_size=12,
)


class TestRecordsDecode:
    def test_from_dict_equals_from_json(self, results):
        run = results[KEYS[0]].run
        payload = json.loads(run.to_json())
        before = json.dumps(payload)
        assert RunMeasurements.from_dict(payload) == run
        assert RunMeasurements.from_json(run.to_json()) == run
        assert json.dumps(payload) == before  # the input is not consumed

    def test_measurement_file_stores_records_as_columns(self, results):
        run = results[KEYS[2]].run
        text = run.to_json()
        assert text == json.dumps(
            oracle_run_payload(run), sort_keys=True, separators=(",", ":")
        )
        # CSCS-A100 has no memory sensor: the column is absent, not nulls.
        assert "memory" not in json.loads(text)["records"]["joules"]

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[1, 2]", '{"records": 1}']
        + [damaged(*change) for change in DAMAGED_COLUMNS.values()],
        ids=["{not json", "[1, 2]", '{"records": 1}', *DAMAGED_COLUMNS],
    )
    def test_malformed_files_raise_analysis_error(self, text):
        with pytest.raises(AnalysisError):
            RunMeasurements.from_json(text)

    def test_a_null_marks_a_missing_key(self):
        run = small_run(TWO_RECORDS)
        payload = json.loads(run.to_json())
        assert payload["records"]["health"] == {"reads": [6.0, None]}
        assert RunMeasurements.from_dict(payload) == run

    @pytest.mark.parametrize("damage", ["short column", "null", "string column"])
    def test_damaged_entry_is_corrupt_and_quarantined(
        self, tmp_path, results, damage
    ):
        key = KEYS[-1]
        store = ResultStore(tmp_path)
        path = store.put(key, results[key])
        payload = json.loads(path.read_text())
        records = payload["run"]["records"]
        if damage == "short column":
            records["seconds"].pop()
        elif damage == "null":
            records["calls"][0] = None
        else:
            records["joules"]["gpu"] = "x" * len(records["rank"])
        path.write_text(json.dumps(payload))
        assert store.lookup(key) == (None, "corrupt")
        assert store.stats()["corrupt"] == 1
        assert store.quarantine_corrupt() == 1
        assert store.lookup(key) == (None, "miss")

    def test_old_schema_entry_is_stale_not_corrupt(self, tmp_path, results, capsys):
        """An intact entry of an older schema is stale: ``gc`` deletes it
        and quarantines only the rotten bytes."""
        store = ResultStore(tmp_path)
        stale = store.put(KEYS[0], results[KEYS[0]])
        payload = json.loads(stale.read_text())
        payload["schema"] = 1
        stale.write_text(json.dumps(payload))
        rotten = store.put(KEYS[-1], results[KEYS[-1]])
        rotten.write_text("rot")
        stats = store.stats()
        assert (stats["entries"], stats["stale"], stats["corrupt"]) == (2, 1, 1)
        cache = ["--cache-dir", str(tmp_path)]
        assert main(["campaign", "status", "fig1", *cache]) == 0
        assert ", 1 corrupt, 1 stale," in capsys.readouterr().out
        assert main(["campaign", "gc", *cache]) == 0
        out = capsys.readouterr().out
        assert "1 corrupt entries quarantined, 1 stale entries removed" in out
        assert store.stats()["entries"] == 0
        quarantine = tmp_path / ResultStore.QUARANTINE_DIR
        assert [p.name for p in quarantine.iterdir()] == [rotten.name]

    @settings(max_examples=150, deadline=None)
    @given(records)
    @example([])
    @example(EDGE_RECORDS)
    def test_round_trip(self, rows):
        run = small_run(rows)
        text = run.to_json()
        back = RunMeasurements.from_json(text)
        assert back == run
        assert back.to_json() == text  # ints stay ints, -0.0 keeps its sign
        accounting = AccountingSummary(
            "x", 1, 2, 0.0, 0.0, 1.0, 3.5, 4.0, 900.0, (900.0,)
        )
        result = CampaignResult(KEYS[-1], run, accounting)
        entry = _serialize(KEYS[-1], result, "0" * 64)
        assert _deserialize(entry) == result
        assert _serialize(KEYS[-1], _deserialize(entry), "0" * 64) == entry


class TestAddressOracle:
    @pytest.mark.parametrize("key", KEYS, ids=lambda k: k.label)
    def test_default_configs(self, key):
        assert run_key_hash(key) == oracle_hash(key)

    def test_explicit_configs(self):
        key = KEYS[-1]
        hotter = dataclasses.replace(MINIHPC, max_nodes=7)
        driven = dataclasses.replace(SUBSONIC_TURBULENCE, has_driving=False)
        for configs in (
            {"system": hotter},
            {"test_case": driven},
            {"system": hotter, "test_case": driven},
            {"system": MINIHPC},
        ):
            assert run_key_hash(key, **configs) == oracle_hash(key, **configs)

    def test_equal_configs_that_serialize_differently_keep_their_addresses(self):
        """``12 == 12.0``, but the payloads differ, and so must the hashes."""
        timing = dataclasses.replace(LUMI_G.slurm_timing, teardown_s=12)
        as_int = dataclasses.replace(LUMI_G, slurm_timing=timing)
        assert as_int == LUMI_G and hash(as_int) == hash(LUMI_G)
        key = KEYS[0]
        assert run_key_hash(key) == oracle_hash(key)
        assert run_key_hash(key, system=as_int) == oracle_hash(key, system=as_int)
        assert run_key_hash(key, system=as_int) != run_key_hash(key)

    def test_code_version_is_read_at_call_time(self, monkeypatch):
        import repro.campaign.keys as keys_mod

        key = KEYS[0]
        before = run_key_hash(key)
        monkeypatch.setattr(keys_mod, "CODE_VERSION", "test-bump")
        assert run_key_hash(key) == oracle_hash(key) != before


def oracle_function_totals(run: RunMeasurements, counter: str) -> dict[str, float]:
    """Per-function totals, one ``attributed_joules`` call per record."""
    totals: dict[str, float] = {}
    for record in run.records:
        if counter == "memory" and counter not in record.joules:
            continue
        value = attributed_joules(run, record, counter)
        totals[record.function] = totals.get(record.function, 0.0) + value
    return totals


class TestAuditOracle:
    @pytest.mark.parametrize("key", KEYS, ids=lambda k: k.label)
    def test_function_totals_equal_the_per_record_loop(
        self, tmp_path, results, key
    ):
        store = ResultStore(tmp_path)
        store.put(key, results[key])
        warm, status = store.lookup(key)
        assert status == "hit"
        for run in (results[key].run, warm.run):
            for counter in COUNTERS:
                want = oracle_function_totals(run, counter)
                got = function_totals(run, counter)
                assert list(got) == list(want)
                assert all(got[name] == want[name] for name in want), counter
                assert sum(got.values()) == sum(want.values())

    def test_known_strict_finding_is_unchanged(self, tmp_path):
        """A known open defect: this key's node deficit exceeds the 8 %
        straggler allowance of the function partition.

        Until the gaps are booked, the audit must report it with the same
        message and the same measured value, from the cold run and from
        its decoded entry.
        """
        case = "Evrard Collapse"
        ppr = resolve_test_case(case).particles_per_gpu
        key = RunKey("CSCS-A100", case, 8, None, 12, ppr, 1006, "min-edp")
        cold = execute_key(key)
        store = ResultStore(tmp_path)
        store.put(key, cold)
        warm, status = store.lookup(key)
        assert status == "hit"
        for result in (cold, warm):
            with pytest.raises(AuditError) as raised:
                audit_campaign_result(result, strict=True)
            finding = raised.value.finding
            assert (finding.invariant, finding.scope) == (
                "function-partition", "run / node"
            )
            assert finding.message == (
                "per-function energies fall short of the app-window total "
                "beyond the straggler-gap allowance (lost energy)"
            )
            assert finding.measured == 68847.75
            assert finding.expected == 75041.0
            node = oracle_function_totals(result.run, "node")
            assert sum(node.values()) == 68847.75
