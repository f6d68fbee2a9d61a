"""Frozen oracles for the campaign store's entry bytes and cache addresses.

The store decodes an entry with one ``json.loads`` and hashes keys from
memoized per-config JSON fragments.  Neither may change a stored byte or
an address: the straightforward definitions below (records round-tripped
through their own measurement-file JSON; a SHA-256 over the dumped
:func:`canonical_payload`) are kept as the oracles the fast paths must
reproduce exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.campaign import (
    CACHE_SCHEMA_VERSION,
    ResultStore,
    RunKey,
    canonical_payload,
    execute_key,
    run_key_hash,
)
from repro.campaign.keys import resolve_test_case
from repro.config import LUMI_G, MINIHPC, SUBSONIC_TURBULENCE
from repro.errors import AnalysisError
from repro.instrumentation.records import RunMeasurements

STEPS = 3


def oracle_serialize(key: RunKey, result, digest: str) -> str:
    """The entry encoding with the records round-tripped through JSON."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "hash": digest,
        "key": dataclasses.asdict(key),
        "run": json.loads(result.run.to_json()),
        "accounting": dataclasses.asdict(result.accounting),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


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


class TestEntryBytes:
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


class TestRecordsDecode:
    def test_from_dict_equals_from_json(self, results):
        run = results[KEYS[0]].run
        payload = json.loads(run.to_json())
        before = json.dumps(payload)
        assert RunMeasurements.from_dict(payload) == run
        assert RunMeasurements.from_json(run.to_json()) == run
        assert json.dumps(payload) == before  # the input is not consumed

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"records": 1}'])
    def test_malformed_files_raise_analysis_error(self, text):
        with pytest.raises(AnalysisError):
            RunMeasurements.from_json(text)


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
