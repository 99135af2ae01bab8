"""Content-addressed result cache: fingerprints, storage, invalidation."""

import dataclasses
import json
import os
import shutil

import pytest

from repro.harness.cache import (ResultCache, app_fingerprint_data,
                                 default_cache_dir, run_key)
from repro.harness.workloads import Scale, make_app
from repro.machines import (AllSoftwareMachine, DecTreadMarksMachine,
                            HybridMachine, SgiMachine)
from repro.machines.params import DecAtmParams, SgiParams
from repro.net.overhead import OverheadPreset


# ======================================================================
# fingerprints
# ======================================================================
def test_fingerprint_stable_across_instances():
    app = make_app("sor_small", Scale.TEST)
    assert (run_key(DecTreadMarksMachine(), app, 2) ==
            run_key(DecTreadMarksMachine(), app, 2))
    assert (DecTreadMarksMachine().fingerprint(2) ==
            DecTreadMarksMachine().fingerprint(2))


def test_fingerprint_covers_all_machines():
    app = make_app("sor_small", Scale.TEST)
    machines = [DecTreadMarksMachine(), SgiMachine(),
                AllSoftwareMachine(), HybridMachine()]
    keys = {run_key(m, app, 4) for m in machines}
    assert len(keys) == len(machines)


def test_machine_param_change_invalidates():
    """Editing any value in machines/params.py must change the key."""
    app = make_app("sor_small", Scale.TEST)
    base = run_key(DecTreadMarksMachine(), app, 4)
    slower_net = DecAtmParams(user_bandwidth_bits=10e6)
    assert run_key(DecTreadMarksMachine(slower_net), app, 4) != base

    sgi_base = run_key(SgiMachine(), app, 4)
    bigger_l2 = dataclasses.replace(SgiParams(), l2_bytes=2 * 1024 * 1024)
    assert run_key(SgiMachine(bigger_l2), app, 4) != sgi_base


def test_machine_variant_changes_key_above_one_proc():
    app = make_app("sor_small", Scale.TEST)
    base = run_key(DecTreadMarksMachine(), app, 4)
    assert run_key(DecTreadMarksMachine(kernel_level=True), app, 4) != base
    assert run_key(DecTreadMarksMachine(ablate="no-diffs"), app, 4) != base
    assert run_key(DecTreadMarksMachine(eager_locks="all"), app, 4) != base


def test_software_variants_share_one_proc_baseline():
    """At one node the DSM engages no remote machinery (Table 1), so
    every software variant shares one cached baseline."""
    app = make_app("sor_small", Scale.TEST)
    base = run_key(DecTreadMarksMachine(), app, 1)
    for variant in (DecTreadMarksMachine(kernel_level=True),
                    DecTreadMarksMachine(ablate="no-diffs"),
                    DecTreadMarksMachine(eager_locks="all")):
        assert run_key(variant, app, 1) == base
    assert (run_key(AllSoftwareMachine(), app, 1) ==
            run_key(AllSoftwareMachine(
                overhead_preset=OverheadPreset.KERNEL_LEVEL), app, 1))
    # ... but not across genuinely different local machines.
    assert run_key(AllSoftwareMachine(), app, 1) != base
    assert run_key(SgiMachine(), app, 1) != base


def test_workload_scale_changes_key():
    machine = DecTreadMarksMachine()
    keys = {run_key(machine, make_app("sor_small", scale), 2)
            for scale in (Scale.TEST, Scale.BENCH)}
    assert len(keys) == 2


def test_seed_and_params_change_key():
    machine, app = DecTreadMarksMachine(), make_app("tsp19", Scale.TEST)
    base = run_key(machine, app, 2)
    assert run_key(machine, app, 2, seed=7) != base
    assert run_key(machine, app, 2, params={"x": 1}) != base


def test_app_fingerprint_reflects_configuration():
    a = app_fingerprint_data(make_app("sor_small", Scale.TEST))
    b = app_fingerprint_data(make_app("sor_small", Scale.BENCH))
    assert a["class"] == b["class"] == "SorApp"
    assert a["state"] != b["state"]


# ======================================================================
# storage
# ======================================================================
@pytest.fixture
def cached_run():
    machine = DecTreadMarksMachine()
    app = make_app("sor_small", Scale.TEST)
    return (run_key(machine, app, 2), machine.run(app, 2))


def test_cache_put_get_roundtrip(tmp_path, cached_run):
    key, result = cached_run
    cache = ResultCache(str(tmp_path))
    assert cache.get(key) is None          # cold
    cache.put(key, result)
    restored = cache.get(key)
    assert restored is not None
    assert restored.summary() == result.summary()
    assert restored.cycles == result.cycles
    assert restored.events == result.events
    assert restored.counters.as_dict() == result.counters.as_dict()
    assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}


def test_cache_entry_is_valid_json(tmp_path, cached_run):
    key, result = cached_run
    cache = ResultCache(str(tmp_path))
    cache.put(key, result)
    with open(cache.path_for(key)) as fh:
        payload = json.load(fh)
    assert payload["key"] == key
    assert payload["result"]["machine"] == "treadmarks"


def test_cache_tolerates_corrupt_entry(tmp_path, cached_run):
    key, result = cached_run
    cache = ResultCache(str(tmp_path))
    cache.put(key, result)
    with open(cache.path_for(key), "w") as fh:
        fh.write("{not json")
    assert cache.get(key) is None
    cache.put(key, result)                 # overwrite repairs it
    assert cache.get(key).summary() == result.summary()


@pytest.mark.parametrize("damage", [
    lambda text: text[:len(text) // 2],              # torn write
    lambda text: "[1, 2, 3]",                        # not an object
    lambda text: "null",
    lambda text: json.dumps({**json.loads(text), "key": "0" * 64}),
    lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                             if k != "key"}),
], ids=["truncated", "list", "null", "mis-keyed", "unkeyed"])
def test_cache_damaged_entry_is_a_miss_and_put_repairs(tmp_path,
                                                       cached_run, damage):
    key, result = cached_run
    cache = ResultCache(str(tmp_path))
    cache.put(key, result)
    path = cache.path_for(key)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(damage(text))
    assert cache.get(key) is None
    cache.put(key, result)
    assert cache.get(key).summary() == result.summary()


def test_cache_entry_copied_to_another_key_is_a_miss(tmp_path, cached_run):
    """An entry is served only for the key it was stored under."""
    key, result = cached_run
    cache = ResultCache(str(tmp_path))
    cache.put(key, result)
    other = key[::-1]
    os.makedirs(os.path.dirname(cache.path_for(other)), exist_ok=True)
    shutil.copy(cache.path_for(key), cache.path_for(other))
    assert cache.get(other) is None
    assert cache.get(key) is not None


def test_default_cache_dir_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert default_cache_dir() == ".repro-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"


def test_format_stats_greppable(tmp_path):
    line = ResultCache(str(tmp_path)).format_stats()
    assert "hits=0" in line and "misses=0" in line
