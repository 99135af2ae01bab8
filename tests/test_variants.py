"""The one variant fold of ``Machine``: every constructor argument
reaches the cache key, defaults reach nothing, and the rules that used
to be copied per axis and per machine hold for all of them at once."""

import inspect

import pytest

from repro import make_machine
from repro.errors import ConfigurationError
from repro.harness.cache import run_key
from repro.harness.workloads import Scale, make_app
from repro.machines import MACHINE_REGISTRY, Machine
from repro.net.faults import CrashEvent, FaultPlan
from repro.net.overhead import OverheadPreset

LOSSY = FaultPlan(loss_rate=0.02, seed=7)
SOFTWARE = ("treadmarks", "as", "hs")

#: Every constructor keyword of every machine, at a non-default value.
NON_DEFAULT_KWARGS = {
    "treadmarks": dict(faults=LOSSY, sync="mcs+tree", ablate="no-twins",
                       eager_locks="all", kernel_level=True,
                       params={"page_bytes": 8192}),
    "as": dict(faults=LOSSY, sync="mcs+tree", ablate="no-twins",
               eager_locks="all", overhead_preset=OverheadPreset.SHRIMP,
               params={"page_bytes": 8192}),
    "hs": dict(faults=LOSSY, sync="mcs+tree", ablate="no-twins",
               eager_locks="all", params={"procs_per_node": 4}),
    "ah": dict(sync="mcs+tree", params={"local_miss_cycles": 25}),
    "sgi": dict(sync="mcs+tree", params={"l2_hit_cycles": 9}),
}


@pytest.fixture(scope="module")
def app():
    return make_app("sor_small", Scale.TEST)


@pytest.mark.parametrize("name,kwarg", [
    (name, kwarg) for name, kwargs in NON_DEFAULT_KWARGS.items()
    for kwarg in kwargs])
def test_every_constructor_argument_reaches_the_key(name, kwarg, app):
    machine = make_machine(name, **{kwarg: NON_DEFAULT_KWARGS[name][kwarg]})
    assert run_key(machine, app, 8) != run_key(make_machine(name), app, 8)


def test_table_covers_every_constructor_argument():
    """A kwarg added to a constructor must be added to the table too."""
    def keyword_only(cls):
        return {p.name for p in
                inspect.signature(cls.__init__).parameters.values()
                if p.kind is p.KEYWORD_ONLY}
    for name, (cls, _params) in MACHINE_REGISTRY.items():
        expected = keyword_only(cls) | {"params"} | (
            keyword_only(Machine) if cls.software_dsm else {"sync"})
        expected.discard("max_procs")    # a validation limit only
        assert expected == set(NON_DEFAULT_KWARGS[name]), name


@pytest.mark.parametrize("name", MACHINE_REGISTRY)
def test_default_specs_leave_name_and_key_alone(name, app):
    plain = make_machine(name)
    spelled = make_machine(name, faults=FaultPlan(), sync="token+central",
                           ablate="full")
    assert spelled.name == plain.name == plain.base_name
    assert spelled.watchdog_cycles is None
    for nprocs in (1, 8):
        assert spelled.fingerprint(nprocs) == plain.fingerprint(nprocs)


@pytest.mark.parametrize("name", SOFTWARE)
def test_suffix_order_is_eager_sync_ablate_faults(name):
    machine = make_machine(name, faults=LOSSY, ablate="no-twins",
                           sync="mcs+tree", eager_locks="all")
    assert machine.name == (f"{machine.base_name}-eager-mcs+tree-no-twins"
                            f"-loss0.02")
    assert list(machine.variants()) == ["eager_locks", "sync", "ablate",
                                        "faults"]
    assert machine.watchdog_cycles == LOSSY.watchdog_cycles


# -- regression: eager_locks was missing from HS's name and key ---------
def test_eager_locks_forks_name_and_key_on_every_software_machine(app):
    for name in SOFTWARE:
        eager = make_machine(name, eager_locks="all")
        plain = make_machine(name)
        assert eager.name == f"{plain.name}-eager"
        assert run_key(eager, app, 16) != run_key(plain, app, 16)
        # Per-lock eager sets are distinct configurations too.
        assert (make_machine(name, eager_locks=frozenset({0})).fingerprint(8)
                != eager.fingerprint(8))


# -- regression: HS kept the fault plan in its 1-proc fingerprint -------
def test_one_node_sends_no_messages_so_faults_cannot_matter():
    app = make_app("sor_small", Scale.TEST)
    clean = make_machine("hs").run(app, 1)
    lossy = make_machine("hs", faults=LOSSY).run(
        make_app("sor_small", Scale.TEST), 1)
    assert lossy.counters.total_messages == 0
    a, b = clean.summary(), lossy.summary()
    assert (a.pop("machine"), b.pop("machine")) == ("hs8", "hs8-loss0.02")
    assert a == b
    assert lossy.counters.as_dict() == clean.counters.as_dict()


@pytest.mark.parametrize("name", SOFTWARE)
def test_software_one_proc_baseline_carries_no_variant(name, app):
    base = run_key(make_machine(name), app, 1)
    for kwargs in (dict(faults=LOSSY), dict(sync="mcs+tree"),
                   dict(ablate="no-twins"), dict(eager_locks="all"),
                   dict(faults=FaultPlan(crashes=(CrashEvent(1, 1000),)),
                        sync="ticket", ablate="no-diffs")):
        assert run_key(make_machine(name, **kwargs), app, 1) == base, kwargs


def test_hardware_one_proc_keeps_its_sync_policy(app):
    for name in ("ah", "sgi"):
        assert (run_key(make_machine(name, sync="mcs+tree"), app, 1) !=
                run_key(make_machine(name), app, 1))


@pytest.mark.parametrize("name", ("ah", "sgi"))
@pytest.mark.parametrize("kwargs", (
    dict(faults=LOSSY), dict(ablate="no-twins"), dict(eager_locks="all")))
def test_hardware_machines_reject_dsm_only_variants(name, kwargs):
    with pytest.raises(ConfigurationError, match="software DSM"):
        make_machine(name, **kwargs)
