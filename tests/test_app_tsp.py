"""TSP application: optimality, pruning, bound staleness."""

import math
import random

import pytest

from repro import make_machine
from repro.apps.tsp import ROOT, TspApp
from repro.errors import ConfigurationError
from repro.harness.workloads import Scale, make_app
from repro.machines import DecTreadMarksMachine, SgiMachine


def test_validation():
    with pytest.raises(ConfigurationError):
        TspApp(cities=3)
    with pytest.raises(ConfigurationError):
        TspApp(cities=8, leaf_cutoff=1)


def test_finds_optimum_on_every_machine():
    lengths = set()
    for machine in (DecTreadMarksMachine(), SgiMachine()):
        for nprocs in (1, 4):
            app = TspApp(cities=9, leaf_cutoff=6)
            r = machine.run(app, nprocs)
            # verify() asserts the parallel tour equals the exact
            # sequential optimum; collect to check consistency too.
            lengths.add(round(r.app_output["optimal_length"], 9))
    assert len(lengths) == 1


def test_optimum_matches_bruteforce():
    import itertools
    app = TspApp(cities=7, leaf_cutoff=5)
    dist = app._distances()
    best = math.inf
    for perm in itertools.permutations(range(1, 7)):
        tour = (0,) + perm
        length = sum(dist[tour[i], tour[(i + 1) % 7]] for i in range(7))
        best = min(best, length)
    r = DecTreadMarksMachine().run(app, 2)
    assert r.app_output["optimal_length"] == pytest.approx(best)


def _scan_bound(dist, min_edge, prefix, length):
    """The bound as the parent commit computed it: a per-call scan of
    the cities outside ``prefix`` in ascending order.  Kept here only,
    as the bit-exactness oracle for the kernel's memoized bound."""
    total = 0.0
    free = 0
    for c in range(len(dist)):
        if c not in prefix:
            total += min_edge[c]
            free += 1
    if not free:
        return length + dist[prefix[-1]][prefix[0]]
    return length + total + min_edge[prefix[0]]


def _kernel_node(app, prefix):
    """The node the search kernel makes for ``prefix`` (len >= 2): step
    the kernel once on the parent prefix and take the child it pushed."""
    dist = app._tables()[0]
    parent = prefix[:-1]
    plen = 0.0
    for a, b in zip(parent, parent[1:]):
        plen += dist[a][b]
    stack = [(parent, plen, sum(1 << c for c in parent), 0.0)]
    assert app._search(stack, math.inf, 1) == (1, math.inf, ())
    node, = (n for n in stack if n[0] == prefix)
    assert node[1] == plen + dist[parent[-1]][prefix[-1]]
    assert node[2] == sum(1 << c for c in prefix)
    return node


@pytest.mark.parametrize("coord_seed", (3, 7, 11))
@pytest.mark.parametrize("cities", range(4, 14))
def test_kernel_bound_is_bit_identical_to_the_scan(cities, coord_seed):
    app = TspApp(cities=cities, coord_seed=coord_seed)
    dist, min_edge, _free_sum = app._tables()
    rng = random.Random(cities * 100 + coord_seed)
    sizes = [cities, cities - 1] + [rng.randint(2, cities)
                                    for _ in range(30)]
    for size in sizes:
        prefix = tuple(rng.sample(range(cities), size))
        _pfx, length, _mask, bound = _kernel_node(app, prefix)
        assert bound == _scan_bound(dist, min_edge, prefix, length)


def test_free_sum_memo_holds_only_masks_reached():
    app = TspApp(cities=24, coord_seed=1234)    # nobody else's instance
    free_sum = app._tables()[2]
    assert not free_sum
    reached = set()
    for parent in ((0, 5, 9), tuple(range(12)), tuple(range(22))):
        mask = sum(1 << c for c in parent)
        for city in set(range(24)) - set(parent):
            _kernel_node(app, parent + (city,))
            reached.add(mask | 1 << city)
    assert set(free_sum) == reached and len(reached) == 21 + 12 + 2


def test_lower_bound_admissible():
    app = TspApp(cities=8)
    _exp, best, tour = app._search([ROOT], math.inf, math.inf)
    assert sorted(tour) == list(range(8))
    # No prefix of the optimal tour is bounded above the optimum, and
    # the complete tour's bound is its length.
    for size in range(2, 8):
        assert _kernel_node(app, tour[:size])[3] <= best + 1e-9
    assert _kernel_node(app, tour)[3] == best


#: (expansions, best, tour) of the sequential solve at the parent of the
#: PR that put every search through one kernel (its ``_solve_local``).
SEQUENTIAL_SOLVES = {
    8: (402, 263.8529599165837, (0, 7, 4, 1, 5, 6, 3, 2)),
    9: (766, 302.60723164234616, (0, 8, 4, 1, 7, 5, 6, 3, 2)),
}


@pytest.mark.parametrize("cities", sorted(SEQUENTIAL_SOLVES))
def test_sequential_solve_through_the_kernel(cities):
    app = TspApp(cities=cities)
    assert app._search([ROOT], math.inf, math.inf) == \
        SEQUENTIAL_SOLVES[cities]


#: Pruning pins, taken at the same parent commit: (parallel_expansions,
#: sequential_expansions, cycles, events) at ``Scale.TEST``.  The
#: goldens' ``summary()`` carries no expansion counts, so these are what
#: pins every pruning decision per machine.
PRUNING_PINS = {
    ("tsp18", "treadmarks", 1): (2809, 2802, 28091709, 154),
    ("tsp18", "treadmarks", 4): (3857, 2802, 13578870, 482),
    ("tsp18", "sgi", 1): (2809, 2802, 28091633, 132),
    ("tsp18", "sgi", 4): (3711, 2802, 13171520, 366),
    ("tsp18", "as", 1): (2809, 2802, 28091665, 154),
    ("tsp18", "as", 4): (3857, 2802, 13365074, 480),
    ("tsp18", "ah", 1): (2809, 2802, 28091105, 132),
    ("tsp18", "ah", 4): (3711, 2802, 13173871, 366),
    ("tsp18", "hs", 1): (2809, 2802, 28091725, 154),
    ("tsp18", "hs", 4): (3824, 2802, 13161888, 381),
    ("tsp19", "treadmarks", 1): (8478, 8470, 84782511, 276),
    ("tsp19", "treadmarks", 4): (12752, 8470, 42923868, 962),
    ("tsp19", "sgi", 1): (8478, 8470, 84782407, 244),
    ("tsp19", "sgi", 4): (11752, 8470, 38842388, 655),
    ("tsp19", "as", 1): (8478, 8470, 84782462, 276),
    ("tsp19", "as", 4): (12688, 8470, 42333297, 931),
    ("tsp19", "ah", 1): (8478, 8470, 84781587, 244),
    ("tsp19", "ah", 4): (11597, 8470, 37845664, 643),
    ("tsp19", "hs", 1): (8478, 8470, 84782528, 276),
    ("tsp19", "hs", 4): (12752, 8470, 42283067, 731),
}


@pytest.mark.parametrize("workload,machine,nprocs", sorted(PRUNING_PINS))
def test_pruning_pins(workload, machine, nprocs):
    r = make_machine(machine).run(make_app(workload, Scale.TEST), nprocs)
    assert (r.app_output["parallel_expansions"],
            r.app_output["sequential_expansions"],
            r.cycles, r.events) == PRUNING_PINS[workload, machine, nprocs]


def test_parallel_expansions_at_least_sequential_work():
    app = TspApp(cities=9, leaf_cutoff=6)
    r1 = DecTreadMarksMachine().run(app, 1)
    assert r1.app_output["parallel_expansions"] >= \
        0.9 * r1.app_output["sequential_expansions"]


def test_lock_traffic_present():
    app = TspApp(cities=9, leaf_cutoff=6)
    r = DecTreadMarksMachine().run(app, 4)
    assert r.counters.remote_lock_acquires > 0
    assert r.counters.barriers == 0     # TSP uses only locks


def test_determinism():
    app = TspApp(cities=9, leaf_cutoff=6)
    a = DecTreadMarksMachine().run(app, 4)
    b = DecTreadMarksMachine().run(app, 4)
    assert a.cycles == b.cycles
    assert a.app_output["parallel_expansions"] == \
        b.app_output["parallel_expansions"]


def test_distance_matrix_seeded():
    a = TspApp(cities=8, coord_seed=5)._distances()
    b = TspApp(cities=8, coord_seed=5)._distances()
    c = TspApp(cities=8, coord_seed=6)._distances()
    assert (a == b).all()
    assert (a != c).any()
