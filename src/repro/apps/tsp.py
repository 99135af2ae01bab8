"""Branch-and-bound travelling salesman (§2.3, §2.4.3).

A shared queue of partial tours is guarded by a lock; each worker pops
a partial tour, extends it, and pushes the children back, solving
small-enough subproblems to completion locally.  The global
minimum-tour bound is updated under its own lock but *read without
synchronization*, so the value a worker prunes against is whatever its
machine's consistency model makes visible (``ops.ReadBound``).  Stale
bounds prune less and cause redundant expansions — the paper's
explanation for TSP's TreadMarks/SGI gap, and the effect its eager
release experiment removes.

Full 18/19-city instances are far too large for a pure-Python
simulation, so the presets scale the instance down (see DESIGN.md):
``tsp18``-equivalent uses 12 cities, ``tsp19``-equivalent 13.  The
branch-and-bound structure, queue discipline, and bound-staleness
sensitivity — the properties the paper measures — are unchanged.

The search explores the same tree regardless of machine timing *given
the same pruning decisions*; the final optimum is always exact (every
completed tour is checked against the committed bound), only the
amount of redundant work varies.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.base import AppContext, Application, Program
from repro.apps import ops
from repro.errors import ConfigurationError

QUEUE_LOCK = 0
BOUND_LOCK = 1

#: Shared queue slot size: tour prefix + length (int32 fields).
SLOT_BYTES = 128

#: Cycles charged at each visited search node.  Deliberately larger
#: than a literal count of the per-node instructions: the simulated
#: instances are scaled down from the paper's 18/19 cities (whose
#: trees have orders of magnitude more nodes), and this constant
#: restores the paper's compute-to-queue-access ratio (see DESIGN.md).
CYCLES_PER_EXPANSION = 10_000

#: Idle workers re-poll the queue with exponential backoff in this
#: range, so a straggler solving a deep leaf is not drowned in
#: lock-token ping-pong from the other seven processors.
IDLE_BACKOFF_MIN_CYCLES = 20000
IDLE_BACKOFF_MAX_CYCLES = 1_000_000

#: How many search nodes a worker expands between re-reads of the
#: unsynchronized global bound (§2.4.3).
BOUND_POLL_EXPANSIONS = 200

#: A search node: tour prefix, its length, the bitmask of the cities
#: on it, and its lower bound (computed once, when the node is made).
Node = Tuple[Tuple[int, ...], float, int, float]

#: The one node no parent bounded, so it carries the trivial bound: its
#: only pop is the first of a search, against a bound of infinity, where
#: 0.0 decides what the min-edge bound would — expand.
ROOT: Node = ((0,), 0.0, 1, 0.0)


class _FreeSums(Dict[int, float]):
    """``min_edge`` summed over the cities *outside* a visited bitmask.

    Filled on first use of a mask, so it holds only masks the search
    reached.  Each entry is accumulated in ascending city order from
    0.0, left to right — the addition order of the per-call scan this
    memo replaces — so it removes recomputation without reordering any
    float arithmetic (DESIGN.md).
    """

    def __init__(self, min_edge: List[float]) -> None:
        super().__init__()
        self.min_edge = min_edge

    def __missing__(self, mask: int) -> float:
        total = 0.0
        for city, edge in enumerate(self.min_edge):
            if not mask >> city & 1:
                total += edge
        self[mask] = total
        return total


#: Per-instance tables keyed by (cities, seed): distance matrix and
#: min-edge vector as plain Python lists, plus the free-sum memo.
#: The bound computation is the simulation's hottest Python code;
#: indexing numpy scalars out of tiny arrays costs several times the
#: arithmetic itself.  ``ndarray.tolist`` is value-exact and numpy's
#: sequential reduce over arrays this small matches left-to-right
#: float accumulation bit-for-bit, so swapping the tables changes no
#: pruning decision and no simulated cycle (pinned by the goldens).
_TABLE_CACHE: Dict[Tuple[int, int],
                   Tuple[List[List[float]], List[float], _FreeSums]] = {}

#: Memoized sequential re-solves, same key.  ``verify`` needs the
#: sequential optimum after every run of an instance, and the
#: depth-first solve is a pure function of the distance matrix — a
#: sweep over processor counts re-derives it identically each time.
_SEQ_SOLVE_CACHE: Dict[Tuple[int, int],
                       Tuple[int, float, Tuple[int, ...]]] = {}


class TspApp(Application):
    """Branch-and-bound TSP over random Euclidean cities."""

    name = "tsp"

    def __init__(self, cities: int = 12, *, leaf_cutoff: int = 7,
                 queue_capacity: int = 4096, coord_seed: int = 7) -> None:
        if cities < 4:
            raise ConfigurationError(f"need at least 4 cities: {cities}")
        if leaf_cutoff < 2:
            raise ConfigurationError(
                f"leaf_cutoff must be >= 2: {leaf_cutoff}")
        self.cities = cities
        self.leaf_cutoff = leaf_cutoff
        self.queue_capacity = queue_capacity
        self.coord_seed = coord_seed
        self.name = f"tsp-{cities}"

    # ------------------------------------------------------------------
    def regions(self, nprocs: int) -> Dict[str, int]:
        """Shared tour queue, best-bound word, and distance table."""
        return {
            "tsp_queue": self.queue_capacity * SLOT_BYTES,
            "tsp_bound": 4096,
            "tsp_dist": self.cities * self.cities * 8,
        }

    def _distances(self) -> np.ndarray:
        rng = np.random.default_rng(self.coord_seed)
        pts = rng.random((self.cities, 2)) * 100.0
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=2))

    def init_data(self, ctx: AppContext) -> None:
        """Load the distance table; seed the queue with the root tour."""
        dist = self._distances()
        ctx.store.view("tsp_dist", np.float64)[: dist.size] = dist.ravel()
        # Shared run state that models the queue contents; all access
        # is serialized by the simulated queue lock.
        ctx.params["_queue"] = [ROOT]
        ctx.params["_active"] = 0
        # Which workers currently hold a popped-but-unretired item;
        # crash recovery uses this to keep the active count honest
        # when a worker dies mid-item (see on_node_failed).
        ctx.params["_working"] = [False] * ctx.nprocs
        ctx.params["_expansions"] = [0] * ctx.nprocs
        ctx.params["_best_tour"] = None

    # ------------------------------------------------------------------
    def _min_edges(self, dist: np.ndarray) -> np.ndarray:
        masked = dist.copy()
        np.fill_diagonal(masked, np.inf)
        return masked.min(axis=1)

    def _tables(self) -> Tuple[List[List[float]], List[float], _FreeSums]:
        """The (distance matrix, min-edge vector, free-sum memo)."""
        key = (self.cities, self.coord_seed)
        tables = _TABLE_CACHE.get(key)
        if tables is None:
            dist = self._distances()
            min_edge = self._min_edges(dist).tolist()
            tables = (dist.tolist(), min_edge, _FreeSums(min_edge))
            _TABLE_CACHE[key] = tables
        return tables

    def _search(self, stack: List[Node], best: float,
                limit: float) -> Tuple[int, float, Tuple[int, ...]]:
        """The depth-first loop: pop at most ``limit`` nodes off ``stack``.

        A popped node that beats ``best`` either is a complete tour
        (its bound is its length: the new best) or is replaced by its
        children that beat ``best``, in ascending city order.  Returns
        (nodes popped, best length, best tour found or ``()``).
        """
        dist, min_edge, free_sum = self._tables()
        bits = [(city, 1 << city) for city in range(self.cities)]
        full = (1 << self.cities) - 1
        popped = 0
        tour: Tuple[int, ...] = ()
        while stack and popped < limit:
            prefix, length, mask, bound = stack.pop()
            popped += 1
            if bound >= best:
                continue
            if mask == full:
                best, tour = bound, prefix
                continue
            first = prefix[0]
            row = dist[prefix[-1]]
            for city, bit in bits:
                if mask & bit:
                    continue
                nlen = length + row[city]
                nmask = mask | bit
                if nmask == full:
                    nbound = nlen + dist[city][first]
                else:
                    nbound = nlen + free_sum[nmask] + min_edge[first]
                if nbound < best:
                    stack.append((prefix + (city,), nlen, nmask, nbound))
        return popped, best, tour

    # ------------------------------------------------------------------
    def programs(self, ctx: AppContext) -> List[Program]:
        """One branch-and-bound worker per processor."""
        return [self._worker(ctx, p) for p in range(ctx.nprocs)]

    def _worker(self, ctx: AppContext, proc: int) -> Program:
        queue: List[Node] = ctx.params["_queue"]

        working = False
        backoff = IDLE_BACKOFF_MIN_CYCLES
        while True:
            # ---- pop one partial tour from the shared queue --------
            # The same critical section also retires the previous item
            # (decrements the active-worker count), so each unit of
            # work costs one queue-lock round trip.
            yield ops.Acquire(QUEUE_LOCK)
            if working:
                ctx.params["_active"] -= 1
                ctx.params["_working"][proc] = False
                working = False
            if not queue:
                idle = ctx.params["_active"] == 0
                yield ops.Release(QUEUE_LOCK)
                if idle:
                    break
                yield ops.Compute(backoff)
                backoff = min(backoff * 2, IDLE_BACKOFF_MAX_CYCLES)
                continue
            backoff = IDLE_BACKOFF_MIN_CYCLES
            node = queue.pop()
            ctx.params["_active"] += 1
            ctx.params["_working"][proc] = True
            working = True
            slot = len(queue) % self.queue_capacity
            yield ops.Read("tsp_queue", slot * SLOT_BYTES, SLOT_BYTES)
            yield ops.Release(QUEUE_LOCK)

            # Either path pops ``node`` through the search kernel, which
            # charges a node the visible bound already prunes as one
            # expansion and goes no further.
            visible = yield ops.ReadBound()
            if self.cities - len(node[0]) <= self.leaf_cutoff:
                yield from self._finish_subproblem(ctx, proc, node, visible)
            else:
                yield from self._expand(ctx, proc, node, visible, queue)

        ctx.output[f"expansions_p{proc}"] = ctx.params["_expansions"][proc]

    def _expand(self, ctx: AppContext, proc: int, node: Node,
                visible: float, queue: List[Node]) -> Program:
        """Push every viable child of ``node`` back to the queue."""
        children = [node]
        self._search(children, visible, 1)  # one step: node -> children
        ctx.params["_expansions"][proc] += max(1, len(children))
        yield ops.Compute(CYCLES_PER_EXPANSION * max(1, len(children)))
        if children:
            yield ops.Acquire(QUEUE_LOCK)
            writes = []
            for child in children:
                queue.append(child)
                slot = (len(queue) - 1) % self.queue_capacity
                writes.append(
                    ops.Write("tsp_queue", slot * SLOT_BYTES, SLOT_BYTES))
            # The pushes form a synchronization-free run inside the
            # critical section: issue them as one chunk.
            yield writes[0] if len(writes) == 1 else ops.OpBlock(writes)
            yield ops.Release(QUEUE_LOCK)

    def _finish_subproblem(self, ctx: AppContext, proc: int, node: Node,
                           visible: float) -> Program:
        """Depth-first solve of a leaf subproblem, in chunks.

        Every ``BOUND_POLL_EXPANSIONS`` search nodes the worker
        re-reads the (unsynchronized) global bound and commits any
        improvement it has found.  On hardware the re-read returns the
        freshest committed value; under lazy release consistency it
        returns a value no newer than the worker's last sync point, so
        a lazy worker prunes against a staler bound and expands
        redundant nodes — the §2.4.3 effect.
        """
        best = visible
        stack = [node]
        while True:
            chunk, best, tour = self._search(stack, best,
                                             BOUND_POLL_EXPANSIONS)
            ctx.params["_expansions"][proc] += chunk
            yield ops.Compute(chunk * CYCLES_PER_EXPANSION)
            if tour:
                yield ops.Acquire(BOUND_LOCK)
                improved = yield ops.UpdateBound(best)
                if improved:
                    ctx.params["_best_tour"] = tour
                    yield ops.Write("tsp_bound", 0, 8)
                yield ops.Release(BOUND_LOCK)
            if not stack:
                break
            fresh = yield ops.ReadBound()
            best = min(best, fresh)

    # ------------------------------------------------------------------
    def on_node_failed(self, ctx: AppContext, procs) -> None:
        """Retire dead workers' in-flight queue items.

        A worker that crashes between popping a partial tour and
        retiring it takes the subtree with it (crash-stop loses work —
        ``verify`` accepts that), but its increment of the shared
        active-worker count must not leak: the survivors' termination
        test is "queue empty and nobody active", so a leaked count
        turns completion into an infinite idle-poll loop.
        """
        working = ctx.params.get("_working")
        if not working:
            return
        for p in procs:
            if p < len(working) and working[p]:
                working[p] = False
                ctx.params["_active"] -= 1

    # ------------------------------------------------------------------
    def verify(self, ctx: AppContext) -> Dict[str, object]:
        """Check the parallel optimum against a sequential solve.

        A degraded run (``_failed_nodes`` set by crash recovery) gets
        relaxed acceptance: a crashed worker takes its unexplored
        subtrees with it, so the survivors' best tour only has to be a
        *valid* tour no better than the true optimum — crash-stop
        failures lose work, they must never invent a shorter tour.
        """
        dist = self._tables()[0]
        key = (self.cities, self.coord_seed)
        solved = _SEQ_SOLVE_CACHE.get(key)
        if solved is None:
            solved = self._search([ROOT], math.inf, math.inf)
            _SEQ_SOLVE_CACHE[key] = solved
        expansions, best, tour = solved
        degraded = bool(ctx.params.get("_failed_nodes"))
        best_tour = ctx.params.get("_best_tour")
        if best_tour is None:
            assert degraded, "parallel run found no tour"
            return {
                "optimal_length": float(best),
                "sequential_expansions": expansions,
                "parallel_expansions": sum(ctx.params["_expansions"]),
            }
        assert sorted(best_tour) == list(range(len(best_tour))), (
            "parallel best tour is not a permutation of the cities")
        par_len = sum(dist[best_tour[i]][best_tour[(i + 1) % len(best_tour)]]
                      for i in range(len(best_tour)))
        if degraded:
            assert par_len >= best - 1e-6, (
                f"degraded run produced an impossible tour: {par_len} "
                f"beats the sequential optimum {best}")
        else:
            assert abs(par_len - best) < 1e-6, (
                f"parallel optimum {par_len} != sequential optimum {best}")
        return {
            "optimal_length": float(best),
            "sequential_expansions": expansions,
            "parallel_expansions": sum(
                ctx.params["_expansions"]),
        }
