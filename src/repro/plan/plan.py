"""SolverPlan: the immutable product of one-time planning.

A plan captures everything about a DTM/VTM solve that depends only on
the *matrix* (and the machine): electric graph, partition, EVS split,
DTLP network, factored per-subdomain local systems, the packed
:class:`~repro.core.fleet.FleetKernel` arrays and a *lazily built*
reference factor of the assembled global system (materialized on the
first :meth:`SolverPlan.reference` call; solves that use
reference-free stopping rules never build it).  Executing against a new
right-hand side then costs one back-substitution per subdomain plus the
run itself — no re-partitioning, no re-factorization, no re-packing.

Bitwise contract
----------------
Every session and every in-process engine forks the same plan, so a
solve with the plan's baked-in right-hand side is the same computation
however it is reached: forked locals carry bitwise-equal ``x0``
(block-column and single-column SuperLU back-substitutions agree bit
for bit), and :meth:`SolverPlan.reference` is bitwise
:func:`~repro.linalg.iterative.direct_reference_solution` — the same
SuperLU factor of the same matrix, built once and cached.  The API
tests assert ``solve_dtm`` against the per-message oracle on the same
plan field by field.
"""

from __future__ import annotations

import hashlib
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from ..core.dtl import DtlpNetwork, build_dtlp_network
from ..core.fleet import FleetKernel, build_fleet
from ..core.impedance import ImpedanceStrategy, as_impedance_strategy
from ..core.local import LocalSystem, build_all_local_systems
from ..errors import ConfigurationError
from ..graph.electric import ElectricGraph
from ..graph.evs import DominancePreservingSplit, SplitResult, split_graph
from ..graph.partitioners import greedy_grow_partition, grid_block_partition
from ..linalg.sparse import CsrMatrix
from ..linalg.sparse_cholesky import SparseSpdFactor, factor_sparse_spd
from ..sim.network import ConstantDelay, Topology, complete_topology
from .cache import PlanCache, default_plan_cache

# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
def graph_fingerprint(graph: ElectricGraph) -> str:
    """Content hash of the *matrix* side of an electric graph.

    Sources (the right-hand side) are deliberately excluded: plans are
    right-hand-side independent, so solves against the same matrix with
    different ``b`` share one plan.
    """
    h = hashlib.sha256()
    h.update(str(graph.n).encode())
    h.update(np.ascontiguousarray(graph.vertex_weights).tobytes())
    # canonical edge order: the fingerprint must be content-true so
    # the same matrix hashes identically however its graph was built
    # (construction order vs CSR round trips, e.g. through the network
    # client's register path)
    order = np.lexsort((graph.edge_v, graph.edge_u))
    for arr in (graph.edge_u, graph.edge_v, graph.edge_weights):
        h.update(np.ascontiguousarray(arr[order]).tobytes())
    return h.hexdigest()


def compute_plan_hash(fingerprint: str, key) -> str:
    """Content hash identifying a plan (store/artifact addressing).

    Computable *before* a build — ``get_plan`` has both the graph
    fingerprint and the plan key in hand on a cache miss, which is what
    lets the disk tier look an artifact up without building anything.
    ``repro.runtime.server.plan_hash`` delegates here.
    """
    h = hashlib.sha256()
    h.update(fingerprint.encode())
    h.update(repr(key).encode())
    return h.hexdigest()[:16]


def _topology_token(topology: Optional[Topology]) -> tuple:
    """Value-bearing topology key: link table + delay-model reprs.

    Content-based (not ``id``) so a caller constructing an equal-valued
    topology per call still hits the plan cache — on a hit the cached
    plan's topology object serves the run, which is behaviourally
    identical for constant delays.  Topologies with *stochastic* links
    (anything but :class:`ConstantDelay`) carry per-message RNG state
    that content comparison cannot see, so they key by object identity:
    substituting the cached object would silently change the caller's
    delay-sample stream.
    """
    if topology is None:
        return ("default-topology",)
    if any(not isinstance(model, ConstantDelay)
           for model in topology.links.values()):
        return ("topology-object", id(topology))
    links = tuple(sorted((src, dst, model.value)
                         for (src, dst), model in topology.links.items()))
    return ("topology", topology.name, topology.n_procs, links)


def _impedance_token(impedance) -> tuple:
    if isinstance(impedance, (int, float)):
        return ("z", float(impedance))
    if isinstance(impedance, Mapping):
        return ("z-map", tuple(sorted((int(k), float(v))
                                      for k, v in impedance.items())))
    if isinstance(impedance, ImpedanceStrategy):
        return ("z-strategy", type(impedance).__name__, repr(impedance))
    return ("z-object", id(impedance))


def _split_digest(split: SplitResult) -> str:
    """Content hash of a prebuilt split: what a plan takes from it.

    Each subdomain's CSR triple, global vertices and port count, the
    source fraction of every port and split vertex, and the twin links
    — so the same split hashes alike in every process (sources are
    left out, as in :func:`graph_fingerprint`).
    """
    h = hashlib.sha256()
    for sub in split.subdomains:
        m = sub.matrix
        h.update(repr((sub.part, sub.n_ports, m.shape)).encode())
        for arr in (m.indptr, m.indices, m.data, sub.global_vertices):
            h.update(np.ascontiguousarray(arr).tobytes())
    for weights in split.port_weights:
        h.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    h.update(repr(sorted((v, sorted(f.items()))
                         for v, f in split.source_fractions.items())
                  ).encode())
    h.update(repr([tuple(link.endpoints()) + (link.vertex,)
                   for link in split.twin_links]).encode())
    return h.hexdigest()


def plan_key(graph: ElectricGraph, *, mode: str, n_subdomains: int,
             seed: int, grid_shape, parts_shape, topology, impedance,
             placement, allow_indefinite: bool,
             split: Optional[SplitResult] = None) -> tuple:
    """Hashable identity of a plan build — every plan-affecting input."""
    split_token = ("split", _split_digest(split)) if split is not None \
        else ("auto-split", int(n_subdomains),
              tuple(grid_shape) if grid_shape else None,
              tuple(parts_shape) if parts_shape else None)
    # seed stays in the key even with a prebuilt split: it also seeds
    # the default topology construction
    return (mode, graph_fingerprint(graph), split_token, int(seed),
            _topology_token(topology), _impedance_token(impedance),
            tuple(int(p) for p in placement) if placement else None,
            bool(allow_indefinite))


# ----------------------------------------------------------------------
# system/rhs resolution (the one place the b-override rule lives)
# ----------------------------------------------------------------------
def resolve_rhs(a, b) -> np.ndarray:
    """The right-hand side a call solves for (explicit *b* wins).

    An :class:`ElectricGraph` carries its own sources; an explicit *b*
    overrides them.  A matrix input requires *b*.
    """
    if b is not None:
        return np.asarray(b, dtype=np.float64)
    if isinstance(a, ElectricGraph):
        return np.asarray(a.sources, dtype=np.float64)
    raise ConfigurationError("b is required unless a is an ElectricGraph")


# ----------------------------------------------------------------------
# split construction (shared with repro.api.prepare_split)
# ----------------------------------------------------------------------
def make_split(a, b, n_subdomains: int, *, seed: int = 0,
               grid_shape: Optional[tuple[int, int]] = None,
               parts_shape: Optional[tuple[int, int]] = None
               ) -> SplitResult:
    """Electric graph → partition → EVS, with automatic partitioning.

    If *grid_shape* (and optionally *parts_shape*) is given, the regular
    block partitioner is used (paper §7); otherwise BFS region growing.
    An explicit *b* overrides an :class:`ElectricGraph`'s own sources.
    """
    if isinstance(a, ElectricGraph):
        graph = a
        if b is not None:
            b_arr = np.asarray(b, dtype=np.float64)
            if not np.array_equal(b_arr, graph.sources):
                graph = ElectricGraph(graph.vertex_weights, b_arr,
                                      graph.edge_u, graph.edge_v,
                                      graph.edge_weights)
    else:
        graph = ElectricGraph.from_system(
            a if isinstance(a, CsrMatrix) else
            CsrMatrix.from_dense(np.asarray(a, dtype=np.float64)),
            np.asarray(b, dtype=np.float64))
    if grid_shape is not None:
        nx, ny = grid_shape
        if parts_shape is None:
            side = int(round(np.sqrt(n_subdomains)))
            if side * side != n_subdomains:
                raise ConfigurationError(
                    f"n_subdomains={n_subdomains} is not square; pass "
                    "parts_shape explicitly")
            parts_shape = (side, side)
        partition = grid_block_partition(nx, ny, *parts_shape)
    else:
        partition = greedy_grow_partition(graph, n_subdomains, seed=seed)
    return split_graph(graph, partition,
                       strategy=DominancePreservingSplit())


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(eq=False)
class SolverPlan:
    """Immutable planning product; execute through a session.

    Everything here is treated as read-only after construction: sessions
    *fork* the locals and the fleet template before mutating anything,
    so one plan serves any number of concurrent sessions.
    """

    mode: str  # "dtm" | "vtm"
    graph: ElectricGraph
    split: SplitResult
    topology: Optional[Topology]
    placement: list[int]
    impedance: object
    network: DtlpNetwork
    base_locals: list[LocalSystem]
    fleet_template: FleetKernel
    a_mat: CsrMatrix
    base_b: np.ndarray
    build_seconds: float
    key: Optional[tuple] = None
    #: the right-hand side the *base locals* were factored against —
    #: differs from ``base_b`` only on :meth:`with_base_rhs` views.
    locals_b: Optional[np.ndarray] = field(default=None, repr=False)
    from_cache: bool = field(default=False, compare=False)
    #: reuse counters (surfaced in SolveResult)
    n_sessions: int = field(default=0, compare=False)
    n_solves_served: int = field(default=0, compare=False)
    _ref_factor: Optional[SparseSpdFactor] = field(default=None, repr=False)
    #: guards the mutable bits (reference factor, reuse counters) —
    #: plans are otherwise immutable and shared across sessions/threads
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    @property
    def n_parts(self) -> int:
        return self.split.n_parts

    @property
    def n(self) -> int:
        return self.graph.n

    def fingerprint(self) -> str:
        """Matrix content hash of this plan's system (cached)."""
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            fp = graph_fingerprint(self.graph)
            self._fingerprint = fp
        return fp

    @property
    def forked_locals_rhs(self) -> np.ndarray:
        """The rhs encoded in freshly forked locals (sessions swap from
        here)."""
        return self.locals_b if self.locals_b is not None else self.base_b

    def with_base_rhs(self, b) -> "SolverPlan":
        """A view of this plan whose default right-hand side is *b*.

        Everything expensive stays shared by reference (network,
        factored locals, fleet template, reference factor, lock);
        only the graph/split dressing and ``base_b`` change, so
        ``get_plan(a, b2)`` after a cache hit for ``b1`` still hands
        sessions the right default rhs.  Returns ``self`` when *b*
        already matches.  Reuse counters delegate to the root plan.
        """
        b = np.asarray(b, dtype=np.float64)
        if np.array_equal(b, self.base_b):
            return self
        split = self.split.with_sources(b)
        view = SolverPlan(
            mode=self.mode, graph=split.graph, split=split,
            topology=self.topology, placement=self.placement,
            impedance=self.impedance, network=self.network,
            base_locals=self.base_locals,
            fleet_template=self.fleet_template,
            a_mat=self.a_mat, base_b=b,
            build_seconds=self.build_seconds, key=self.key,
            locals_b=self.forked_locals_rhs,
            from_cache=self.from_cache, _lock=self._lock)
        view._counter_root = self._root()
        return view

    def _root(self) -> "SolverPlan":
        return getattr(self, "_counter_root", self)

    # -- forks ----------------------------------------------------------
    def fork_fleet(self, *, send_threshold: float = 0.0) -> FleetKernel:
        """Session-private runnable fleet over the shared packed arrays.

        Its locals are forks of ``base_locals`` (shared factors/``X``,
        own ``x0``).
        """
        return self.fleet_template.fork(send_threshold=send_threshold)

    def session(self, **opts):
        """A new session over this plan (DTM or VTM per ``mode``)."""
        from .session import SolverSession, VtmSession

        cls = SolverSession if self.mode == "dtm" else VtmSession
        return cls(self, **opts)

    # -- per-rhs helpers ------------------------------------------------
    def spread_sources(self, b) -> list[np.ndarray]:
        """Per-subdomain local right-hand sides for a global *b*."""
        return self.split.spread_sources(b)

    @property
    def reference_materialized(self) -> bool:
        """True once the reference factor has been built.

        A plan whose solves all used reference-free stopping rules
        stays ``False`` — the invariant the production stopping-rule
        tests assert.
        """
        root = self._root()
        with root._lock:
            return root._ref_factor is not None

    def _reference_factor(self) -> SparseSpdFactor:
        """The SuperLU factor of ``a_mat``, built lazily on first use
        exactly as :func:`direct_reference_solution` builds it.

        Planning does not pay for it: a plan whose solves use
        reference-free stopping rules never factors the assembled
        global system at all.  The factor lives on the *root* plan so
        every :meth:`with_base_rhs` view shares one copy.
        """
        root = self._root()
        with root._lock:
            if root._ref_factor is None:
                root._ref_factor = factor_sparse_spd(
                    self.a_mat, allow_indefinite=True)
            return root._ref_factor

    def reference(self, b) -> np.ndarray:
        """High-accuracy reference solution of ``A x = b``.

        Bitwise-identical to ``direct_reference_solution(a_mat, b)``:
        the lazily built factor is the one that call would compute, so
        a reference costs one SuperLU solve.  *b* may be a vector or an
        ``(n, k)`` column block, whose columns are bitwise the
        per-column references.
        """
        return self._reference_factor().solve(np.asarray(b, np.float64))

    def record_solve(self) -> int:
        """Bump and return the number of solves this plan has served."""
        root = self._root()
        with root._lock:
            root.n_solves_served += 1
            if root is not self:
                self.n_solves_served = root.n_solves_served
            return root.n_solves_served

    def record_session(self) -> int:
        """Bump and return the number of sessions opened on this plan."""
        root = self._root()
        with root._lock:
            root.n_sessions += 1
            if root is not self:
                self.n_sessions = root.n_sessions
            return root.n_sessions


# ----------------------------------------------------------------------
# building
# ----------------------------------------------------------------------
def build_plan(a=None, b=None, *, mode: str = "dtm",
               n_subdomains: int = 4,
               topology: Optional[Topology] = None,
               impedance=1.0, seed: int = 0,
               grid_shape: Optional[tuple[int, int]] = None,
               parts_shape: Optional[tuple[int, int]] = None,
               placement: Optional[Sequence[int]] = None,
               allow_indefinite: bool = False,
               split: Optional[SplitResult] = None,
               key: Optional[tuple] = None) -> SolverPlan:
    """Run the one-time planning pipeline and return a :class:`SolverPlan`.

    Accepts either raw system inputs (*a* as matrix/dense array/
    :class:`ElectricGraph`, plus *b* unless *a* carries sources) or a
    prebuilt *split*.  ``mode="vtm"`` builds the synchronous special
    case: unit DTL delays, no machine topology.

    Every local system is factored once by SuperLU, one subdomain
    after another (see :func:`repro.core.local.build_local_system`).
    """
    t0 = time.perf_counter()
    if mode not in ("dtm", "vtm"):
        raise ConfigurationError(f"unknown plan mode {mode!r}")
    if split is None:
        if a is None:
            raise ConfigurationError("build_plan needs a system or a split")
        b = resolve_rhs(a, b)
        split = make_split(a, b, n_subdomains, seed=seed,
                           grid_shape=grid_shape, parts_shape=parts_shape)
    graph = split.graph
    n_parts = split.n_parts
    if placement is None:
        placement = list(range(n_parts))
    placement = [int(p) for p in placement]
    if len(placement) != n_parts:
        raise ConfigurationError(
            f"placement must map all {n_parts} subdomains")
    if key is None:
        # direct build_plan calls (no get_plan) still need a faithful
        # key: plan_hash and the serving store derive identity from it
        key = plan_key(graph, mode=mode, n_subdomains=n_subdomains,
                       seed=seed, grid_shape=grid_shape,
                       parts_shape=parts_shape, topology=topology,
                       impedance=impedance, placement=placement,
                       allow_indefinite=allow_indefinite, split=split)

    if mode == "dtm":
        if topology is None:
            # fully connected by default: an automatic partition's
            # adjacency is not guaranteed to match any particular mesh
            topology = complete_topology(n_parts, delay_low=10.0,
                                         delay_high=100.0, seed=seed)
        for q, p in enumerate(placement):
            if not 0 <= p < topology.n_procs:
                raise ConfigurationError(
                    f"placement[{q}] = {p} is not a processor of the "
                    f"{topology.n_procs}-processor topology")
        topo = topology

        def delay_of(qa: int, qb: int) -> float:
            return topo.nominal_delay(placement[qa], placement[qb])

        delay_spec = delay_of
    else:
        topology = None
        delay_spec = 1.0

    z_list = as_impedance_strategy(impedance).assign(split)
    network = build_dtlp_network(split, z_list, delay_spec)
    base_locals = build_all_local_systems(
        split, network, allow_indefinite=allow_indefinite)
    fleet_template = build_fleet(split, network, base_locals)

    a_mat, base_b = graph.to_system()
    # NB: the reference factor is NOT built here — it
    # materializes lazily on the first reference() call, so plans
    # whose solves use reference-free stopping rules never pay for
    # (or even touch) a direct solution of the global system.
    return SolverPlan(
        mode=mode, graph=graph, split=split, topology=topology,
        placement=placement, impedance=impedance, network=network,
        base_locals=base_locals, fleet_template=fleet_template,
        a_mat=a_mat, base_b=base_b,
        build_seconds=time.perf_counter() - t0, key=key)


#: the keywords :func:`get_plan` forwards to :func:`build_plan` (*a*,
#: *b* and *key* are get_plan's own)
_BUILD_KEYWORDS = frozenset(
    inspect.signature(build_plan).parameters) - {"a", "b", "key"}


def get_plan(a=None, b=None, *, cache: Optional[PlanCache] = None,
             use_cache: bool = True, plan_dir=None, **kwargs) -> SolverPlan:
    """Fetch a plan from the cache, building (and caching) on a miss.

    Key material covers every plan-affecting input (see
    :func:`plan_key`); the returned plan's ``from_cache`` flag reports
    whether this call reused an *in-process* cached plan.

    ``plan_dir`` (a directory path or a prebuilt
    :class:`~repro.plan.diskstore.DiskPlanStore`) adds a persistent
    tier below the in-process cache: on a miss the disk store is
    consulted by :func:`compute_plan_hash` before building, and a
    fresh build is saved back as an mmap-able artifact — so a new
    process (or a restarted server) against the same directory comes
    up warm.  ``plan_dir`` is *not* key material: a loaded plan is
    bitwise-equivalent to a built one.

    A keyword :func:`build_plan` does not take raises
    :class:`ConfigurationError` naming it, on a cache hit as on a miss.
    """
    unknown = sorted(set(kwargs) - _BUILD_KEYWORDS)
    if unknown:
        raise ConfigurationError(
            f"unknown plan keyword(s): {', '.join(unknown)} (a plan "
            f"takes {', '.join(sorted(_BUILD_KEYWORDS))})")
    split = kwargs.get("split")
    rebind_b = None
    if split is not None:
        graph = split.graph
        # equal splits share a key whatever their sources
        rebind_b = np.asarray(graph.sources, dtype=np.float64)
    elif isinstance(a, ElectricGraph):
        graph = a
        rebind_b = resolve_rhs(a, b)
    else:
        graph = ElectricGraph.from_system(
            a if isinstance(a, CsrMatrix) else CsrMatrix.from_dense(
                np.asarray(a, dtype=np.float64)),
            resolve_rhs(a, b))
        a = graph  # reuse the converted graph for the build
        rebind_b = np.asarray(graph.sources, dtype=np.float64)
    key = plan_key(
        graph, mode=kwargs.get("mode", "dtm"),
        n_subdomains=kwargs.get("n_subdomains", 4),
        seed=kwargs.get("seed", 0),
        grid_shape=kwargs.get("grid_shape"),
        parts_shape=kwargs.get("parts_shape"),
        topology=kwargs.get("topology"),
        impedance=kwargs.get("impedance", 1.0),
        placement=kwargs.get("placement"),
        allow_indefinite=kwargs.get("allow_indefinite", False),
        split=split)

    def _build_or_load() -> SolverPlan:
        """Build, with the optional disk tier consulted first."""
        if plan_dir is None:
            return build_plan(a, b, key=key, **kwargs)
        # local import: diskstore -> artifact -> plan would otherwise
        # be a circular import at module load
        from .diskstore import DiskPlanStore

        disk = plan_dir if isinstance(plan_dir, DiskPlanStore) \
            else DiskPlanStore(plan_dir)
        h = compute_plan_hash(graph_fingerprint(graph), key)
        plan = disk.get(h)
        if plan is not None:
            return plan
        plan = build_plan(a, b, key=key, **kwargs)
        disk.put(plan)
        return plan

    if not use_cache:
        # bypasses the in-process cache only; the disk tier (when
        # configured) still serves and persists the plan
        plan = _build_or_load()
        plan.from_cache = False
        return plan
    # explicit None check: an *empty* PlanCache is falsy (__len__)
    cache = cache if cache is not None else default_plan_cache()
    plan, hit = cache.get_or_build(key, _build_or_load)
    if rebind_b is not None:
        # the key excludes sources, so a hit may carry another call's
        # rhs: hand back a view whose default rhs is THIS call's b
        plan = plan.with_base_rhs(rebind_b)
    plan.from_cache = hit
    return plan
