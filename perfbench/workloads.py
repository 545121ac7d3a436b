"""The benchmark's three closed-loop workloads over repro's public API.

Each workload builds its inputs from the workload seed in ``setup`` and runs
ops back to back in ``run``; ``check`` then verifies every op's output outside
the timed region.  Nothing here changes how repro computes: the traced run
wraps calls from outside (see ``tracing.py``).
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from speed import probe, scale

#: The paper's guarantees checked on every design: weight >= W/4 for every
#: demand and fanout <= 4F for every reflector, with no demand unserved.
MIN_WEIGHT_FRACTION = 0.25
MAX_FANOUT_FACTOR = 4.0
TOLERANCE = 1e-9

#: Reported as worst_case_loss by workloads that run no catalogue sweep.
UNMEASURED_LOSS = 1.0


@dataclass
class Op:
    op_id: str
    kind: str  # "fresh", "repeat" or "delta"
    sinks: int
    seconds: float = 0.0  # wall
    error: str | None = None
    #: Reference seconds per wall second around the op (see ``speed.py``).
    scale: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class Window:
    """The ops of one timed window and the reference seconds they took.

    ``ref_seconds`` counts the time the program was loaded, in reference
    seconds; the probes between slices are not part of it.
    """

    ops: list[Op] = field(default_factory=list)
    ref_seconds: float = 0.0

    @property
    def ops_per_s(self) -> float:
        done = [op for op in self.ops if op.error is None]
        return len(done) / self.ref_seconds


def design_failures(
    problem, result, bound: float | None, colours: bool = False
) -> list[str]:
    """The per-design invariants: an independent audit, and LP bound <= cost.

    The LP optimum bounds the cost of a design that fully meets every demand
    within the original fanout bounds (as ``tests/test_algorithm.py`` states
    it), and within the colour constraints when the LP had them.  The
    paper's designs may deliver as little as W/4 and use up to 4F, and such
    a design can cost less than the LP bound, so the bound is checked on
    fully feasible designs only.
    """
    from repro.analysis.audit import audit_solution

    failures = []
    audit = audit_solution(problem, result.solution)
    cost = result.total_cost
    feasible = (
        audit.min_weight_fraction >= 1 - TOLERANCE
        and audit.max_fanout_factor <= 1 + TOLERANCE
        and not (colours and audit.color_violations)
    )
    if feasible and bound is not None and bound > cost * (1 + TOLERANCE) + TOLERANCE:
        failures.append(f"LP bound {bound:.6g} exceeds cost {cost:.6g}")
    if audit.min_weight_fraction < MIN_WEIGHT_FRACTION - TOLERANCE:
        failures.append(f"weight fraction {audit.min_weight_fraction:.4f} < 1/4")
    if audit.max_fanout_factor > MAX_FANOUT_FACTOR + TOLERANCE:
        failures.append(f"fanout factor {audit.max_fanout_factor:.4f} > 4")
    if audit.unserved_demands:
        failures.append(f"{audit.unserved_demands} demands unserved")
    return failures


def _timed(op: Op, tracer, call):
    """Run ``call`` as ``op``: time it and record an exception as the error."""
    began = time.perf_counter()
    try:
        with tracer.op(op.op_id) if tracer is not None else nullcontext():
            return call()
    except Exception as error:  # noqa: BLE001 - counted as a failed op
        op.error = repr(error)
        return None
    finally:
        op.seconds = time.perf_counter() - began


class DesignWorkload:
    """One client designing requests back to back, one round at a time.

    Round ``r`` designs the requests of ``rounds[r % len(rounds)]``, each
    round on instances of its own, so a run covers several instances per
    size.  A new round starts while the window's mean round still fits in
    ``seconds``.  Nothing is cached, so every op is a fresh design.  The
    speed probe runs between ops, and each op is scaled by the probes on
    either side of it.
    """

    name = ""
    prefix = ""
    has_tail = False

    def __init__(self) -> None:
        self.rounds: list[list[tuple[Any, int]]] = []  # [(request, sinks)]
        self.outcomes: list[tuple[Op, Any, Any]] = []  # (op, request, outcome)
        self._next_round = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def design(self, request):
        return self._run_request(request)

    def execute(self, request) -> tuple[Any, Any]:
        """One op: returns ``(design result, anything else the op made)``."""
        return self.design(request), None

    def run(self, seconds: float, tracer=None) -> Window:
        window = Window()
        start = time.perf_counter()
        rounds = 0
        before = probe()
        while True:
            for request, sinks in self.rounds[self._next_round % len(self.rounds)]:
                op = Op(f"{self.prefix}{len(self.outcomes):05d}", "fresh", sinks)
                outcome = _timed(op, tracer, lambda: self.execute(request))
                after = probe()
                op.scale = scale(before, after)
                before = after
                window.ref_seconds += op.ref_seconds
                self.outcomes.append((op, request, outcome))
                window.ops.append(op)
            self._next_round += 1
            rounds += 1
            if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
                return window

    def rewind(self) -> None:
        """Start the next window from round 0 again, on the same instances."""
        self._next_round = 0

    def check(self) -> None:
        from repro.core.serialization import solution_digest

        digests: dict[int, str] = {}
        for op, request, outcome in self.outcomes:
            if op.error is not None:
                continue
            result, extra = outcome
            failures = design_failures(
                request.problem,
                result,
                result.lower_bound,
                request.parameters.extensions.use_color_constraints,
            )
            failures += self.check_extra(extra)
            digest = solution_digest(result.solution)
            if digests.setdefault(id(request), digest) != digest:
                failures.append("same (instance, seed) gave another solution digest")
            if failures:
                op.error = "; ".join(failures)
        # Determinism: design the first request once more, untimed.
        op, request, _outcome = self.outcomes[0]
        if op.error is None:
            again = solution_digest(self.design(request).solution)
            if again != digests[id(request)]:
                op.error = "same (instance, seed) gave another solution digest"

    def check_extra(self, extra) -> list[str]:
        return []

    def _results(self) -> list[tuple[Any, Any]]:
        return [outcome for op, _r, outcome in self.outcomes if op.error is None]

    def quality(self) -> dict[str, float]:
        ratios = [
            result.total_cost / result.lower_bound
            for result, _extra in self._results()
            if result.lower_bound
        ]
        return {
            "cost_ratio": sum(ratios) / len(ratios) if ratios else math.inf,
            "worst_case_loss": UNMEASURED_LOSS,
        }

    def layer_state(self) -> dict[str, tuple[float, str]]:
        return {"serve.cache.bytes": (0.0, "bytes"), "serve.dedup": (0.0, "count")}

    def close(self) -> None:
        pass


class DesignInternet(DesignWorkload):
    """The paper pipeline as ``repro design`` runs it, at three sizes.

    ``run_request(strategy="spaa03")`` with default parameters (repair off)
    on ``internet_scale`` instances; a round designs one of 200 sinks, three
    of 300 and one of 400.  The GAP flow dominates each op, and the three
    sizes let the traced run fit a scaling exponent per layer.
    """

    name = "design-internet"
    prefix = "I"
    #: Small enough for several rounds per window: at 300/500/700 sinks a
    #: round took 10-18 s on a 2-vCPU box and five seeds spread by 0.21 in
    #: op_s_p50 and 0.35 in ops_per_s (interquartile range / median).
    #:
    #: op_s_p50 is the median 300-sink design.  With one per round, a slow
    #: host fitted 5-7 rounds in a window, and over ten seeds op_s_p50
    #: spread by 0.12; three per round give the median three times the
    #: designs.
    SIZES = (200, 300, 300, 300, 400)
    POOL = 8

    def setup(self, seed: int) -> None:
        from repro.api import DesignRequest, run_request
        from repro.core.algorithm import DesignParameters
        from repro.workloads.internet_scale import (
            InternetScaleConfig,
            generate_internet_scale_problem,
        )

        self._run_request = run_request
        parameters = DesignParameters(seed=seed)

        def request(sinks: int, rng: list[int]) -> DesignRequest:
            problem, _registry = generate_internet_scale_problem(
                InternetScaleConfig(num_sinks=sinks), rng=rng
            )
            return DesignRequest(problem=problem, parameters=parameters, strategy="spaa03")

        self.rounds = [
            [(request(n, [seed, r, i, n]), n) for i, n in enumerate(self.SIZES)]
            for r in range(self.POOL)
        ]
        # Warm-up: lazy imports and solver start-up are paid here, not by op 1.
        run_request(request(60, [seed, 60]))


class DesignAudit(DesignWorkload):
    """Design with colour constraints, then sweep the failure catalogue.

    One op designs an ``as_geo`` instance (300 sinks, 16 metros) with
    ``spaa03-extended`` under colour constraints and repair, then sweeps the
    design over all 15 catalogue scenarios with A1's window, 20 trials and
    800 packets.  Rounding goes through path rounding, so the GAP flow never
    runs; the sweep is the only place the simulation layer runs.
    """

    name = "design-audit"
    prefix = "D"
    POOL = 12
    #: A1's smoke tier.  At A1's full 600 sinks an op took 6-8 s on a 2-vCPU
    #: box, so a 30 s window held 3-5 ops and op_s_p50 wandered by +-14%.
    SINKS = 300
    METROS = 16
    TRIALS = 20
    PACKETS = 800
    WINDOW = 160
    #: The sweep's seed is fixed.  Each scenario realizes one failure
    #: schedule from it, and across sweep seeds the adversary's pick on one
    #: design moved by +-40% (measured), which would swamp any design change;
    #: the workload seed varies the instances and the design seed instead.
    SWEEP_SEED = 0

    def setup(self, seed: int) -> None:
        from repro.api import DesignRequest, run_request
        from repro.core.algorithm import DesignParameters
        from repro.core.extensions import color_constrained_parameters
        from repro.simulation import evaluate_design
        from repro.workloads.as_geo import AsGeoConfig, generate_as_geo_problem

        self._run_request = run_request
        self._evaluate = evaluate_design
        parameters = color_constrained_parameters(
            DesignParameters(seed=seed, repair_shortfall=True)
        )

        def request(sinks: int, metros: int, rng: list[int]) -> DesignRequest:
            problem, _registry = generate_as_geo_problem(
                AsGeoConfig(num_sinks=sinks, num_metros=metros), rng=rng
            )
            return DesignRequest(
                problem=problem, parameters=parameters, strategy="spaa03-extended"
            )

        self.rounds = [
            [(request(self.SINKS, self.METROS, [seed, r]), self.SINKS)]
            for r in range(self.POOL)
        ]
        warm = request(60, 8, [seed, 60])
        evaluate_design(warm.problem, run_request(warm).solution, trials=2, num_packets=100)

    def execute(self, request):
        result = self.design(request)
        sweep = self._evaluate(
            request.problem,
            result.solution,
            trials=self.TRIALS,
            num_packets=self.PACKETS,
            window=self.WINDOW,
            seed=self.SWEEP_SEED,
        )
        return result, sweep

    def check_extra(self, sweep) -> list[str]:
        bad = [
            f"{scenario}.{metric}"
            for scenario, metrics in sweep.items()
            for metric, value in metrics.items()
            if not math.isfinite(value)
        ]
        return [f"non-finite catalogue metrics: {', '.join(bad)}"] if bad else []

    def quality(self) -> dict[str, float]:
        quality = super().quality()
        worst = [
            max(m["mean_loss"] for name, m in sweep.items() if name != "baseline")
            for _result, sweep in self._results()
        ]
        if worst:
            quality["worst_case_loss"] = sum(worst) / len(worst)
        return quality


_REQUEST_ID = "perfbench-request-id"


def _comparable(document: dict) -> dict:
    """A result document minus per-request provenance."""
    return {
        key: value
        for key, value in document.items()
        if key not in ("request_id", "cache", "stage_seconds")
    }


class ServeChurn:
    """The design service under a fresh/repeat client and a churn client.

    ``DesignServer`` over ``DesignService(workers=2)`` on loopback shares one
    ``ArtifactCache`` with a ``DesignSession``.  Client A POSTs ``/design``
    ``sharded:spaa03`` requests on 1,000-sink ``internet_scale`` instances:
    one fresh digest, then ``REPEATS`` digests already served.  Client B
    streams flash-crowd (3% hot) and 1% sink-churn deltas through the
    session.  Both clients run closed loop, in slices of ``SLICE_S``
    seconds with the speed probe between them; every op of a slice is
    scaled by the probes on either side of it.
    """

    name = "serve-churn"
    has_tail = True
    #: The clients run in slices of about this many seconds; between slices
    #: the loopback service is idle while the speed probe runs, PROBES times.
    SLICE_S = 3.0
    PROBES = 3
    SINKS = 1000
    FRESH_POOL = 6
    REPEATS = 6
    #: The forward delta chain.  A flash crowd and its inverse take about
    #: twice as long as a churn delta.  With one flash crowd in eight, both
    #: delta_s_p50 and op_s_tail fall among the churn deltas and repeats,
    #: not in the gap above them, where they jumped from run to run.  Eight
    #: distinct deltas spread a run over more of the seed's draws.
    FORWARD_DELTAS = ("churn", "churn", "flash") + ("churn",) * 5
    OPTIONS = {"shards": "auto", "jobs": 1}

    def __init__(self) -> None:
        self.server = None
        self.posts: list[Op] = []
        self.updates: list[Op] = []
        self.first: dict[int, tuple[Op, dict]] = {}
        self._served = [0]
        self._next_fresh = 1
        self._repeat_cursor = 0
        self._a_ops = 0

    def setup(self, seed: int) -> None:
        import numpy as np

        from repro.api import DesignRequest, request_to_dict
        from repro.core.algorithm import DesignParameters
        from repro.incremental.churn import (
            SinkChurnConfig,
            flash_crowd_delta,
            sample_sink_churn,
        )
        from repro.incremental.delta import apply_delta, invert_delta
        from repro.serve import ArtifactCache, DesignServer, DesignService, DesignSession
        from repro.workloads.internet_scale import (
            InternetScaleConfig,
            generate_internet_scale_problem,
        )

        parameters = DesignParameters(seed=seed)
        # Index 0 is the session's standing instance; 1.. are client A's
        # fresh digests.
        self.problems = [
            generate_internet_scale_problem(
                InternetScaleConfig(num_sinks=self.SINKS), rng=[seed, 0, index]
            )[0]
            for index in range(1 + self.FRESH_POOL)
        ]
        self.bodies = [
            json.dumps(
                request_to_dict(
                    DesignRequest(
                        problem=problem,
                        parameters=parameters,
                        strategy="sharded:spaa03",
                        options=dict(self.OPTIONS),
                        request_id=_REQUEST_ID,
                    )
                )
            ).encode()
            for problem in self.problems
        ]
        # A forward chain of deltas, then its inverses back to the start: the
        # cycle replays forever from the same standing problem.
        forward = []
        state = self.problems[0]
        for index, kind in enumerate(self.FORWARD_DELTAS):
            rng = np.random.default_rng([seed, 1, index])
            if kind == "flash":
                delta = flash_crowd_delta(state, rng, hot_fraction=0.03)
            else:
                delta = sample_sink_churn(state, SinkChurnConfig(fraction=0.01), rng)
            state = apply_delta(state, delta)
            forward.append(delta)
        self.deltas = forward + [invert_delta(delta) for delta in reversed(forward)]

        self.cache = ArtifactCache()
        self.service = DesignService(cache=self.cache, workers=2)
        self.server = DesignServer(self.service).start()
        self.session = DesignSession(
            self.problems[0],
            strategy="sharded:spaa03",
            parameters=parameters,
            options=dict(self.OPTIONS),
            cache=self.cache,
            session_id="perfbench",
        )
        self.standing = self.session.ensure_design()

    # -- clients -----------------------------------------------------------

    def _post(self, index: int, kind: str) -> None:
        op = Op(f"A{len(self.posts):05d}", kind, self.SINKS)
        body = self.bodies[index].replace(_REQUEST_ID.encode(), op.op_id.encode())

        def call():
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.server.port, timeout=60
            )
            try:
                connection.request(
                    "POST", "/design", body, {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                payload = response.read()
            finally:
                connection.close()
            if response.status != 200:
                raise RuntimeError(f"HTTP {response.status}")
            return json.loads(payload)

        document = _timed(op, None, call)
        self.posts.append(op)
        if document is None:
            return
        # Checked outside the timed op; the full audit of first responses
        # runs after the window (see check).
        if index not in self.first:
            self.first[index] = (op, document)
        elif _comparable(document) != _comparable(self.first[index][1]):
            op.error = "repeat response differs from the first response"
        if kind == "repeat" and not (document.get("cache") or {}).get(
            "served_from_cache"
        ):
            op.error = "repeat was not served from the result cache"

    def _client_a(self, deadline: float) -> None:
        try:
            while time.perf_counter() < deadline:
                fresh = self._a_ops % (self.REPEATS + 1) == 0
                if fresh and self._next_fresh < len(self.problems):
                    self._post(self._next_fresh, "fresh")
                    self._served.append(self._next_fresh)
                    self._next_fresh += 1
                else:
                    index = self._served[self._repeat_cursor % len(self._served)]
                    self._repeat_cursor += 1
                    self._post(index, "repeat")
                self._a_ops += 1
        finally:
            self._a_done.set()

    def _client_b(self, deadline: float, tracer) -> None:
        # B keeps client A's last op of the slice under contention, and
        # stops once A is done; A never starts an op past the deadline.
        while time.perf_counter() < deadline or not self._a_done.is_set():
            delta = self.deltas[len(self.updates) % len(self.deltas)]
            op = Op(f"B{len(self.updates):05d}", "delta", self.SINKS)
            result = _timed(op, tracer, lambda: self.session.apply_delta(delta))
            self.updates.append(op)
            if result is not None:
                failures = design_failures(self.session.problem, result, None)
                if failures:
                    op.error = "; ".join(failures)

    def run(self, seconds: float, tracer=None) -> Window:
        window = Window()
        deadline = time.perf_counter() + seconds
        before = probe(self.PROBES)
        while time.perf_counter() < deadline:
            first_post, first_update = len(self.posts), len(self.updates)
            began = time.perf_counter()
            self._run_slice(min(deadline, began + self.SLICE_S), tracer)
            elapsed = time.perf_counter() - began
            after = probe(self.PROBES)
            ops = self.posts[first_post:] + self.updates[first_update:]
            for op in ops:
                op.scale = scale(before, after)
            window.ref_seconds += elapsed * scale(before, after)
            window.ops += ops
            before = after
        return window

    def _run_slice(self, deadline: float, tracer) -> None:
        self._a_done = threading.Event()
        threads = [
            threading.Thread(target=self._client_a, args=(deadline,), name="client-a"),
            threading.Thread(
                target=self._client_b, args=(deadline, tracer), name="client-b"
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def rewind(self) -> None:
        """Nothing to rewind: the session's standing state only moves on."""

    # -- checks and quality ------------------------------------------------

    def check(self) -> None:
        from repro.api import result_from_dict
        from repro.core.serialization import solution_digest

        self.designs = [
            (op, index, result_from_dict(document, self.problems[index]))
            for index, (op, document) in sorted(self.first.items())
        ]
        for op, index, result in self.designs:
            # A sharded design reports no LP bound: shard_bound_sum counts
            # shared reflector builds once per shard, so it bounds nothing.
            failures = design_failures(self.problems[index], result, None)
            if index == 0 and solution_digest(result.solution) != solution_digest(
                self.standing.solution
            ):
                failures.append("served design differs from the session's")
            if failures:
                op.error = "; ".join(failures)

    def quality(self) -> dict[str, float]:
        designs = [self.standing] + [
            result for op, index, result in self.designs
            if index != 0 and op.error is None
        ]
        ratios = [d.total_cost / d.metadata["shard_bound_sum"] for d in designs]
        return {
            "cost_ratio": sum(ratios) / len(ratios),
            "worst_case_loss": UNMEASURED_LOSS,
        }

    def layer_state(self) -> dict[str, tuple[float, str]]:
        return {
            "serve.cache.bytes": (float(self.cache.stats().current_bytes), "bytes"),
            "serve.dedup": (float(self.service.stats()["deduplicated"]), "count"),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    DesignInternet.name: DesignInternet,
    DesignAudit.name: DesignAudit,
    ServeChurn.name: ServeChurn,
}
