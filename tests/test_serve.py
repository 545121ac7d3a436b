"""Tests for the serving layer: cache, cached execution, service, session.

The contract under test throughout is the one ``docs/serving.md`` states:
caching moves wall-clock, never bits.  Every cached artifact is a pure
function of its key's content, so a hit must be indistinguishable (modulo
timings and the ``cache`` provenance block) from a recompute.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest

from repro.api import (
    DesignRequest,
    get_designer,
    result_from_dict,
    result_to_dict,
    run_request,
)
from repro.core.algorithm import DesignParameters
from repro.core.serialization import problem_digest, solution_digest
from repro.incremental import SinkChurnConfig, churn_stream
from repro.incremental.engine import design_incremental
from repro.serve import (
    ArtifactCache,
    DesignService,
    DesignSession,
    ServiceOverloadedError,
    run_request_cached,
)
from repro.serve.cache import plan_key, request_digest
from repro.serve.service import run_self_test
from repro.workloads.random_instances import RandomInstanceConfig, random_problem


@pytest.fixture(scope="module")
def problem():
    return random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=10, num_sinks=20),
        rng=42,
    )


@pytest.fixture(scope="module")
def parameters():
    return DesignParameters(seed=11)


# ---------------------------------------------------------------------------
# ArtifactCache: LRU, byte budget, counters, spill
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_put_get_and_counters(self):
        cache = ArtifactCache(max_bytes=1 << 20)
        assert cache.get("plan", "k1") is None
        cache.put("plan", "k1", {"value": 1})
        assert cache.get("plan", "k1") == {"value": 1}
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.puts == 1
        assert stats.entries == 1
        assert stats.by_namespace["plan"]["hits"] == 1
        assert 0 < stats.hit_rate < 1

    def test_none_values_are_rejected(self):
        cache = ArtifactCache()
        with pytest.raises(ValueError, match="cannot cache None"):
            cache.put("plan", "k", None)

    def test_lru_eviction_under_byte_pressure(self):
        payload = b"x" * 4096
        budget = 3 * len(pickle.dumps(payload))
        cache = ArtifactCache(max_bytes=budget)
        for index in range(3):
            cache.put("result", f"k{index}", payload)
        # Touch k0 so k1 becomes the least recently used line.
        assert cache.get("result", "k0") is not None
        cache.put("result", "k3", payload)
        assert cache.stats().evictions >= 1
        assert cache.get("result", "k1") is None
        assert cache.get("result", "k0") is not None
        assert cache.get("result", "k3") is not None
        assert cache.stats().current_bytes <= budget

    def test_oversized_artifact_is_admitted_then_evicted_first(self):
        small = b"y" * 64
        cache = ArtifactCache(max_bytes=len(pickle.dumps(small)) + 8)
        cache.put("result", "huge", b"z" * 65536)
        # Larger than the whole budget, but refusing it would be slower than
        # no cache at all.
        assert cache.get("result", "huge") is not None
        cache.put("result", "small", small)
        assert cache.get("result", "huge") is None
        assert cache.get("result", "small") is not None

    def test_spill_and_readmission(self, tmp_path):
        payload = {"rows": list(range(512))}
        size = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        cache = ArtifactCache(max_bytes=2 * size + 64, spill_dir=str(tmp_path))
        cache.put("plan", "a", payload)
        cache.put("plan", "b", payload)
        cache.put("plan", "c", payload)  # evicts "a" to disk
        stats = cache.stats()
        assert stats.evictions >= 1
        assert stats.spills >= 1
        assert any(path.suffix == ".pkl" for path in tmp_path.iterdir())
        # The spilled line comes back transparently and counts as a hit.
        assert cache.get("plan", "a") == payload
        assert cache.stats().spill_hits == 1

    def test_clear_drops_lines_and_spill_files_but_keeps_counters(self, tmp_path):
        cache = ArtifactCache(max_bytes=128, spill_dir=str(tmp_path))
        cache.put("plan", "a", b"p" * 256)
        cache.put("plan", "b", b"q" * 256)
        puts_before = cache.stats().puts
        cache.clear()
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.current_bytes == 0
        assert stats.puts == puts_before
        assert not any(path.suffix == ".pkl" for path in tmp_path.iterdir())
        assert cache.get("plan", "a") is None

    def test_contains_does_not_touch_lru_or_counters(self):
        cache = ArtifactCache()
        cache.put("plan", "k", 1)
        hits_before = cache.stats().hits
        assert cache.contains("plan", "k")
        assert not cache.contains("plan", "missing")
        assert cache.stats().hits == hits_before


# ---------------------------------------------------------------------------
# Digest stability
# ---------------------------------------------------------------------------


class TestDigestStability:
    def test_problem_digest_survives_pickle_and_json_roundtrip(self, problem):
        from repro.core.serialization import problem_from_dict, problem_to_dict

        fresh = problem_digest(problem)
        pickled = problem_digest(pickle.loads(pickle.dumps(problem)))
        rehydrated = problem_digest(
            problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
        )
        assert fresh == pickled == rehydrated

    def test_sharded_solution_digest_is_jobs_independent(self, problem, parameters):
        designer = get_designer("sharded:spaa03")
        digests = {
            solution_digest(
                designer.design(
                    DesignRequest(
                        problem=problem,
                        parameters=parameters,
                        strategy=designer.name,
                        options={"shards": 3, "jobs": jobs},
                    )
                ).solution
            )
            for jobs in (1, 2)
        }
        assert len(digests) == 1

    def test_request_digest_ignores_request_id_but_not_content(
        self, problem, parameters
    ):
        base = DesignRequest(
            problem=problem, parameters=parameters, request_id="a"
        )
        relabeled = DesignRequest(
            problem=problem, parameters=parameters, request_id="b"
        )
        other_strategy = DesignRequest(
            problem=problem, parameters=parameters, strategy="greedy"
        )
        assert request_digest(base) == request_digest(relabeled)
        assert request_digest(base) != request_digest(other_strategy)

    def test_seedless_requests_are_not_digestable(self, problem):
        seedless = DesignRequest(problem=problem, parameters=DesignParameters())
        assert seedless.seed is None
        assert request_digest(seedless) is None


# ---------------------------------------------------------------------------
# run_request_cached: miss -> hit bit-identical payloads
# ---------------------------------------------------------------------------


def _comparable(result) -> dict:
    document = result_to_dict(result)
    document.pop("stage_seconds", None)
    document.pop("cache", None)
    document.pop("request_id", None)
    return document


class TestRunRequestCached:
    def test_hit_is_bit_identical_to_miss(self, problem, parameters):
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters)
        first = run_request_cached(request, cache)
        second = run_request_cached(request, cache)
        assert first.cache["served_from_cache"] is False
        assert first.cache["stages"]["result"] == "miss"
        assert second.cache["served_from_cache"] is True
        assert second.cache["stages"]["result"] == "hit"
        assert _comparable(first) == _comparable(second)

    def test_cached_run_matches_direct_run(self, problem, parameters):
        # Stage-cache hits and misses are reported in ``result.cache`` only;
        # the payload, metadata included, is the direct run's.
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters)
        direct = _comparable(run_request(request))
        for _ in range(2):  # stage misses, then a whole-result hit
            assert _comparable(run_request_cached(request, cache)) == direct

    def test_result_entry_carries_document_and_problem_digest(
        self, problem, parameters
    ):
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters)
        result = run_request_cached(request, cache)
        entry = cache.get("result", result.cache["request_digest"])
        assert set(entry) == {"document", "problem_digest"}
        assert entry["problem_digest"] == problem_digest(problem)
        # The stored payload is the pure computation: provenance is stamped
        # per retrieval, never cached.
        assert entry["document"]["cache"] is None
        rehydrated = result_from_dict(entry["document"], problem)
        assert solution_digest(rehydrated.solution) == solution_digest(
            result.solution
        )

    def test_precomputed_digest_hint_matches_internal_digest(
        self, problem, parameters
    ):
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters)
        digest = request_digest(request)
        first = run_request_cached(request, cache, digest=digest)
        assert first.cache["request_digest"] == digest
        second = run_request_cached(request, cache)
        assert second.cache["served_from_cache"] is True
        assert _comparable(first) == _comparable(second)

    def test_seedless_request_is_never_result_cached(self, problem):
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=DesignParameters())
        first = run_request_cached(request, cache)
        second = run_request_cached(request, cache)
        assert first.cache["stages"]["result"] == "bypass"
        assert second.cache["served_from_cache"] is False
        assert cache.stats().by_namespace.get("result") is None

    def test_bypass_and_no_cache_still_stamp_provenance(self, problem, parameters):
        request = DesignRequest(problem=problem, parameters=parameters)
        uncached = run_request_cached(request, None)
        bypassed = run_request_cached(request, ArtifactCache(), bypass=True)
        for result in (uncached, bypassed):
            assert result.cache["bypass"] is True
            assert result.cache["served_from_cache"] is False

    def test_stage_cache_reuse_across_different_seeds(self, problem):
        # Two requests differing only in rounding seed share formulation/LP
        # lines (the stage sits below the randomness).
        cache = ArtifactCache()
        run_request_cached(
            DesignRequest(problem=problem, parameters=DesignParameters(seed=1)),
            cache,
        )
        result = run_request_cached(
            DesignRequest(problem=problem, parameters=DesignParameters(seed=2)),
            cache,
        )
        assert result.cache["served_from_cache"] is False
        assert result.cache["stages"]["formulate"] == "hit"
        assert result.cache["stages"]["solve"] == "hit"


# ---------------------------------------------------------------------------
# DesignService: dedup, races, stats
# ---------------------------------------------------------------------------


class TestDesignService:
    def test_repeat_digest_burst_joins_in_flight_line(self, problem, parameters):
        request = DesignRequest(problem=problem, parameters=parameters)
        with DesignService(workers=2) as service:
            tickets = [service.submit(request) for _ in range(4)]
            results = [ticket.result(timeout=120) for ticket in tickets]
            stats = service.stats()
        assert stats["deduplicated"] >= 1
        assert stats["completed"] + stats["deduplicated"] == 4
        payloads = {json.dumps(_comparable(r), sort_keys=True) for r in results}
        assert len(payloads) == 1
        dedup = [r for r in results if (r.cache or {}).get("deduplicated")]
        assert len(dedup) == stats["deduplicated"]

    def test_concurrent_submitters_race_one_computation(self, problem, parameters):
        request = DesignRequest(problem=problem, parameters=parameters)
        results = []
        errors = []
        with DesignService(workers=2) as service:
            barrier = threading.Barrier(6)

            def submit():
                barrier.wait()
                try:
                    results.append(service.run(request, timeout=120))
                except Exception as error:  # pragma: no cover - fail loudly
                    errors.append(error)

            threads = [threading.Thread(target=submit) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert not errors
        assert len(results) == 6
        payloads = {json.dumps(_comparable(r), sort_keys=True) for r in results}
        assert len(payloads) == 1
        # Every submission either computed once, joined in flight, or hit the
        # result cache -- never a duplicate compute of the same digest.
        assert stats["cache"]["by_namespace"]["result"]["puts"] == 1

    def test_seedless_requests_are_never_deduplicated(self, problem):
        request = DesignRequest(problem=problem, parameters=DesignParameters())
        with DesignService(workers=2) as service:
            tickets = [service.submit(request) for _ in range(2)]
            for ticket in tickets:
                ticket.result(timeout=120)
            stats = service.stats()
        assert stats["deduplicated"] == 0
        assert stats["completed"] == 2

    def test_errors_are_forwarded_and_counted(self, problem, parameters):
        request = DesignRequest(
            problem=problem, parameters=parameters, strategy="no-such-strategy"
        )
        with DesignService(workers=1) as service:
            with pytest.raises(KeyError, match="no-such-strategy"):
                service.run(request, timeout=120)
            stats = service.stats()
        assert stats["errors"] == 1

    def test_submit_requires_started_service(self, problem, parameters):
        service = DesignService()
        with pytest.raises(RuntimeError, match="not started"):
            service.submit(DesignRequest(problem=problem, parameters=parameters))

    def test_self_test_passes(self):
        """The ``repro serve --self-test`` round trip, as CI runs it."""
        report = run_self_test(verbose=False)
        assert report["ok"]
        assert len(report["checks"]) == 6


# ---------------------------------------------------------------------------
# Backpressure: bounded queue, 429 on the HTTP front
# ---------------------------------------------------------------------------


@pytest.fixture
def gated_runner(monkeypatch):
    """Block the worker's compute behind a gate so the queue fills on cue.

    Yields ``(gate, entered)``: set ``gate`` to release the worker; wait on
    ``entered`` to know it has dequeued the first request.
    """
    import repro.serve.service as service_module

    gate = threading.Event()
    entered = threading.Event()
    real = service_module.run_request_cached

    def gated(request, *args, **kwargs):
        entered.set()
        assert gate.wait(timeout=60), "gate was never released"
        return real(request, *args, **kwargs)

    monkeypatch.setattr(service_module, "run_request_cached", gated)
    yield gate, entered
    gate.set()


class TestBackpressure:
    def test_max_queue_must_be_positive(self):
        with pytest.raises(ValueError, match="max_queue"):
            DesignService(max_queue=0)

    def test_full_queue_rejects_but_dedup_joins_bypass_it(self, problem, gated_runner):
        gate, entered = gated_runner
        requests = [
            DesignRequest(problem=problem, parameters=DesignParameters(seed=seed))
            for seed in (1, 2, 3)
        ]
        with DesignService(workers=1, max_queue=1) as service:
            running = service.submit(requests[0])
            assert entered.wait(timeout=30)
            queued = service.submit(requests[1])
            with pytest.raises(ServiceOverloadedError, match="queue is full"):
                service.submit(requests[2])
            # Equal-digest submits join the in-flight line without a slot...
            assert service.submit(requests[0]).deduplicated
            assert service.submit(requests[1]).deduplicated
            # ...while the rejected digest left no dead in-flight line behind:
            # resubmitting it overloads again instead of joining a future
            # that will never run.
            with pytest.raises(ServiceOverloadedError):
                service.submit(requests[2])
            gate.set()
            assert running.result(timeout=120).solution is not None
            assert queued.result(timeout=120).solution is not None
            stats = service.stats()
        assert stats["rejected"] == 2
        assert stats["deduplicated"] == 2
        assert stats["max_queue"] == 1
        assert stats["completed"] == 2

    def test_http_front_returns_429_with_retry_after(self, problem, gated_runner):
        import urllib.error
        import urllib.request

        from repro.api import request_to_dict
        from repro.serve import DesignServer

        gate, entered = gated_runner
        requests = [
            DesignRequest(problem=problem, parameters=DesignParameters(seed=seed))
            for seed in (1, 2, 3)
        ]
        with DesignServer(DesignService(workers=1, max_queue=1)) as server:
            running = server.service.submit(requests[0])
            assert entered.wait(timeout=30)
            queued = server.service.submit(requests[1])
            body = json.dumps(request_to_dict(requests[2])).encode()
            post = urllib.request.Request(
                server.url + "/design",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(post, timeout=30)
            error = excinfo.value
            assert error.code == 429
            assert error.headers["Retry-After"] == "1"
            assert "queue is full" in json.loads(error.read())["error"]
            gate.set()
            running.result(timeout=120)
            queued.result(timeout=120)
            assert server.service.stats()["rejected"] == 1


# ---------------------------------------------------------------------------
# DesignSession: churn stream equals independent incremental updates
# ---------------------------------------------------------------------------


class TestDesignSession:
    def test_multi_event_stream_matches_independent_updates(
        self, problem, parameters
    ):
        events = ["flash-crowd", "sink-churn", "isp-outage"]
        stream = list(
            churn_stream(
                problem,
                events,
                seed=5,
                churn_config=SinkChurnConfig(fraction=0.15),
            )
        )
        session = DesignSession(
            problem,
            strategy="sharded:spaa03",
            parameters=parameters,
            options={"shards": 2, "jobs": 1},
        )
        standing = session.ensure_design()

        # Independent chain: each event pays its own design_incremental call
        # from the previous state, with no shared plan or stage cache.
        current_problem = problem
        current = standing
        for (_event, delta, new_problem), session_result in zip(
            stream, session.stream(event_delta for _, event_delta, _ in stream)
        ):
            current = design_incremental(
                current,
                new_problem,
                parameters=parameters,
                options={"shards": 2, "jobs": 1},
                previous_problem=current_problem,
                delta=delta,
            )
            current_problem = new_problem
            assert solution_digest(session_result.solution) == solution_digest(
                current.solution
            )

        summary = session.summary()
        assert summary["events"] == len(events)
        # flash-crowd and isp-outage keep the sink set stable, so the
        # standing plan rebinds; sink-churn changes it and rebuilds.
        assert summary["plan_reuses"] == 2
        assert [e.plan_reused for e in session.events] == [True, False, True]

    def test_initial_design_adopts_cached_partition_plan(self, problem, parameters):
        cache = ArtifactCache()
        session = DesignSession(
            problem,
            strategy="sharded:spaa03",
            parameters=parameters,
            options={"shards": 2, "jobs": 1},
            cache=cache,
        )
        session.ensure_design()
        key = plan_key(problem_digest(problem), "auto", 2)
        assert cache.contains("plan", key)
        assert session._plan is not None

    def test_session_provenance_is_stamped(self, problem, parameters):
        session = DesignSession(
            problem,
            parameters=parameters,
            options={"shards": 2, "jobs": 1},
            session_id="prov",
        )
        initial = session.ensure_design()
        assert initial.cache["session_id"] == "prov"
        _event, delta, _new = next(churn_stream(problem, ["flash-crowd"], seed=3))
        result = session.apply_delta(delta)
        assert result.cache["session_id"] == "prov"
        assert result.cache["session_event"] == 1
        assert result.cache["stages"]["plan"] == "session-reuse"

    def test_cache_false_disables_caching(self, problem, parameters):
        session = DesignSession(problem, parameters=parameters, cache=False)
        session.ensure_design()
        assert session.cache is None
        assert session.summary()["cache"] is None


# ---------------------------------------------------------------------------
# Schema: v2 cache block round-trips, v1 documents still load
# ---------------------------------------------------------------------------


class TestResultSchemaVersions:
    def test_v2_roundtrip_preserves_cache_block(self, problem, parameters):
        cache = ArtifactCache()
        result = run_request_cached(
            DesignRequest(problem=problem, parameters=parameters), cache
        )
        document = json.loads(json.dumps(result_to_dict(result)))
        assert document["schema_version"] == 2
        restored = result_from_dict(document, problem)
        assert restored.cache == result.cache

    def test_v1_document_without_cache_block_loads(self, problem, parameters):
        result = get_designer("spaa03").design(
            DesignRequest(problem=problem, parameters=parameters)
        )
        document = result_to_dict(result)
        document["schema_version"] = 1
        del document["cache"]
        restored = result_from_dict(json.loads(json.dumps(document)), problem)
        assert restored.cache is None
        assert solution_digest(restored.solution) == solution_digest(
            result.solution
        )
