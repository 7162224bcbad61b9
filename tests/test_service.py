"""Service-layer suite: sharded store, job registry, workers, crash-resume.

Covers the three load-bearing guarantees of :mod:`repro.service`:

* the sharded store is **concurrency-safe**: atomic publication, corrupt
  and unreadable entries degrade to misses (counted + logged once), and a
  multi-process stress test sees zero corrupt reads, zero lost writes and
  a 100% warm-repeat hit rate;
* the job registry's **lease protocol** hands each job to exactly one
  worker, and expired leases (dead workers) are reclaimed by exactly one
  contender; claims walk the ``queue/`` index, parsing one record however
  long the history, and a state machine checks the indexed registry under
  crashes, cancels and lease expiry;
* a **killed worker loses no work**: a job reclaimed after its worker died
  after a stage or mid-generation runs again from the shared cache and
  finishes with a payload digest bit-identical to an uninterrupted run,
  the two workers' cache misses adding up to the uninterrupted run's; a
  worker that stalled past its lease leaves the job to the worker that took
  it over; fitted estimators ride the shared store too, so the rerun job
  and a second tenant's identical job restore them instead of fitting
  again.

Run alone with ``pytest -m service``.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import shutil
import tempfile
import time
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.engine import EvalCache
from repro.io import JsonDirectoryStore, ShardedJsonStore
from repro.ml import Regressor
from repro.registry import RegistryError
from repro.service import (
    JOB_FLOWS,
    JobClient,
    JobRecord,
    JobRegistry,
    JobSpec,
    Worker,
    payload_digest,
)

pytestmark = pytest.mark.service

# Small enough for sub-second end-to-end jobs; shared by every worker test
# so their evaluations collapse in per-test-root caches predictably.
TINY_AUTOAX = {
    "parameters": ["area"],
    "num_training_samples": 6,
    "num_random_baseline": 4,
    "hill_climb_iterations": 30,
    "image_size": 16,
    "multiplier_bits": 4,
    "multiplier_library_size": 16,
    "num_multipliers": 4,
    "adder_bits": 8,
    "adder_library_size": 12,
    "num_adders": 3,
}


# --------------------------------------------------------------------- #
# Sharded store semantics
# --------------------------------------------------------------------- #
class TestShardedJsonStore:
    def test_roundtrip_and_shard_layout(self, tmp_path):
        store = ShardedJsonStore(tmp_path / "s", shards=8)
        for index in range(40):
            store.put(f"key-{index}", {"value": index})
        assert len(store) == 40
        assert store.get("key-7") == {"value": 7}
        assert store.get("missing") is None
        # Entries are spread over hex-named shard subdirectories.
        shard_dirs = [p for p in (tmp_path / "s").iterdir() if p.is_dir()]
        assert 1 < len(shard_dirs) <= 8
        assert all(len(p.name) == 4 for p in shard_dirs)

    def test_flat_layout_is_json_directory_store_compatible(self, tmp_path):
        # JsonDirectoryStore is now a shards=1 wrapper; a directory written
        # by one must be readable by the other (historical warm caches).
        legacy = JsonDirectoryStore(tmp_path / "flat")
        legacy.put("alpha", [1, 2, 3])
        reopened = ShardedJsonStore(tmp_path / "flat", shards=1)
        assert reopened.get("alpha") == [1, 2, 3]
        reopened.put("beta", {"x": 1})
        assert JsonDirectoryStore(tmp_path / "flat").get("beta") == {"x": 1}
        # Flat layout keeps entries directly in the directory.
        assert not any(p.is_dir() for p in (tmp_path / "flat").iterdir())

    def test_shard_count_mismatch_raises(self, tmp_path):
        ShardedJsonStore(tmp_path / "s", shards=4).put("k", 1)
        with pytest.raises(ValueError, match="shard"):
            ShardedJsonStore(tmp_path / "s", shards=8)

    def test_invalid_shard_count_raises(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedJsonStore(tmp_path / "s", shards=0)

    def test_overwrite_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        store = ShardedJsonStore(tmp_path / "s", shards=4)
        for round_number in range(3):
            store.put("key", {"round": round_number})
        assert store.get("key") == {"round": 2}
        assert len(store) == 1
        leftovers = [p for p in (tmp_path / "s").rglob("*.tmp")]
        assert leftovers == []

    def test_corrupt_entry_is_a_counted_miss_logged_once(self, tmp_path, caplog):
        store = ShardedJsonStore(tmp_path / "s", shards=2)
        store.put("first", 1)
        store.put("second", 2)
        for entry in (tmp_path / "s").rglob("*.json"):
            entry.write_text("{not json", encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.io"):
            assert store.get("first") is None
            assert store.get("second") is None
        assert store.corrupt_count == 2
        # Logged once per store instance, not once per corrupt entry.
        warnings = [r for r in caplog.records if "corrupt" in r.getMessage().lower()]
        assert len(warnings) == 1
        # Healthy writes keep working after corruption.
        store.put("first", 10)
        assert store.get("first") == 10

    def test_unreadable_entry_is_a_counted_miss_logged_once(self, tmp_path, caplog):
        """A directory at an entry's path raises ``IsADirectoryError``, an
        ``OSError`` that is not a missing file: a miss counted apart from
        missing and corrupt entries, logged once."""
        store = ShardedJsonStore(tmp_path / "s", shards=2)
        store.put("first", 1)
        store.put("second", 2)
        for key in ("first", "second"):
            path = store._path(key)
            path.unlink()
            path.mkdir()
        with caplog.at_level("WARNING", logger="repro.io"):
            assert store.get("first") is None
            assert store.get("second") is None
            assert list(store.keys()) == []
        assert store.get("missing") is None
        assert store.unreadable_count == 4  # two from get, two from keys
        assert store.corrupt_count == 0
        warnings = [r for r in caplog.records if "unreadable" in r.getMessage().lower()]
        assert len(warnings) == 1

    def test_non_utf8_entry_is_a_counted_miss(self, tmp_path):
        # A torn or mangled entry need not even be UTF-8; it must degrade
        # to a counted miss like corrupt JSON, not raise out of ``get``.
        store = ShardedJsonStore(tmp_path / "s", shards=2)
        store.put("first", 1)
        (entry,) = (tmp_path / "s").rglob("*.json")
        entry.write_bytes(b"\xff\x00\x01")
        store.put("second", 2)
        assert store.get("first") is None
        assert store.get("second") == 2
        assert list(store.keys()) == ["second"]
        assert store.corrupt_count == 2  # once from get, once from keys
        store.put("first", 10)
        assert store.get("first") == 10

    def test_keys_clear_contains(self, tmp_path):
        store = ShardedJsonStore(tmp_path / "s", shards=4)
        store.put("a", 1)
        store.put("b", 2)
        assert "a" in store and "zzz" not in store
        assert sorted(store.keys()) == ["a", "b"]
        store.clear()
        assert len(store) == 0


class TestCacheCorruptTelemetry:
    def test_eval_cache_surfaces_corrupt_counter(self, tmp_path):
        store = ShardedJsonStore(tmp_path / "cache", shards=2)
        cache = EvalCache(capacity=4, store=store)
        cache.put("key", {"v": 1})
        for entry in (tmp_path / "cache").rglob("*.json"):
            entry.write_text("garbage", encoding="utf-8")
        cache.clear()  # drop the memory layer, force the disk read
        assert cache.get("key") is None
        stats = cache.stats()
        assert stats.corrupt == 1
        assert stats.misses == 1
        assert stats.as_dict()["corrupt"] == 1
        # The delta view propagates the counter too.
        assert cache.stats().since(stats).corrupt == 0

    def test_eval_cache_surfaces_unreadable_counter(self, tmp_path):
        store = ShardedJsonStore(tmp_path / "cache", shards=2)
        cache = EvalCache(capacity=4, store=store)
        cache.put("key", {"v": 1})
        path = store._path("key")
        path.unlink()
        path.mkdir()
        cache.clear()  # drop the memory layer, force the disk read
        before = cache.stats()
        assert cache.get("key") is None
        stats = cache.stats()
        assert stats.unreadable == 1 and stats.corrupt == 0
        assert stats.misses == 1
        assert stats.as_dict()["unreadable"] == 1
        assert stats.since(before).unreadable == 1


# --------------------------------------------------------------------- #
# Registry: records, leases, claims
# --------------------------------------------------------------------- #
def _expire_lease(registry, job_id):
    """Age a lease past its TTL by rewriting its heartbeat, without sleeping."""
    path = registry.leases_dir / f"{job_id}.lease"
    lease = json.loads(path.read_text(encoding="utf-8"))
    lease["heartbeat"] -= 2 * registry.lease_ttl
    path.write_text(json.dumps(lease), encoding="utf-8")


def _queued_record(job_id, submitted_at=None):
    """A queued record as ``submit`` writes it, to be published without a
    marker: what a crash between ``submit``'s two writes leaves behind."""
    return JobRecord(
        job_id=job_id,
        spec=JobSpec(flow="autoax"),
        submitted_at=time.time() if submitted_at is None else submitted_at,
    )


class TestJobRegistry:
    def test_submit_get_list_cancel(self, tmp_path):
        registry = JobRegistry(tmp_path)
        record = registry.submit(JobSpec(flow="autoax", params={"seed": 1}, tenant="alice"))
        assert record.state == "queued"
        assert registry.get(record.job_id).spec.tenant == "alice"
        registry.submit(JobSpec(flow="autoax", tenant="bob"), job_id="bobs-job")
        assert [r.spec.tenant for r in registry.list_jobs(tenant="alice")] == ["alice"]
        assert len(registry.list_jobs(state="queued")) == 2
        assert registry.cancel("bobs-job") is True
        assert registry.get("bobs-job").state == "cancelled"
        assert registry.cancel("bobs-job") is False  # only queued jobs cancel

    def test_duplicate_and_invalid_job_ids_raise(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit(JobSpec(flow="autoax"), job_id="job-1")
        with pytest.raises(ValueError, match="already exists"):
            registry.submit(JobSpec(flow="autoax"), job_id="job-1")
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                registry.submit(JobSpec(flow="autoax"), job_id=bad)
        with pytest.raises(KeyError):
            registry.get("never-submitted")

    def test_spec_token_ignores_tenant(self):
        # Content addressing: identical work from different tenants must
        # collapse onto the same cache entries.
        alice = JobSpec(flow="autoax", params={"seed": 3}, tenant="alice")
        bob = JobSpec(flow="autoax", params={"seed": 3}, tenant="bob")
        other = JobSpec(flow="autoax", params={"seed": 4}, tenant="alice")
        assert alice.token() == bob.token()
        assert alice.token() != other.token()

    def test_record_with_restored_stage_list_still_loads(self, tmp_path):
        """A record written when workers still listed the stages they
        restored from checkpoints loads, and is rewritten without the list."""
        registry = JobRegistry(tmp_path)
        record = registry.submit(JobSpec(flow="autoax"), job_id="old")
        raw = dict(record.as_dict(), state="done", resumed_stages=["collect-samples"])
        registry._record_path("old").write_text(json.dumps(raw), encoding="utf-8")
        loaded = registry.get("old")
        assert loaded.state == "done" and loaded.spec == record.spec
        assert "resumed_stages" not in loaded.as_dict()

    def test_claim_is_exclusive(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit(JobSpec(flow="autoax"), job_id="only")
        first = registry.claim("worker-a")
        assert first is not None and first.state == "running" and first.attempts == 1
        assert registry.claim("worker-b") is None  # lease held, nothing queued

    def test_expired_lease_is_reclaimed_exactly_once(self, tmp_path):
        registry = JobRegistry(tmp_path, lease_ttl=0.05)
        registry.submit(JobSpec(flow="autoax"), job_id="orphan")
        assert registry.claim("worker-a").job_id == "orphan"
        time.sleep(0.1)  # worker-a "dies": no heartbeats, lease expires
        assert registry.lease_expired("orphan")
        reclaimed = registry.claim("worker-b")
        assert reclaimed.job_id == "orphan"
        assert reclaimed.attempts == 2
        assert registry.lease_info("orphan")["worker"] == "worker-b"
        # worker-a's stale credentials are now rejected.
        with pytest.raises(RuntimeError, match="no longer held"):
            registry.heartbeat("orphan", "worker-a")
        registry.heartbeat("orphan", "worker-b")  # owner renews fine

    def test_non_utf8_files_do_not_wedge_the_queue(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit(JobSpec(flow="autoax"), job_id="good")
        garbage = b"\xff\x00\x01"
        (registry.jobs_dir / "garbage.json").write_bytes(garbage)
        assert [record.job_id for record in registry.list_jobs()] == ["good"]
        assert registry.claim("worker-a").job_id == "good"
        (registry.leases_dir / "good.lease").write_bytes(garbage)
        assert registry.lease_info("good") is None
        registry.store_result("good", {"answer": 1}, "digest")
        (registry.results_dir / "good.json").write_bytes(garbage)
        assert registry.result("good") is None

    @pytest.mark.parametrize(
        "content",
        [b"\xff\x00\x01", b'{"job_id": "broken", "spec": {"fl', b'{"job_id": "broken"}'],
        ids=["non-utf8", "torn-json", "no-spec"],
    )
    def test_corrupt_record_raises_one_error_naming_job_and_path(self, tmp_path, content):
        """Neither the ``KeyError`` of an unknown job nor the ``ValueError``
        of an unfinished one: a ``RuntimeError`` naming the job and file."""
        client = JobClient(tmp_path)
        job_id = client.submit("autoax", {}, job_id="broken")
        path = client.registry.jobs_dir / "broken.json"
        path.write_bytes(content)
        for call in (client.status, client.result, client.cancel):
            with pytest.raises(RuntimeError, match="broken") as caught:
                call(job_id)
            assert str(path) in str(caught.value)

    def test_claim_releases_and_skips_a_record_unreadable_after_listing(
        self, tmp_path, monkeypatch
    ):
        registry = JobRegistry(tmp_path)
        registry.submit(JobSpec(flow="autoax"), job_id="first")
        registry.submit(JobSpec(flow="autoax"), job_id="second")
        acquire = registry._try_acquire_lease

        def corrupt_then_acquire(job_id, worker_id):
            # The marker was listed while the record was still readable.
            if job_id == "first":
                (registry.jobs_dir / "first.json").write_bytes(b"\xff\x00\x01")
            return acquire(job_id, worker_id)

        monkeypatch.setattr(registry, "_try_acquire_lease", corrupt_then_acquire)
        assert registry.claim("worker-a").job_id == "second"
        assert registry.lease_info("first") is None  # released, not leaked

    def test_claim_skips_cancelled_jobs(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit(JobSpec(flow="autoax"), job_id="gone")
        registry.cancel("gone")
        assert registry.claim("worker-a") is None
        assert registry.lease_info("gone") is None  # no lease left behind

    def test_queued_job_whose_claimer_died_holding_its_lease_is_reclaimed(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit(JobSpec(flow="autoax"), job_id="stuck")
        # The claimer died after leasing the job, before marking it running.
        assert registry._try_acquire_lease("stuck", "dead-worker")
        assert registry.claim("worker-b") is None  # its lease is still live
        _expire_lease(registry, "stuck")
        reclaimed = registry.claim("worker-b")
        assert reclaimed.job_id == "stuck" and reclaimed.attempts == 1
        assert registry.lease_info("stuck")["worker"] == "worker-b"
        assert list(registry.queue_dir.iterdir()) == []  # the takeover took its marker

    def test_lease_left_on_a_finished_job_is_cleaned_up(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit(JobSpec(flow="autoax"), job_id="finished")
        record = registry.claim("worker-a")
        record.state = "done"
        registry.update(record)  # ... and worker-a died before releasing
        _expire_lease(registry, "finished")
        assert registry.claim("worker-b") is None
        assert list(registry.leases_dir.iterdir()) == []
        assert registry.get("finished").attempts == 1


class TestQueueIndex:
    """``queue/`` markers: counted claim work, recovery, order, staleness."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Counts the records parsed (``JobRecord.from_dict`` calls)."""
        counts = Counter()
        from_dict = JobRecord.from_dict.__func__

        def counted(cls, raw):
            counts["records"] += 1
            return from_dict(cls, raw)

        monkeypatch.setattr(JobRecord, "from_dict", classmethod(counted))
        return counts

    @pytest.mark.parametrize("history", [0, 1000])
    def test_claim_parses_one_record_whatever_the_history(self, tmp_path, parsed, history):
        registry = JobRegistry(tmp_path)
        spec = JobSpec(flow="autoax", tenant="history")
        for index in range(history):
            at = 1.0e9 + index
            registry.update(
                JobRecord(
                    job_id=f"history-{index:05d}", spec=spec, state="done",
                    submitted_at=at, finished_at=at + 1.0, attempts=1,
                )
            )
        registry.submit(JobSpec(flow="autoax"), job_id="next")
        parsed.clear()
        assert registry.claim("worker-a").job_id == "next"
        assert parsed["records"] == 1  # the claimed job's own record
        # The registry's first idle claim runs the one full recovery scan;
        # later idle claims list queue/ and leases/ and parse nothing.
        assert registry.claim("worker-a") is None
        assert parsed["records"] == 1 + history + 1
        parsed.clear()
        assert registry.claim("worker-a") is None
        assert parsed["records"] == 0

    @pytest.mark.parametrize(
        "neighbour",
        [
            None,
            b"\xff\x00\x01",
            b'{"job_id": "broken", "spec": {"fl',
            b'{"job_id": "broken"}',
            b'{"job_id": "broken", "spec": null}',
        ],
        ids=["alone", "non-utf8", "torn-json", "no-spec", "null-spec"],
    )
    def test_recovery_scan_claims_a_queued_record_without_a_marker(self, tmp_path, neighbour):
        registry = JobRegistry(tmp_path)
        if neighbour is not None:  # a corrupt record the scan must skip
            (registry.jobs_dir / "broken.json").write_bytes(neighbour)
        registry.update(_queued_record("orphan"))
        assert list(registry.queue_dir.iterdir()) == []
        record = registry.claim("worker-a")
        assert record.job_id == "orphan" and record.attempts == 1
        assert list(registry.queue_dir.iterdir()) == []

    def test_recovery_scan_runs_once_per_lease_ttl_per_registry(self, tmp_path):
        registry = JobRegistry(tmp_path, lease_ttl=60.0)
        assert registry.claim("worker-a") is None  # scanned: nothing queued
        registry.update(_queued_record("late"))
        assert registry.claim("worker-a") is None  # the next scan is due later
        assert JobRegistry(tmp_path).claim("worker-b").job_id == "late"

    @pytest.mark.parametrize("damage", ["missing", "unreadable"])
    def test_marker_of_a_missing_or_unreadable_record_is_dropped(self, tmp_path, damage):
        registry = JobRegistry(tmp_path)
        registry.submit(JobSpec(flow="autoax"), job_id="broken")
        registry.submit(JobSpec(flow="autoax"), job_id="fine")
        record_path = registry.jobs_dir / "broken.json"
        if damage == "missing":
            record_path.unlink()
        else:
            record_path.write_bytes(b"\xff\x00\x01")
        assert registry.claim("worker-a").job_id == "fine"
        assert registry.lease_info("broken") is None  # released, not leaked
        assert list(registry.queue_dir.iterdir()) == []  # both markers consumed
        assert registry.claim("worker-a") is None

    def test_a_file_in_queue_that_names_no_job_is_dropped(self, tmp_path):
        registry = JobRegistry(tmp_path)
        (registry.queue_dir / "junk").touch()
        assert registry.claim("worker-a") is None
        assert list(registry.queue_dir.iterdir()) == []
        assert list(registry.leases_dir.iterdir()) == []

    def test_cancel_removes_the_marker(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.submit(JobSpec(flow="autoax"), job_id="kept")
        registry.submit(JobSpec(flow="autoax"), job_id="gone")
        assert len(list(registry.queue_dir.iterdir())) == 2
        assert registry.cancel("gone")
        (marker,) = registry.queue_dir.iterdir()
        assert marker.name.endswith("-kept")

    @staticmethod
    def _claim_all(registry):
        expected = [record.job_id for record in registry.list_jobs(state="queued")]
        claimed = [registry.claim("worker-a").job_id for _ in expected]
        assert registry.claim("worker-a") is None
        return expected, claimed

    def test_claims_come_out_in_list_jobs_order(self, tmp_path):
        submitted = JobRegistry(tmp_path / "submitted")
        for job_id in ("charlie", "alpha", "bravo"):
            submitted.submit(JobSpec(flow="autoax"), job_id=job_id)
        expected, claimed = self._claim_all(submitted)
        assert claimed == expected == ["charlie", "alpha", "bravo"]

        # Markers the recovery scan writes keep the order too, ties by job id.
        recovered = JobRegistry(tmp_path / "recovered")
        for job_id, at in (("tie-b", 5.0), ("newest", 7.5), ("tie-a", 5.0), ("oldest", 3.0)):
            recovered.update(_queued_record(job_id, submitted_at=at))
        expected, claimed = self._claim_all(recovered)
        assert claimed == expected == ["oldest", "tie-a", "tie-b", "newest"]


# --------------------------------------------------------------------- #
# Client + worker end to end
# --------------------------------------------------------------------- #
class TestClientAndWorker:
    def test_submit_rejects_unknown_flow(self, tmp_path):
        with pytest.raises(RegistryError):
            JobClient(tmp_path).submit("no-such-flow", {})

    def test_result_state_errors(self, tmp_path):
        client = JobClient(tmp_path)
        job_id = client.submit("autoax", TINY_AUTOAX)
        with pytest.raises(ValueError, match="queued"):
            client.result(job_id)

    def test_tiny_autoax_job_end_to_end(self, tmp_path):
        client = JobClient(tmp_path, tenant="alice")
        job_id = client.submit("autoax", TINY_AUTOAX)
        record = Worker(tmp_path, engine_mode="serial").run_once()
        assert record.job_id == job_id
        assert record.state == "done"
        assert record.digest == payload_digest(client.result(job_id))
        assert record.worker and record.elapsed_s > 0
        # Per-stage progress reached the record, and per-job cache telemetry
        # is the delta attributable to this job.
        assert record.progress["status"] == "completed"
        assert record.cache["misses"] > 0 and record.cache["corrupt"] == 0
        assert client.status(job_id).state == "done"
        payload = client.result(job_id)
        assert payload["flow"] == "autoax"
        assert payload["scenarios"]["area"]["front"]

    def test_worker_keeps_no_finished_run_and_frees_without_the_collector(self, tmp_path):
        # A finished job's run state held the worker's ``on_generation``
        # closure: worker -> session -> runs -> state -> closure -> worker.
        JobClient(tmp_path).submit("autoax", TINY_AUTOAX)
        worker = Worker(tmp_path, engine_mode="serial")
        gc.disable()
        try:
            assert worker.run_once().state == "done"
            assert worker.session.runs == {}
            alive = weakref.ref(worker)
            del worker
            assert alive() is None  # freed by reference counting alone
        finally:
            gc.enable()

    def test_bare_string_parameters_fail_the_job_naming_the_value(self, tmp_path):
        client = JobClient(tmp_path)
        job_id = client.submit("autoax", dict(TINY_AUTOAX, parameters="area"))
        record = Worker(tmp_path, engine_mode="serial").run_once()
        assert record.job_id == job_id and record.state == "failed"
        assert "ValueError" in record.error and "'area'" in record.error

    def test_failed_flow_marks_job_failed_and_releases_lease(self, tmp_path):
        @JOB_FLOWS.register("always-fails")
        def _always_fails(session, params, *, run_id, progress=None, on_generation=None):
            session.runs[run_id] = None  # a run that finished before the raise
            raise RuntimeError("intentional test failure")

        try:
            client = JobClient(tmp_path)
            job_id = client.submit("always-fails", {})
            worker = Worker(tmp_path, engine_mode="serial")
            record = worker.run_once()
        finally:
            # The README's registry table lists the built-in flows only.
            JOB_FLOWS.unregister("always-fails")
        assert record.state == "failed"
        assert "intentional test failure" in record.error
        assert client.registry.lease_info(job_id) is None  # released, not leaked
        assert worker.session.runs == {}
        with pytest.raises(RuntimeError, match="intentional"):
            client.result(job_id)

    def test_wait_timeout_never_overshoots(self, tmp_path):
        # Regression: each sleep used to be a full poll_interval, so a
        # wait(timeout=0.2, poll_interval=10) blocked for 10 seconds.
        client = JobClient(tmp_path)
        job_id = client.submit("autoax", TINY_AUTOAX)  # queued, no worker
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="queued"):
            client.wait(job_id, timeout=0.2, poll_interval=10.0)
        assert time.monotonic() - start < 2.0

    def test_wait_timeout_zero_is_a_single_immediate_check(self, tmp_path):
        client = JobClient(tmp_path)
        job_id = client.submit("autoax", TINY_AUTOAX)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            client.wait(job_id, timeout=0)
        assert time.monotonic() - start < 0.5
        # A finished job is returned by the same immediate check.
        Worker(tmp_path, engine_mode="serial").run_once()
        assert client.wait(job_id, timeout=0).state == "done"

    def test_wait_rejects_negative_timeout(self, tmp_path):
        client = JobClient(tmp_path)
        job_id = client.submit("autoax", TINY_AUTOAX)
        with pytest.raises(ValueError, match="non-negative"):
            client.wait(job_id, timeout=-1.0)

    def test_worker_rejects_cache_store_overrides(self, tmp_path):
        with pytest.raises(ValueError, match="owned by the registry"):
            Worker(tmp_path, cache=object())

    def test_worker_cli_once(self, tmp_path, capsys):
        from repro.service import worker as worker_module

        JobClient(tmp_path).submit("autoax", TINY_AUTOAX)
        assert worker_module.main(["--root", str(tmp_path), "--once"]) == 0
        assert "-> done" in capsys.readouterr().out
        # Idle queue: --once reports idle and still exits cleanly.
        assert worker_module.main(["--root", str(tmp_path), "--once"]) == 0
        assert "idle" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Crash-resume: a dead worker's job finishes bit-identically
# --------------------------------------------------------------------- #
class KilledAfterStage(Worker):
    """Dies (BaseException, as a real SIGKILL would strand state) right
    after a named pipeline stage completes."""

    def __init__(self, *args, kill_after: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.kill_after = kill_after

    def _heartbeat(self, record):
        super()._heartbeat(record)
        progress = record.progress or {}
        if progress.get("stage") == self.kill_after and progress.get("status") == "completed":
            raise KeyboardInterrupt("simulated worker death")


class KilledMidGeneration(Worker):
    """Dies mid-search, after its heartbeat has fired ``generations`` times
    inside the scenario stage."""

    def __init__(self, *args, generations: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.generations = generations
        self.generation_beats = 0

    def _heartbeat(self, record):
        super()._heartbeat(record)
        progress = record.progress or {}
        if progress.get("status") == "started" and progress.get("stage", "").startswith(
            "scenario-"
        ):
            self.generation_beats += 1
            if self.generation_beats >= self.generations:
                raise KeyboardInterrupt("simulated worker death mid-generation")


class StallsPastItsLease(Worker):
    """Stalls through one heartbeat: its lease expires meanwhile and
    ``rival`` takes the job over before the heartbeat reaches the registry.
    It stalls on its first heartbeat or, given ``after_stage``, on the first
    one after the heartbeat that reported that stage completed -- for the
    last stage, the heartbeat that guards the result."""

    def __init__(self, *args, rival: Worker, after_stage=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.rival = rival
        self.after_stage = after_stage
        self.armed = after_stage is None
        self.taken_over = None

    def _heartbeat(self, record):
        if self.armed and self.taken_over is None:
            _expire_lease(self.registry, record.job_id)
            self.taken_over = self.rival.registry.claim(self.rival.worker_id)
        super()._heartbeat(record)
        progress = record.progress or {}
        if progress.get("stage") == self.after_stage and progress.get("status") == "completed":
            self.armed = True


def _run_reference(tmp_path, params) -> JobRecord:
    """The same job run uninterrupted in a pristine root."""
    registry = JobRegistry(tmp_path / "reference")
    JobClient(registry).submit("autoax", params, job_id="reference")
    record = Worker(registry, engine_mode="serial").run_once()
    assert record.state == "done"
    return record


class TestCrashResume:
    @pytest.mark.parametrize("kill_after", ["collect-samples", "scenario-area"])
    @pytest.mark.parametrize("strategy", ["hill_climb", "random_archive", "nsga2", "sh_ehvi"])
    def test_kill_after_stage_then_resume_is_bit_identical(self, tmp_path, strategy, kill_after):
        """The reclaiming worker reproduces the uninterrupted digest and
        computes nothing the dead worker stored: their cache misses add up
        to the uninterrupted run's."""
        params = dict(TINY_AUTOAX, search_strategy=strategy)
        reference = _run_reference(tmp_path, params)

        registry = JobRegistry(tmp_path / "service", lease_ttl=0.05)
        JobClient(registry).submit("autoax", params, job_id="victim")
        killer = KilledAfterStage(registry, engine_mode="serial", kill_after=kill_after)
        with pytest.raises(KeyboardInterrupt):
            killer.run_once()

        # The dying worker marked nothing: the job is still running with a
        # lease that will expire, exactly like a SIGKILLed process.
        assert registry.get("victim").state == "running"
        assert registry.lease_info("victim") is not None
        time.sleep(0.1)

        record = Worker(registry, engine_mode="serial").run_once()
        assert record.job_id == "victim"
        assert record.state == "done"
        assert record.attempts == 2
        assert record.digest == reference.digest
        assert killer.session.stats().misses > 0 and record.cache["disk_hits"] > 0
        assert killer.session.stats().misses + record.cache["misses"] == reference.cache["misses"]

    def test_kill_mid_generation_then_resume_is_bit_identical(self, tmp_path):
        params = dict(TINY_AUTOAX, search_strategy="nsga2")
        reference_digest = _run_reference(tmp_path, params).digest

        registry = JobRegistry(tmp_path / "service", lease_ttl=0.05)
        JobClient(registry).submit("autoax", params, job_id="victim")
        killer = KilledMidGeneration(registry, engine_mode="serial", generations=3)
        with pytest.raises(KeyboardInterrupt):
            killer.run_once()
        assert killer.generation_beats == 3
        assert registry.get("victim").state == "running"
        time.sleep(0.1)

        record = Worker(registry, engine_mode="serial").run_once()
        assert record.state == "done"
        assert record.attempts == 2
        assert record.digest == reference_digest

    def test_old_checkpoint_directory_is_ignored(self, tmp_path):
        """A root that still holds checkpoints under ``artifacts/`` (stage
        payloads keyed by the job id) runs the job from the shared cache
        alone: the old entries are neither read nor rewritten."""
        reference = _run_reference(tmp_path, TINY_AUTOAX)

        registry = JobRegistry(tmp_path / "service")
        JobClient(registry).submit("autoax", TINY_AUTOAX, job_id="victim")
        artifacts = ShardedJsonStore(registry.root / "artifacts", shards=registry.shards)
        for stage in ("collect-samples", "scenario-area", "random-baseline"):
            artifacts.put(f"pipeline:victim:{stage}", {"stage": stage, "payload": []})
        before = {path: path.read_bytes() for path in artifacts.directory.rglob("*.json")}

        record = Worker(registry, engine_mode="serial").run_once()
        assert record.state == "done" and record.digest == reference.digest
        assert record.cache["misses"] == reference.cache["misses"]
        after = {path: path.read_bytes() for path in artifacts.directory.rglob("*.json")}
        assert after == before

    @pytest.mark.parametrize(
        "after_stage", [None, "random-baseline"], ids=["first_beat", "after_last_stage"]
    )
    def test_worker_that_lost_its_lease_leaves_the_job_to_the_new_owner(
        self, tmp_path, after_stage
    ):
        reference_digest = _run_reference(tmp_path, TINY_AUTOAX).digest

        registry = JobRegistry(tmp_path / "service")
        JobClient(registry).submit("autoax", TINY_AUTOAX, job_id="contested")
        rival = Worker(registry, worker_id="worker-b", engine_mode="serial")
        stalled = StallsPastItsLease(
            registry,
            worker_id="worker-a",
            engine_mode="serial",
            rival=rival,
            after_stage=after_stage,
        )
        stalled.run_once()

        # worker-a wrote nothing after losing the lease: the record and the
        # lease are worker-b's, as its takeover left them, and no result is
        # stored -- even when the lease is lost after the flow returned.
        claimed = stalled.taken_over
        assert claimed is not None and claimed.job_id == "contested"
        record = registry.get("contested")
        assert record.state == "running"
        assert record.worker == "worker-b"
        assert record.attempts == 2
        assert registry.lease_info("contested")["worker"] == "worker-b"
        assert registry.result("contested") is None

        finished = rival._execute(claimed)
        assert finished.state == "done"
        assert finished.digest == reference_digest
        assert registry.get("contested").state == "done"

    def test_resumed_job_and_second_tenant_restore_the_fits(self, tmp_path, monkeypatch):
        params = dict(TINY_AUTOAX, parameters=["area", "latency"])
        reference_digest = _run_reference(tmp_path, params).digest
        fits = Counter()
        fit = Regressor.fit

        def counted_fit(model, X, y):
            fits[type(model).__name__] += 1
            return fit(model, X, y)

        monkeypatch.setattr(Regressor, "fit", counted_fit)

        registry = JobRegistry(tmp_path / "service", lease_ttl=0.05)
        JobClient(registry).submit("autoax", params, job_id="victim")
        killer = KilledAfterStage(registry, engine_mode="serial", kill_after="scenario-area")
        with pytest.raises(KeyboardInterrupt):
            killer.run_once()
        assert fits["RandomForestRegressor"] == 1
        time.sleep(0.1)

        fits.clear()
        resumed = Worker(registry, engine_mode="serial").run_once()
        assert resumed.job_id == "victim" and resumed.state == "done"
        # scenario-area reruns on the fits the dead worker stored, and
        # scenario-latency restores the forest and fits only its own cost
        # model.
        assert fits["RandomForestRegressor"] == 0
        assert fits["ScaledRegressor"] == 1
        assert resumed.digest == reference_digest

        def fit_keys():
            return sorted(key for key in registry.cache_store().keys() if key.startswith("fit:"))

        keys = fit_keys()
        assert len(keys) == 3  # the forest and one cost model per parameter
        fits.clear()
        JobClient(registry, tenant="bob").submit("autoax", params)
        second = Worker(registry, engine_mode="serial").run_once()
        assert second.state == "done" and second.digest == reference_digest
        assert sum(fits.values()) == 0
        assert fit_keys() == keys  # the tenant is not part of a fit key


# --------------------------------------------------------------------- #
# Multi-process stress: one sharded store, many writers
# --------------------------------------------------------------------- #
def _expected_value(key: str) -> dict:
    """Deterministic key-derived value: any mixup is detectable as a
    corrupt read even when another process wrote the entry."""
    return {"key": key, "payload": [ord(ch) for ch in key]}


def _hammer_store(arguments) -> dict:
    """Worker-process body: interleave writes and reads of overlapping keys."""
    directory, worker_index, keys, rounds = arguments
    store = ShardedJsonStore(directory, shards=8)
    bad_reads = 0
    for round_number in range(rounds):
        for offset, key in enumerate(keys):
            if (offset + round_number + worker_index) % 2 == 0:
                store.put(key, _expected_value(key))
            else:
                value = store.get(key)
                if value is not None and value != _expected_value(key):
                    bad_reads += 1
    return {"bad_reads": bad_reads, "corrupt": store.corrupt_count}


class TestMultiProcessStress:
    def test_concurrent_writers_never_corrupt_or_lose_entries(self, tmp_path):
        directory = str(tmp_path / "shared")
        keys = [f"stress-key-{index:03d}" for index in range(60)]
        workers = 4
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(
                    _hammer_store,
                    [(directory, index, keys, 6) for index in range(workers)],
                )
            )
        # Zero torn or mixed-up reads, zero decode failures, in any process.
        assert sum(o["bad_reads"] for o in outcomes) == 0
        assert sum(o["corrupt"] for o in outcomes) == 0

        # Zero lost writes + 100% warm-repeat hit rate: every key every
        # process fought over is present, intact and a hit afterwards.
        store = ShardedJsonStore(directory, shards=8)
        cache = EvalCache(capacity=len(keys), store=store)
        for key in keys:
            assert cache.get(key) == _expected_value(key)
        stats = cache.stats()
        assert stats.misses == 0 and stats.corrupt == 0
        assert stats.hit_rate == 1.0
        assert len(store) == len(keys)


def _drain_queue(root, worker_id, barrier, report) -> None:
    """Process body: claim and finish jobs until ``claim`` returns ``None``,
    then write the finished job ids to ``report``."""
    registry = JobRegistry(root)
    barrier.wait(timeout=60)
    finished = []
    while (record := registry.claim(worker_id)) is not None:
        record.state = "done"
        record.finished_at = time.time()
        registry.update(record)
        registry.release(record.job_id)
        finished.append(record.job_id)
    Path(report).write_text(json.dumps(finished), encoding="utf-8")


class TestMultiProcessDrain:
    def test_processes_draining_one_queue_start_every_job_once(self, tmp_path):
        registry = JobRegistry(tmp_path / "root")
        job_ids = [registry.submit(JobSpec(flow="autoax")).job_id for _ in range(12)]
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(4)
        reports = [tmp_path / f"worker-{index}.json" for index in range(4)]
        processes = [
            context.Process(
                target=_drain_queue,
                args=(str(registry.root), f"worker-{index}", barrier, str(report)),
            )
            for index, report in enumerate(reports)
        ]
        for process in processes:
            process.start()
        try:
            for process in processes:
                process.join(timeout=120)
            assert [process.exitcode for process in processes] == [0] * 4
        finally:
            for process in processes:
                if process.is_alive():
                    process.kill()
        finished = [job for report in reports for job in json.loads(report.read_text())]
        assert sorted(finished) == sorted(job_ids)  # each job finished by one worker
        records = [registry.get(job_id) for job_id in job_ids]
        assert all(record.state == "done" and record.attempts == 1 for record in records)
        assert list(registry.leases_dir.iterdir()) == []
        assert list(registry.queue_dir.iterdir()) == []


# --------------------------------------------------------------------- #
# State machine of the indexed registry under crash faults
# --------------------------------------------------------------------- #
TERMINAL_STATES = ("done", "failed", "cancelled")


class IndexedRegistryMachine(RuleBasedStateMachine):
    """Submit, claim, finish, cancel, crash and expire against one root.

    Each worker has its own :class:`JobRegistry` object, as a worker process
    would.  The model holds what every record's state and attempt count
    must be and which worker each lease file names.  Checked: a claim never
    returns a job that was terminal when the claim began, nor one another
    worker holds under an unexpired lease, and returns ``None`` only when no
    indexed queued job is unleased and no live job's lease has expired;
    draining -- expire dead workers' leases, then claim and finish until
    ``claim`` returns ``None`` -- leaves every job terminal and ``leases/``
    and ``queue/`` empty.  Expiry rewrites a lease's heartbeat into the
    past, so nothing sleeps.
    """

    WORKERS = 3

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="registry-machine-"))
        self.client = JobRegistry(self.root)
        self.state = {}  # job id -> state its record must hold
        self.attempts = Counter()  # job id -> claims that returned it
        self.owner = {}  # job id -> worker named by its lease file
        self.expired = set()  # jobs whose lease heartbeat is in the past
        self.registries = {}  # worker -> its registry object
        self.holding = {}  # live worker -> jobs it believes it runs
        self.hires = 0
        self.workers = [self._hire() for _ in range(self.WORKERS)]

    def _hire(self) -> str:
        worker = f"worker-{self.hires}"
        self.hires += 1
        self.registries[worker] = JobRegistry(self.root)
        self.holding[worker] = set()
        return worker

    def _die(self, slot: int) -> None:
        """The worker stops: no heartbeat, no release; a new one replaces it."""
        del self.holding[self.workers[slot]]
        self.workers[slot] = self._hire()

    def _finish(self, worker: str, job: str, outcome: str, *, release: bool = True) -> None:
        registry = self.registries[worker]
        self.holding[worker].discard(job)
        if self.owner.get(job) != worker:
            # Taken over after its lease expired: the heartbeat says so.
            with pytest.raises(RuntimeError, match="no longer held"):
                registry.heartbeat(job, worker)
            return
        registry.heartbeat(job, worker)
        self.expired.discard(job)
        record = registry.get(job)
        record.state = outcome
        record.finished_at = time.time()
        registry.update(record)
        self.state[job] = outcome
        if release:
            registry.release(job)
            del self.owner[job]

    def _owned(self):
        return sorted(
            (worker, job)
            for worker, jobs in self.holding.items()
            for job in jobs
            if self.owner.get(job) == worker
        )

    def _claimable(self) -> set:
        indexed = {name.partition("-")[2] for name in os.listdir(self.client.queue_dir)}
        return {
            job
            for job, state in self.state.items()
            if (state == "queued" and job not in self.owner and job in indexed)
            or (job in self.expired and state in ("queued", "running"))
        }

    # ------------------------------------------------------------------ #
    @rule()
    def submit(self):
        job = f"job-{len(self.state):03d}"
        self.client.submit(JobSpec(flow="autoax"), job_id=job)
        self.state[job] = "queued"

    @rule()
    def submit_crashing_before_the_marker(self):
        job = f"job-{len(self.state):03d}"
        self.client.update(_queued_record(job))
        self.state[job] = "queued"

    @rule(slot=st.integers(0, WORKERS - 1))
    def claim(self, slot):
        worker = self.workers[slot]
        terminal = {job for job, state in self.state.items() if state in TERMINAL_STATES}
        claimable = self._claimable()
        record = self.registries[worker].claim(worker)
        for job in sorted(self.expired - self._lease_files().keys()):
            # The takeover pass may only drop a lease left on a finished job.
            assert self.state[job] in TERMINAL_STATES, f"{job}'s lease vanished"
            del self.owner[job]
            self.expired.discard(job)
        if record is None:
            assert not claimable, f"{worker} claimed nothing, but {claimable} were claimable"
            return
        job = record.job_id
        assert job not in terminal, f"{worker} claimed {job}, terminal when the claim began"
        assert self.owner.get(job) is None or job in self.expired, (
            f"{worker} claimed {job}, held by {self.owner[job]} under an unexpired lease"
        )
        assert record.state == "running" and record.worker == worker
        self.state[job] = "running"
        self.attempts[job] += 1
        self.owner[job] = worker
        self.expired.discard(job)
        self.holding[worker].add(job)

    @precondition(lambda self: any(self.holding.values()))
    @rule(data=st.data(), outcome=st.sampled_from(["done", "failed"]))
    def finish(self, data, outcome):
        worker = data.draw(st.sampled_from(sorted(w for w, jobs in self.holding.items() if jobs)))
        job = data.draw(st.sampled_from(sorted(self.holding[worker])))
        self._finish(worker, job, outcome)

    @precondition(lambda self: self.state)
    @rule(data=st.data())
    def cancel(self, data):
        job = data.draw(st.sampled_from(sorted(self.state)))
        cancelled = self.client.cancel(job)
        assert cancelled == (self.state[job] == "queued")
        if cancelled:
            self.state[job] = "cancelled"

    @rule(slot=st.integers(0, WORKERS - 1))
    def die_holding_leases(self, slot):
        self._die(slot)

    @precondition(lambda self: self._owned())
    @rule(data=st.data())
    def die_after_finishing_before_releasing(self, data):
        worker, job = data.draw(st.sampled_from(self._owned()))
        self._finish(worker, job, "done", release=False)
        self._die(self.workers.index(worker))

    @precondition(
        lambda self: any(s == "queued" and j not in self.owner for j, s in self.state.items())
    )
    @rule(data=st.data())
    def die_after_leasing_before_starting(self, data):
        job = data.draw(
            st.sampled_from(
                sorted(j for j, s in self.state.items() if s == "queued" and j not in self.owner)
            )
        )
        dead = f"worker-{self.hires}"
        self.hires += 1
        assert self.client._try_acquire_lease(job, dead)
        self.owner[job] = dead

    @precondition(lambda self: self.owner)
    @rule(data=st.data())
    def expire(self, data):
        job = data.draw(st.sampled_from(sorted(self.owner)))
        _expire_lease(self.client, job)
        self.expired.add(job)

    # ------------------------------------------------------------------ #
    def _lease_files(self) -> dict:
        leases = {}
        for name in os.listdir(self.client.leases_dir):
            assert name.endswith(".lease"), f"stray file {name} in leases/"
            job = name[: -len(".lease")]
            leases[job] = self.client.lease_info(job)["worker"]
        return leases

    @invariant()
    def records_and_leases_match_the_model(self):
        records = {record.job_id: record for record in self.client.list_jobs()}
        assert {job: record.state for job, record in records.items()} == self.state
        assert {job: record.attempts for job, record in records.items()} == {
            job: self.attempts[job] for job in self.state
        }
        assert self._lease_files() == self.owner

    def teardown(self):
        try:
            self._drain()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)

    def _drain(self) -> None:
        for worker, job in sorted((w, j) for w, jobs in self.holding.items() for j in jobs):
            self._finish(worker, job, "done")
        for job in sorted(self.owner):
            _expire_lease(self.client, job)
        drainer = JobRegistry(self.root)  # a restarted worker
        for _ in range(len(self.state) + 1):
            record = drainer.claim("drainer")
            if record is None:
                break
            record.state = "done"
            drainer.update(record)
            drainer.release(record.job_id)
        else:
            raise AssertionError("claim kept returning jobs while draining")
        assert all(record.state in TERMINAL_STATES for record in drainer.list_jobs())
        assert os.listdir(drainer.leases_dir) == []
        assert os.listdir(drainer.queue_dir) == []


IndexedRegistryMachine.TestCase.settings = settings(
    max_examples=500, stateful_step_count=25, deadline=None
)
TestIndexedRegistryMachine = IndexedRegistryMachine.TestCase
