"""The work-stealing fleet.

Contracts pinned here:

- **claims are exclusive** — the atomic-rename steal has exactly one
  winner per point;
- **one stored result per point** — a fleet leaves exactly one
  per-hash result-cache file per grid point, whatever was killed,
  resumed or re-run;
- **byte-identity** — a fleet run's manifest is byte-for-byte the
  manifest a serial unsharded sweep writes;
- **fault paths** — a worker SIGKILLed mid-point is detected and its
  point reassigned *exactly once* with no duplicate result
  writes; a point that keeps killing workers is quarantined as poison
  after its retry budget, with a monotone backoff trail, while every
  other point still completes.
"""

import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.fleet import (
    FleetDirs,
    FleetDispatcher,
    FleetWorker,
    backoff_delay,
    fleet_stats,
    format_stats,
    requeue_task,
    worker_stats,
)
from repro.fleet.cli import main as fleet_main
from repro.fleet.store import ResultStore
from repro.fleet.telemetry import WorkerStat, flag_stragglers
from repro.scenarios import SCENARIOS, expand_grid, run_scenario
from repro.scenarios.cli import main as scenarios_main
from repro.scenarios.runner import ResultCache, ScenarioResult, clear_memo
from repro.scenarios.spec import PlatformPlan, ScenarioSpec

#: The cheap all-deploy grid of test_sharding.py: 12 points, each only
#: builds and settles a small overlay (~tens of ms).
DEPLOY_ARGS = [
    "--set", "platform.n_hosts=32", "--set", "n_peers=4,6,8",
    "--set", "n_zones=1,2", "--set", "seed=2011,2013",
]
DEPLOY_GRID = {
    "platform.n_hosts": (32,), "n_peers": (4, 6, 8),
    "n_zones": (1, 2), "seed": (2011, 2013),
}
SCENARIO = "large-overlay-512"


def _specs():
    return expand_grid(SCENARIOS[SCENARIO].base, DEPLOY_GRID)


def _spawn_env(**extra):
    """Worker-subprocess env with the repo's src on PYTHONPATH, so the
    fleet tests pass regardless of how pytest itself was launched."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FLEET_FAULT", None)
    env.update(extra)
    return env


def _serial_manifest(cache: Path) -> Path:
    assert scenarios_main(
        ["sweep", SCENARIO, "--serial", "--label", "g",
         "--cache-dir", str(cache)] + DEPLOY_ARGS
    ) == 0
    return cache / "sweeps" / "g.json"


def _probe_result(seed=1):
    spec = ScenarioSpec(
        name="store-probe", kind="deploy", seed=seed,
        platform=PlatformPlan(kind="cluster", n_hosts=8), n_peers=4,
    )
    return spec, run_scenario(spec)


def _assert_one_result_file_per_point(cache: Path, manifest: Path):
    """Exactly one per-hash result file per grid point in ``cache``,
    each loading to its manifest entry's result."""
    points = json.loads(manifest.read_text())["points"]
    assert len(points) == 12
    assert sorted(p.stem for p in cache.glob("*.json")) == \
        sorted(p["spec_hash"] for p in points)
    results = ResultCache(cache)
    for point in points:
        assert results.load(point["spec_hash"])["result"] == point["result"]


# -- the ResultStore delegate -------------------------------------------------

class TestResultStore:
    """The old store names over the result cache: ``record`` is
    put-if-absent into ``<cache>/<hash>.json``, ``get_result`` loads
    that entry, and the sidecar counters stay 0."""

    def test_record_dedups_on_hash(self, tmp_path):
        store = ResultStore(tmp_path)
        spec, result = _probe_result()
        assert store.record(spec, result, "a", SCENARIO) is True
        assert store.record(spec, result, "a", SCENARIO) is False
        assert [p.stem for p in tmp_path.glob("*.json")] \
            == [result.spec_hash]

    def test_same_hash_under_two_labels_writes_one_file(self, tmp_path):
        """The label is provenance, not part of the key: a second
        label recording a cached hash writes nothing."""
        spec, result = _probe_result()
        store = ResultStore(tmp_path)
        assert store.record(spec, result, "a", SCENARIO) is True
        assert store.record(spec, result, "b", "other") is False
        assert store.cache.disk_writes == 1
        assert len(ResultCache(tmp_path)) == 1

    def test_dedup_survives_reopening(self, tmp_path):
        spec, result = _probe_result()
        ResultStore(tmp_path).record(spec, result, "a", SCENARIO)
        again = ResultStore(tmp_path)
        assert again.record(spec, result, "a", SCENARIO) is False
        assert again.cache.disk_writes == 0

    def test_record_keeps_an_existing_entry(self, tmp_path):
        """Put-if-absent: a result already cached for the spec (by a
        sweep, say) is never overwritten by a later ``record``."""
        spec, result = _probe_result()
        ResultCache(tmp_path).put(spec, result)
        other = ScenarioResult.from_dict(dict(result.to_dict(), t=2.0))
        store = ResultStore(tmp_path)
        assert store.record(spec, other, "a", SCENARIO) is False
        assert store.get_result(result.spec_hash).canonical_json() \
            == result.canonical_json()

    def test_get_result_loads_the_per_hash_entry(self, tmp_path):
        spec, result = _probe_result()
        store = ResultStore(tmp_path)
        store.record(spec, result, "a", SCENARIO)
        assert ResultStore(tmp_path).get_result(
            result.spec_hash).canonical_json() == result.canonical_json()
        assert store.get_result("nope") is None

    def test_torn_entry_is_a_miss(self, tmp_path):
        """A half-written per-hash file reads as absent, and ``record``
        replaces it."""
        spec, result = _probe_result()
        (tmp_path / f"{result.spec_hash}.json").write_text('{"spec": {"tr')
        store = ResultStore(tmp_path)
        assert store.get_result(result.spec_hash) is None
        assert store.record(spec, result, "a", SCENARIO) is True
        assert store.get_result(result.spec_hash).canonical_json() \
            == result.canonical_json()

    def test_sidecar_counters_stay_zero(self, tmp_path):
        (s1, r1), (s2, r2) = _probe_result(seed=1), _probe_result(seed=2)
        writer, reader = ResultStore(tmp_path), ResultStore(tmp_path)
        writer.record(s1, r1, "a", SCENARIO)
        assert reader.get_result(r1.spec_hash) is not None
        writer.record(s2, r2, "b", SCENARIO)
        assert reader.get_result(r2.spec_hash) is not None
        for store in (writer, reader):
            assert store.sidecar_rebuilds == 0
            assert store.sidecar_tail_refreshes == 0

    def test_old_store_directory_is_ignored(self, tmp_path):
        """A ``store/`` log left by an older version is read by no
        one: a result only it holds is a miss, and a fleet run over
        the cache leaves the directory as it found it."""
        spec, result = _probe_result()
        old = tmp_path / "store"
        old.mkdir()
        line = json.dumps({"spec_hash": result.spec_hash, "label": "a",
                           "scenario": SCENARIO, "name": spec.name,
                           "result": result.to_dict()})
        (old / "index.jsonl").write_text(line + "\n")
        assert ResultStore(tmp_path).get_result(result.spec_hash) is None
        clear_memo()
        outcome = FleetDispatcher(
            [spec], label="g", scenario=SCENARIO, cache_dir=tmp_path,
            workers=1, wall_timeout=60.0, spawn_env=_spawn_env(),
        ).run()
        assert outcome.complete and outcome.computed == 1
        assert outcome.results()[0].canonical_json() \
            == result.canonical_json()
        assert sorted(p.name for p in old.iterdir()) == ["index.jsonl"]
        assert (old / "index.jsonl").read_text() == line + "\n"


# -- the steal protocol -------------------------------------------------------

class TestProtocol:
    def test_claim_has_exactly_one_winner(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        dirs.enqueue({"index": 0, "name": "p", "spec_hash": "h",
                      "attempt": 1})
        first = dirs.claim(0, "w0")
        second = dirs.claim(0, "w1")
        assert first is not None
        assert second is None
        claims = dirs.active_claims()
        assert [c["worker"] for c in claims] == ["w0"]

    def test_claim_returns_the_payload_it_renamed(self, tmp_path,
                                                  monkeypatch):
        """The requeue/claim interleave: a bumped payload re-enqueued
        in the window just before the claim's rename must be what the
        winner receives.  Read-then-rename handed back the *stale*
        payload — attempt counter and backoff trail reset — which
        could defeat the retry budget."""
        dirs = FleetDirs(tmp_path / "f").create()
        v1 = {"index": 0, "name": "p", "spec_hash": "h", "attempt": 1}
        dirs.enqueue(v1)
        real_rename = os.rename

        def racing_rename(src, dst):
            # the requeue lands its bumped payload first (enqueue is
            # os.replace-based, so no recursion), then the claim's
            # rename moves that fresh file
            dirs.enqueue(dict(v1, attempt=2, not_before=123.0,
                              attempts=[{"attempt": 2}]))
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", racing_rename)
        claimed = dirs.claim(0, "w0")
        assert claimed is not None
        assert claimed["attempt"] == 2
        assert claimed["not_before"] == 123.0

    def test_worker_hands_back_a_raced_backoff(self, tmp_path,
                                               monkeypatch):
        """A claim that comes back carrying a future ``not_before``
        (the requeue raced us) is re-enqueued verbatim and the claim
        released — the worker must not compute through a backoff."""
        cache = tmp_path / "cache"
        dirs = FleetDirs(cache / "fleet" / "g").create()
        dirs.write_grid({"label": "g", "scenario": SCENARIO,
                         "n_points": 1})
        worker = FleetWorker(dirs.root, cache_dir=cache,
                             worker_id="w0")
        dirs.enqueue({"index": 0, "name": "p", "spec_hash": "h",
                      "attempt": 1})
        future = time.time() + 60.0
        real_claim = FleetDirs.claim

        def racing_claim(self, index, worker_id):
            claimed = real_claim(self, index, worker_id)
            return None if claimed is None \
                else dict(claimed, attempt=2, not_before=future)

        monkeypatch.setattr(FleetDirs, "claim", racing_claim)
        assert worker._try_claim() is None  # noqa: SLF001
        (task,) = worker.dirs.queued_tasks()
        assert task["attempt"] == 2 and task["not_before"] == future
        assert worker.dirs.active_claims() == []

    def test_raising_compute_requeues_and_logs_traceback(
            self, tmp_path, monkeypatch, capsys):
        """A compute that raises hands the point back at attempt 2
        with a ``worker-error`` reason, and the traceback reaches the
        worker's stderr (its log file when the dispatcher spawned
        it), not just the one-line reason."""
        monkeypatch.delenv("REPRO_FLEET_FAULT", raising=False)

        def broken_run_cached(spec, cache):
            raise OSError("cache disk on fire")

        monkeypatch.setattr("repro.fleet.worker.run_cached",
                            broken_run_cached)
        cache = tmp_path / "cache"
        spec = _specs()[0]
        dirs = FleetDirs(cache / "fleet" / "g").create()
        dirs.write_grid({"label": "g", "scenario": SCENARIO,
                         "n_points": 1})
        dirs.enqueue({"index": 0, "name": spec.name,
                      "spec_hash": spec.spec_hash(),
                      "spec": spec.to_dict(), "attempt": 1})
        worker = FleetWorker(dirs.root, cache_dir=cache,
                             worker_id="w0")
        worker._run_task(worker._try_claim())  # noqa: SLF001
        (task,) = dirs.queued_tasks()
        assert task["attempt"] == 2
        assert task["attempts"][-1]["reason"] == \
            "worker-error: cache disk on fire"
        assert dirs.active_claims() == []
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "broken_run_cached" in err
        assert "OSError: cache disk on fire" in err

    def test_backoff_is_monotone_exponential(self):
        delays = [backoff_delay(a, 0.5) for a in range(1, 6)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0]

    def test_requeue_exhausts_into_poison_with_history(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        task = {"index": 3, "name": "p", "spec_hash": "h", "attempt": 1}
        assert requeue_task(dirs, task, max_retries=2,
                            backoff_base=0.01, reason="first") is True
        requeued = dirs.queued_tasks()[0]
        assert requeued["attempt"] == 2
        assert requeued["not_before"] > 0
        assert requeue_task(dirs, requeued, max_retries=2,
                            backoff_base=0.01, reason="second") is False
        assert dirs.queued_tasks() == []
        poison = dirs.poison_records()[3]
        history = poison["attempts"]
        assert [h["attempt"] for h in history] == [2, 3]
        assert "second" in poison["reason"]
        # monotone backoff: each retry waits strictly longer
        gaps = [h["not_before"] - h["at"] for h in history]
        assert gaps == sorted(gaps) and gaps[1] > gaps[0]

    def test_heartbeats_roundtrip(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        dirs.beat("w0", 7, points_done=3)
        beat = dirs.heartbeats()["w0"]
        assert beat["point"] == 7 and beat["points_done"] == 3
        assert beat["pid"] == os.getpid()

    def test_resolved_counter_tracks_and_never_regresses(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        from repro.fleet import ResolvedCounter

        counter = ResolvedCounter(dirs, recheck_interval=0.0)
        assert counter.count() == 0
        dirs.mark_done({"index": 0, "name": "p", "spec_hash": "h"})
        dirs.mark_poison({"index": 1, "name": "q", "spec_hash": "i"},
                         reason="bad")
        assert counter.count() == 2
        # resolved files never disappear mid-fleet, so a (simulated)
        # racy undercount must not walk the counter backwards
        os.unlink(dirs.done / dirs.task_name(0))
        assert counter.count() == 2

    def test_resolved_counter_caches_between_mtime_changes(
            self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        from repro.fleet import ResolvedCounter

        counter = ResolvedCounter(dirs, recheck_interval=3600.0)
        dirs.mark_done({"index": 0, "name": "p", "spec_hash": "h"})
        assert counter.count() == 1
        calls = {"n": 0}
        real = dirs.done_indices

        def counted():
            calls["n"] += 1
            return real()

        dirs.done_indices = counted
        # unchanged directories + a fresh check: the cache answers
        assert counter.count() == 1
        assert calls["n"] == 0
        dirs.mark_done({"index": 1, "name": "q", "spec_hash": "i"})
        # force the mtime tick (filesystem granularity can be coarse)
        stat = os.stat(dirs.done)
        os.utime(dirs.done, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        assert counter.count() == 2
        assert calls["n"] == 1


# -- straggler telemetry ------------------------------------------------------

class TestTelemetry:
    def test_rate_rule_flags_slow_worker(self):
        fast = [WorkerStat(worker=f"w{i}", points_done=10,
                           points_per_min=10.0) for i in range(2)]
        slow = WorkerStat(worker="slow", points_done=1,
                          points_per_min=2.0)
        workers = fast + [slow]
        flag_stragglers(workers)
        assert slow.straggler
        assert "median" in slow.reasons[0]
        assert not any(w.straggler for w in fast)

    def test_rate_rule_needs_two_productive_workers(self):
        # one productive worker has no fleet to be slower than; an
        # idle worker is not a straggler, it just hasn't stolen yet
        only = WorkerStat(worker="w0", points_done=1,
                          points_per_min=0.01)
        idle = WorkerStat(worker="w1", points_done=0,
                          points_per_min=0.0)
        workers = [only, idle]
        flag_stragglers(workers)
        assert not any(w.straggler for w in workers)

    def test_stall_rule_flags_wedged_point(self):
        stuck = WorkerStat(worker="w0", points_done=5,
                           points_per_min=5.0, mean_latency=1.0,
                           point=7, point_age=10.0)
        flag_stragglers([stuck])
        assert stuck.straggler
        assert "in flight" in stuck.reasons[0]

    def test_worker_stats_reads_heartbeat_telemetry(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        dirs.beat("w0", 3, points_done=4, telemetry={
            "points_per_min": 8.0, "mean_latency": 0.5,
            "last_latency": 0.4, "point_age": 0.2, "uptime": 30.0,
        })
        (stat,) = worker_stats(dirs, now=time.time() + 1.0)
        assert stat.worker == "w0" and stat.points_done == 4
        assert stat.points_per_min == 8.0
        assert stat.point == 3 and stat.point_age == 0.2
        assert stat.beat_age >= 1.0

    def test_fleet_stats_snapshot_and_format(self, tmp_path):
        dirs = FleetDirs(tmp_path / "f").create()
        dirs.write_grid({"label": "g", "scenario": SCENARIO,
                         "n_points": 4})
        dirs.enqueue({"index": 2, "name": "p", "spec_hash": "h",
                      "attempt": 1})
        dirs.mark_done({"index": 0, "name": "p", "spec_hash": "h0"})
        dirs.beat("fast", None, points_done=2,
                  telemetry={"points_per_min": 10.0})
        dirs.beat("slow", None, points_done=1,
                  telemetry={"points_per_min": 1.0})
        stats = fleet_stats(dirs)
        assert stats.label == "g" and stats.n_points == 4
        assert stats.done == 1 and stats.queued == 1
        assert stats.active == 0
        assert [w.worker for w in stats.stragglers] == ["slow"]
        text = format_stats(stats)
        assert "1/4 done" in text
        assert "fast" in text and "slow" in text
        assert "STRAGGLER" in text


# -- the dispatcher -----------------------------------------------------------

class TestFleetRuns:
    def test_worker_never_writes_the_store(self, tmp_path):
        """A worker persists to the result cache and its done record
        only: no ``store/`` log exists beside them."""
        clear_memo()
        cache = tmp_path / "cache"
        spec = _specs()[0]
        dirs = FleetDirs(cache / "fleet" / "g").create()
        dirs.write_grid({"label": "g", "scenario": SCENARIO,
                         "n_points": 1})
        dirs.enqueue({"index": 0, "name": spec.name,
                      "spec_hash": spec.spec_hash(),
                      "spec": spec.to_dict(), "attempt": 1})
        worker = FleetWorker(dirs.root, cache_dir=cache, worker_id="w0",
                             heartbeat_interval=0.05, poll_interval=0.01)
        assert worker.run() == 1
        assert dirs.done_indices() == {0}
        assert ResultCache(cache).get(spec) is not None
        assert not (cache / "store").exists()

    def test_fleet_manifest_byte_identical_to_serial_sweep(self, tmp_path):
        serial = _serial_manifest(tmp_path / "serial")
        clear_memo()  # the fleet must earn its points, not inherit them
        specs = _specs()
        # start barrier: grid point 0 hangs its worker until every
        # other point is done, so the other worker must steal those
        # eleven — however the two worker start-ups interleave
        dispatcher = FleetDispatcher(
            specs, label="g", scenario=SCENARIO,
            cache_dir=tmp_path / "fleet", workers=2,
            heartbeat_interval=0.1, poll_interval=0.05,
            wall_timeout=120.0, spawn_env=_spawn_env(
                REPRO_FLEET_FAULT=f"{specs[0].spec_hash()[:16]}=hang"
            ),
        )
        box = {}
        thread = threading.Thread(
            target=lambda: box.update(outcome=dispatcher.run()))
        thread.start()
        try:
            others = set(range(1, len(specs)))
            deadline = time.monotonic() + 60.0
            while not others <= dispatcher.dirs.done_indices():
                assert time.monotonic() < deadline, \
                    "the other points never finished"
                time.sleep(0.02)
        finally:
            (dispatcher.dirs.root / "fault-disarmed").write_text("")
            thread.join(timeout=120.0)
        assert not thread.is_alive()
        outcome = box["outcome"]
        assert outcome.complete
        assert outcome.computed == 12 and outcome.cached == 0
        # at least two workers actually stole work
        assert len(outcome.worker_points) >= 2
        assert outcome.manifest_path.read_bytes() == serial.read_bytes()
        _assert_one_result_file_per_point(tmp_path / "fleet",
                                          outcome.manifest_path)

    def test_fleet_resolves_from_shared_cache_without_workers(
            self, tmp_path):
        cache = tmp_path / "shared"
        serial = _serial_manifest(cache)
        # same cache dir: every point is already answered on disk, so
        # zero workers is enough and nothing recomputes
        outcome = FleetDispatcher(
            _specs(), label="g", scenario=SCENARIO, cache_dir=cache,
            workers=0, wall_timeout=60.0,
        ).run()
        assert outcome.complete
        assert outcome.cached == 12 and outcome.computed == 0
        assert outcome.manifest_path.read_bytes() == serial.read_bytes()

    def test_finalize_rerun_writes_no_result_files(self, tmp_path):
        """Re-running a fleet over a swept cache adds no result file:
        the cache keeps exactly one per grid point, and no ``store/``
        log appears."""
        cache = tmp_path / "shared"
        _serial_manifest(cache)
        for _run in range(2):
            outcome = FleetDispatcher(
                _specs(), label="g", scenario=SCENARIO, cache_dir=cache,
                workers=0, wall_timeout=60.0,
            ).run()
            assert outcome.complete
            _assert_one_result_file_per_point(cache, outcome.manifest_path)
        assert not (cache / "store").exists()

    def test_seeding_writes_memo_hits_to_the_fleet_root(self, tmp_path):
        """Points a sweep into another root left in the memo resolve
        at seeding, and each still lands in the fleet's own root."""
        from repro.scenarios import SweepRunner

        clear_memo()
        specs = _specs()[:4]
        SweepRunner(cache_dir=tmp_path / "a").run(specs, parallel=False)
        outcome = FleetDispatcher(
            specs, label="g", scenario=SCENARIO, cache_dir=tmp_path / "b",
            workers=0, wall_timeout=60.0,
        ).run()
        assert outcome.complete and outcome.cached == 4
        cache = ResultCache(tmp_path / "b")
        assert len(cache) == 4
        assert [cache.get(s) for s in specs] == outcome.results()

    def test_rerun_resumes_from_done_records(self, tmp_path):
        cache = tmp_path / "fleet"
        specs = _specs()
        clear_memo()
        first = FleetDispatcher(
            specs, label="g", scenario=SCENARIO, cache_dir=cache,
            workers=2, heartbeat_interval=0.1, poll_interval=0.05,
            wall_timeout=120.0, spawn_env=_spawn_env(),
        ).run()
        assert first.complete
        # the label was fleet-run: scenarios compare's HTML report
        # carries a row per worker that computed points (a resumed
        # run clears the heartbeats, so this reads the first run's)
        report = tmp_path / "r.html"
        assert scenarios_main(
            ["compare", "g", "g", "--cache-dir", str(cache),
             "--format", "html", "--out", str(report)]
        ) == 0
        html = report.read_text()
        assert "<h2>Fleet workers</h2>" in html
        for worker in first.worker_points:
            assert f"<td>{worker}</td>" in html
        again = FleetDispatcher(
            specs, label="g", scenario=SCENARIO, cache_dir=cache,
            workers=0, wall_timeout=60.0,
        ).run()
        assert again.complete and again.computed == 0
        assert again.manifest_path.read_bytes() \
            == first.manifest_path.read_bytes()
        _assert_one_result_file_per_point(cache, again.manifest_path)

class TestFleetFaults:
    def test_sigkilled_worker_point_reassigned_exactly_once(
            self, tmp_path):
        """SIGKILL a worker mid-point: the dispatcher notices the dead
        process, requeues its claimed point once, a surviving worker
        computes it, and the sweep still lands byte-identical with no
        duplicate result writes."""
        serial = _serial_manifest(tmp_path / "serial")
        clear_memo()
        specs = _specs()
        victim = specs[5].spec_hash()
        dispatcher = FleetDispatcher(
            specs, label="g", scenario=SCENARIO,
            cache_dir=tmp_path / "fleet", workers=2,
            heartbeat_interval=0.1, poll_interval=0.05,
            backoff_base=0.05, wall_timeout=120.0,
            spawn_env=_spawn_env(
                REPRO_FLEET_FAULT=f"{victim[:16]}=hang"
            ),
        )
        box = {}

        def drive():
            box["outcome"] = dispatcher.run()

        thread = threading.Thread(target=drive)
        thread.start()
        try:
            # wait for a worker to claim the victim point (it hangs
            # there, heartbeating, simulating a wedged machine)
            claim = None
            deadline = time.monotonic() + 60.0
            while claim is None and time.monotonic() < deadline:
                for c in dispatcher.dirs.active_claims():
                    if c["spec_hash"] == victim:
                        claim = c
                time.sleep(0.02)
            assert claim is not None, "victim point never claimed"
            proc = dispatcher._procs[claim["worker"]]  # noqa: SLF001
            os.kill(proc.pid, signal.SIGKILL)
            while proc.poll() is None:
                time.sleep(0.02)
            # only now disarm: the requeued point must compute cleanly
            (dispatcher.dirs.root / "fault-disarmed").write_text("")
        finally:
            thread.join(timeout=120.0)
        assert not thread.is_alive()
        outcome = box["outcome"]
        assert outcome.complete
        assert outcome.reassignments == {5: 1}
        # exactly one done record per grid index, one result file per
        # point: the reassignment produced no duplicate writes
        done = dispatcher.dirs.done_records()
        assert sorted(done) == list(range(12))
        _assert_one_result_file_per_point(tmp_path / "fleet",
                                          outcome.manifest_path)
        assert outcome.manifest_path.read_bytes() == serial.read_bytes()

    def test_poison_point_quarantined_after_retry_budget(self, tmp_path):
        """A point that crashes every worker that touches it burns its
        retry budget (with monotone backoff), lands in poison/, and the
        rest of the grid still completes — reported, never retried
        forever."""
        clear_memo()
        specs = _specs()
        victim = specs[3].spec_hash()
        outcome = FleetDispatcher(
            specs, label="g", scenario=SCENARIO,
            cache_dir=tmp_path / "fleet", workers=1,
            heartbeat_interval=0.1, poll_interval=0.05,
            max_retries=2, backoff_base=0.05, wall_timeout=120.0,
            spawn_env=_spawn_env(
                REPRO_FLEET_FAULT=f"{victim[:16]}=exit"
            ),
        ).run()
        assert not outcome.complete
        assert sorted(outcome.poisoned) == [3]
        assert len(outcome.points) == 11
        record = outcome.poisoned[3]
        assert record["spec_hash"] == victim
        history = record["attempts"]
        assert [h["attempt"] for h in history] == [2, 3]
        # monotone backoff timestamps: attempts in order, each waiting
        # strictly longer than the last
        ats = [h["at"] for h in history]
        assert ats == sorted(ats)
        gaps = [h["not_before"] - h["at"] for h in history]
        assert gaps[1] > gaps[0] > 0
        # the manifest is partial — and compare refuses it, same as a
        # killed sweep's
        payload = json.loads(outcome.manifest_path.read_text())
        assert payload["partial"] is True
        assert scenarios_main(
            ["compare", "g", "g", "--cache-dir",
             str(tmp_path / "fleet")]
        ) == 2


# -- the fleet CLI ------------------------------------------------------------

class TestFleetCli:
    def test_run_rejects_path_labels(self, tmp_path, capsys):
        assert fleet_main(
            ["run", SCENARIO, "--label", "../evil",
             "--cache-dir", str(tmp_path)]
        ) == 2
        assert "plain file name" in capsys.readouterr().err

    def test_run_rejects_unknown_scenario(self, tmp_path, capsys):
        assert fleet_main(
            ["run", "no-such", "--cache-dir", str(tmp_path)]
        ) == 2

    def test_stats_unknown_label(self, tmp_path, capsys):
        assert fleet_main(["stats", "nope",
                           "--cache-dir", str(tmp_path)]) == 2
        assert "no fleet directory" in capsys.readouterr().err

    def test_stats_lists_workers_and_stragglers(self, tmp_path, capsys):
        dirs = FleetDirs(tmp_path / "fleet" / "g").create()
        dirs.write_grid({"label": "g", "scenario": SCENARIO,
                         "n_points": 3})
        dirs.beat("fast", None, points_done=2,
                  telemetry={"points_per_min": 10.0})
        dirs.beat("slow", None, points_done=1,
                  telemetry={"points_per_min": 1.0})
        assert fleet_main(["stats", "g",
                           "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fleet 'g'" in out
        assert "fast" in out and "slow" in out
        assert "STRAGGLER" in out

    def test_help_offers_only_run_worker_stats(self, capsys):
        with pytest.raises(SystemExit):
            fleet_main(["--help"])
        assert "{run,worker,stats}" in capsys.readouterr().out
        for gone in ("backfill", "store", "compare"):
            with pytest.raises(SystemExit) as exc:
                fleet_main([gone])
            assert exc.value.code == 2


# -- scenarios compare over fleet-run labels ----------------------------------

def _write_manifests(cache):
    """Two 3-point manifests, "base" and "slow" (every t doubled)."""
    sweeps = cache / "sweeps"
    sweeps.mkdir(parents=True)
    spec, result = _probe_result()
    for label, t in (("base", 1.0), ("slow", 2.0)):
        (sweeps / f"{label}.json").write_text(json.dumps({
            "label": label, "scenario": SCENARIO,
            "points": [
                {"name": f"p[x={x}]",
                 "spec_hash": f"{result.spec_hash[:-2]}{x:02d}",
                 "result": dict(result.to_dict(), t=t * (1 + x))}
                for x in range(3)
            ],
        }))


def _plant_workers(cache, label):
    dirs = FleetDirs(cache / "fleet" / label).create()
    dirs.beat("w-fast", None, points_done=2,
              telemetry={"points_per_min": 10.0})
    dirs.beat("w-slow", None, points_done=1,
              telemetry={"points_per_min": 1.0})


def _html_report(cache, a="base", b="slow"):
    out = cache / "report.html"
    assert scenarios_main(
        ["compare", a, b, "--cache-dir", str(cache),
         "--format", "html", "--out", str(out)]
    ) == 0
    return out.read_text()


class TestScenariosCompare:
    def test_candidate_labels_workers_are_listed(self, tmp_path):
        _write_manifests(tmp_path)
        _plant_workers(tmp_path, "slow")
        html = _html_report(tmp_path)
        assert 'class="regression"' in html  # every row doubled
        assert "<h2>Fleet workers</h2>" in html
        assert "<td>w-fast</td>" in html and "<td>w-slow</td>" in html
        assert 'class="straggler"' in html

    def test_falls_back_to_the_baselines_fleet_dir(self, tmp_path):
        _write_manifests(tmp_path)
        _plant_workers(tmp_path, "base")
        html = _html_report(tmp_path)
        assert "<h2>Fleet workers</h2>" in html
        assert "<td>w-fast</td>" in html

    def test_no_fleet_dir_no_workers_section(self, tmp_path):
        _write_manifests(tmp_path)
        html = _html_report(tmp_path)
        assert "<!DOCTYPE html>" in html
        assert "Fleet workers" not in html

    def test_percentiles_columns_and_usage_error(self, tmp_path, capsys):
        _serial_manifest(tmp_path)
        capsys.readouterr()
        common = ["compare", "g", "g", "--cache-dir", str(tmp_path),
                  "--over", "seed"]
        assert scenarios_main(common + ["--percentiles", "50,99"]) == 0
        assert "P99" in capsys.readouterr().out
        assert scenarios_main(common + ["--percentiles", "50,x"]) == 2
        assert "--percentiles expects comma-separated numbers" \
            in capsys.readouterr().err
