"""Tests for the distributed work-queue subsystem (:mod:`repro.exec.distrib`).

Covers the acceptance properties of the distributed campaign layer:

* grouping -- the queue leases stream groups (the cells of one scenario
  configuration), and its groups are exactly the stream-identity groups
  the serial scheduler fuses;
* the lease state machine -- claim, renew, explicit release, TTL expiry,
  reclaim with attempt accounting (a reclaimer takes only the cells a dead
  holder left unfinished), and the max-attempts poison guard, each
  transition atomic and race-losing rather than double-winning;
* worker parity -- a queue-driven worker grid is bit-identical to a serial
  :meth:`StudyCampaign.run` (observation digests), with the aggregated
  worker ledgers proving every grid-invariant stage built exactly once
  fleet-wide and no more stream passes or dataset builds than the serial
  run, including after a worker is SIGKILLed mid-group and a survivor
  reclaims its lease;
* graceful shutdown -- a stopping worker finishes the group in hand and
  explicitly releases a group it has not started (no attempt cost, no TTL
  wait);
* the store's init sweep -- :class:`DiskStore` construction reaps stale
  queue residue a crashed fleet left behind, preserving attempt accounting
  (expired leases tombstone).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bgp.community import Community
from repro.cli import main
from repro.core.events import BlackholingObservation, DetectionMethod, EndCause
from repro.exec.campaign import (
    BASELINE,
    INFERRED_DICTIONARY,
    NO_BUNDLING,
    ScenarioMatrix,
    StudyCampaign,
)
from repro.exec.distrib import (
    CellQueue,
    aggregate_build_counts,
    observations_digest,
    reap_stale_queue_state,
    run_worker,
)
from repro.exec.store import OBSERVATION_CHUNK, DiskStore, dump_artifact
from repro.netutils.prefixes import Prefix

REPO_ROOT = Path(__file__).resolve().parent.parent
FORK = multiprocessing.get_context("fork")


def _paper_matrix(dataset):
    return ScenarioMatrix(
        dataset.config,
        ablations=(BASELINE, NO_BUNDLING, INFERRED_DICTIONARY),
    )


def _two_seed_matrix(dataset):
    """Two stream groups of a documented and an inferred-dictionary cell."""
    return ScenarioMatrix(
        dataset.config, seeds=(23, 24), ablations=(BASELINE, INFERRED_DICTIONARY)
    )


def _campaign(dataset, matrix=None, **kwargs):
    return StudyCampaign(
        matrix if matrix is not None else _paper_matrix(dataset),
        dataset_factory=lambda config: dataset,
        **kwargs,
    )


def _relabelled_campaign(dataset, matrix, **kwargs):
    """A campaign whose factory re-labels one dataset per configuration.

    Stream identity keys on ``dataset.config``, so each seed forms its own
    stream group; actually simulating a second scenario would buy these
    tests nothing.
    """
    return StudyCampaign(
        matrix,
        dataset_factory=lambda config: dataclasses.replace(dataset, config=config),
        **kwargs,
    )


def _dead_pid() -> int:
    """A pid that verifiably belonged to a finished process on this host."""
    proc = FORK.Process(target=lambda: None)
    proc.start()
    proc.join()
    return proc.pid


@pytest.fixture(scope="module")
def serial_digests(small_dataset):
    """Label -> observation digest of an uninterrupted serial run."""
    results = _campaign(small_dataset).run()
    return {
        cell.label: observations_digest(result.observations)
        for cell, result in results.items()
    }


def _whole_payload_digest(observations) -> str:
    return hashlib.sha256(dump_artifact(list(observations))[1]).hexdigest()[:32]


class TestObservationsDigest:
    """The streamed digest hashes exactly the store's observations payload."""

    ENDED = BlackholingObservation(
        prefix=Prefix.from_string("192.0.2.1/32"),
        project="ris",
        collector="rrc00",
        peer_ip="10.0.0.1",
        peer_as=64499,
        provider_key="AS64500",
        provider_asn=64500,
        ixp_name=None,
        user_asn=64510,
        community=Community(64500, 666),
        detection=DetectionMethod.ON_PATH,
        as_distance=1,
        start_time=100.0,
        end_time=200.5,
        end_cause=EndCause.EXPLICIT_WITHDRAWAL,
    )
    ACTIVE = BlackholingObservation(
        prefix=Prefix.from_string("198.51.100.0/24"),
        project="pch",
        collector="pch-test",
        peer_ip="10.0.0.2",
        peer_as=64498,
        provider_key="TEST-IX",
        provider_asn=None,
        ixp_name="TEST-IX",
        user_asn=None,
        community=Community(65535, 666),
        detection=DetectionMethod.IXP_ROUTE_SERVER,
        as_distance=None,
        start_time=150.25,
        from_table_dump=True,
    )

    def test_equals_whole_payload_hash(self):
        pair = [self.ENDED, self.ACTIVE]
        assert observations_digest(pair) == _whole_payload_digest(pair)
        # Lengths around the chunk size hit every seam between pieces.
        for length in (1, OBSERVATION_CHUNK, OBSERVATION_CHUNK + 1, 2 * OBSERVATION_CHUNK + 3):
            observations = [
                dataclasses.replace(pair[i % 2], start_time=float(i)) for i in range(length)
            ]
            assert observations_digest(observations) == _whole_payload_digest(observations)

    def test_study_observations(self, study_result):
        observations = study_result.observations
        assert observations
        assert observations_digest(observations) == _whole_payload_digest(observations)

    def test_empty_list_keeps_its_digest(self):
        expected = hashlib.sha256(b"observations:empty").hexdigest()[:32]
        assert observations_digest([]) == expected


# --------------------------------------------------------------------------- #
# Stream groups and the lease state machine
# --------------------------------------------------------------------------- #
class TestCellQueue:
    @pytest.fixture()
    def cells(self, small_dataset):
        return _paper_matrix(small_dataset).cells()

    def test_populate_is_idempotent(self, tmp_path, cells):
        queue = CellQueue(tmp_path, cells)
        assert queue.populate() == len(cells)
        assert queue.populated()
        # A second worker arriving later publishes nothing new.
        assert CellQueue(tmp_path, cells).populate() == 0

    def test_queue_groups_match_the_serial_schedule(self, tmp_path, small_dataset):
        matrix = _two_seed_matrix(small_dataset)
        campaign = _relabelled_campaign(small_dataset, matrix)
        scheduled = []
        campaign._run_fused = lambda contexts: scheduled.append(contexts)
        results = campaign.results()
        campaign._schedule(results, None)
        label_of = {id(result.context): cell.label for cell, result in results.items()}
        serial = [[label_of[id(context)] for context in group] for group in scheduled]
        queued = [
            [cell.label for _, cell in members]
            for _, members in CellQueue(tmp_path, matrix.cells()).groups
        ]
        assert queued == serial
        assert len(queued) == 2

    def test_claims_walk_the_grid_in_matrix_order(self, tmp_path, small_dataset):
        cells = _two_seed_matrix(small_dataset).cells()
        queue = CellQueue(tmp_path, cells)
        queue.populate()
        first, second = queue.claim("w"), queue.claim("w")
        claimed = [cell.index for claim in (first, second) for _, cell in claim.cells]
        assert claimed == [cell.index for cell in cells]
        assert [cell.seed for _, cell in first.cells] == [23, 23]
        assert queue.claim("w") is None  # everything leased

    def test_live_lease_blocks_other_workers(self, tmp_path, cells):
        queue = CellQueue(tmp_path, cells)
        queue.populate()
        assert len(queue.claim("first").cells) == len(cells)  # one group
        assert CellQueue(tmp_path, cells).claim("second") is None

    def test_renew_extends_the_lease(self, tmp_path, cells):
        queue = CellQueue(tmp_path, cells[:1], lease_ttl=5.0)
        queue.populate()
        claim = queue.claim("w")
        before = claim.lease.payload["expires_at"]
        time.sleep(0.01)
        assert claim.lease.renew()
        assert claim.lease.payload["expires_at"] > before
        # The durable payload moved too, not just the in-memory copy.
        on_disk = json.loads((claim.lease.path / "lease.json").read_bytes())
        assert on_disk["expires_at"] == claim.lease.payload["expires_at"]

    def test_release_returns_the_cell_without_attempt_cost(self, tmp_path, cells):
        queue = CellQueue(tmp_path, cells)
        queue.populate()
        claim = queue.claim("w")
        assert queue.release(claim)
        assert queue.attempts(claim.group_id) == 0
        again = queue.claim("w2")
        assert again is not None and again.attempt == 1
        assert again.cells == claim.cells

    def test_expired_lease_is_reclaimed_with_attempt_bump(self, tmp_path, cells):
        queue = CellQueue(tmp_path, cells[:1], lease_ttl=0.05)
        queue.populate()
        first = queue.claim("dying")
        assert first.attempt == 1
        time.sleep(0.1)  # let the lease expire
        second = queue.claim("reclaimer")
        assert second is not None
        assert second.attempt == 2
        assert queue.attempts(second.group_id) == 1  # one tombstone
        # Renewing the tombstoned lease fails instead of resurrecting it.
        assert not first.lease.renew()

    def test_reclaim_takes_only_unfinished_cells(self, tmp_path, cells):
        queue = CellQueue(tmp_path, cells, lease_ttl=0.05)
        queue.populate()
        dying = queue.claim("dying")
        first_id = dying.cells[0][0]
        assert queue.complete(dying, first_id, {"observations": 1})
        time.sleep(0.1)  # the holder dies before finishing its group
        reclaimed = queue.claim("reclaimer")
        assert reclaimed.attempt == 2
        assert reclaimed.cells == dying.cells[1:]

    def test_dead_owner_is_reclaimed_before_ttl_expiry(self, tmp_path, cells):
        queue = CellQueue(tmp_path, cells[:1], lease_ttl=600.0)
        queue.populate()
        claim = queue.claim("corpse")
        # Rewrite the lease as owned by a finished process on this host:
        # the pid probe must beat the (10-minute) TTL.
        payload = dict(claim.lease.payload, pid=_dead_pid())
        (claim.lease.path / "lease.json").write_text(json.dumps(payload))
        reclaimed = queue.claim("survivor")
        assert reclaimed is not None and reclaimed.attempt == 2

    def test_poison_guard_retires_flapping_cells(self, tmp_path, cells):
        queue = CellQueue(tmp_path, cells, lease_ttl=0.05, max_attempts=2)
        queue.populate()
        for _ in range(queue.max_attempts):
            assert queue.claim("w") is not None
            time.sleep(0.1)
        # Attempts are spent: the next sweep poisons instead of re-leasing,
        # retiring every cell of the group.
        assert queue.claim("w") is None
        status = queue.status()
        assert status.counts["poisoned"] == len(cells)
        assert status.drained  # poisoned counts as terminal

    def test_complete_publishes_done_first_write_wins(self, tmp_path, cells):
        queue = CellQueue(tmp_path, cells[:1], lease_ttl=0.05)
        queue.populate()
        stalled = queue.claim("stalled")
        time.sleep(0.1)
        reclaimer = queue.claim("reclaimer")
        ((cell_id, _),) = reclaimer.cells
        assert queue.complete(reclaimer, cell_id, {"observations": 7})
        assert queue.release(reclaimer)
        # The stalled worker finishing late loses the publish race benignly.
        assert not queue.complete(stalled, cell_id, {"observations": 7})
        (record,) = queue.done_records().values()
        assert record["worker"] == "reclaimer"
        assert record["attempt"] == 2
        assert queue.claim("anyone") is None
        assert queue.drained()

    def test_status_renders_attribution(self, tmp_path, small_dataset):
        cells = _two_seed_matrix(small_dataset).cells()
        queue = CellQueue(tmp_path, cells)
        queue.populate()
        claim = queue.claim("render-test")
        for cell_id, _ in claim.cells:
            queue.complete(claim, cell_id, {"observations": 3})
        queue.release(claim)
        assert queue.claim("holder") is not None
        status = queue.status()
        assert status.counts == {"pending": 0, "leased": 2, "done": 2, "poisoned": 0}
        text = status.render()
        assert "render-test" in text and "holder" in text
        assert cells[0].label in text

    def test_queue_identity_is_content_addressed(self, tmp_path, cells, small_dataset):
        # Same grid, independently constructed -> same queue directory;
        # different grid -> different queue (no cross-talk).
        a = CellQueue(tmp_path, cells)
        b = CellQueue(tmp_path, _paper_matrix(small_dataset).cells())
        assert a.root == b.root
        other = CellQueue(tmp_path, cells[:1])
        assert other.root != a.root


# --------------------------------------------------------------------------- #
# Worker parity: queue-driven grids == serial grids
# --------------------------------------------------------------------------- #
class TestWorkerParity:
    def test_solo_worker_matches_serial_and_fuses_its_batch(
        self, small_dataset, serial_digests, tmp_path
    ):
        campaign = _campaign(small_dataset, store=DiskStore(tmp_path))
        ledger = run_worker(campaign, tmp_path, worker_id="solo")
        assert [entry["attempt"] for entry in ledger.cells] == [1, 1, 1]
        # One claim holds the whole stream group and fuses exactly like a
        # serial campaign: two stream passes (documented wave + inferred
        # wave), every grid-invariant stage built once per identity.
        assert ledger.build_counts["stream_pass"] == 2
        assert ledger.build_counts["dictionary"] == 1
        assert ledger.build_counts["inferred_dictionary"] == 1
        assert ledger.build_counts["effective_dictionary"] == 2
        queue = CellQueue(tmp_path, _paper_matrix(small_dataset).cells())
        assert queue.drained()
        for record in queue.done_records().values():
            assert record["observations_digest"] == serial_digests[record["label"]]

    def test_distributed_fleet_is_exactly_once_and_bit_identical(
        self, small_dataset, serial_digests, tmp_path
    ):
        campaign = _campaign(small_dataset, store=DiskStore(tmp_path))
        outcome = campaign.run_distributed(workers=4, lease_ttl=30.0)
        assert all(code == 0 for _, code in outcome.worker_exits), (
            outcome.worker_exits
        )
        assert outcome.complete, outcome.status.counts
        # The exactly-once proof: aggregated across every worker's ledger,
        # each grid-invariant stage was *built* (not merely published)
        # once per identity -- the effective dictionary has two identities
        # (documented vs +inferred), the usage stats at most one build
        # (inline collection during a fused pass tallies as inference).
        # One stream group, so one worker runs the serial run's passes.
        counts = outcome.build_counts
        assert counts["dataset"] == 1, counts
        assert counts["stream_pass"] == 2, counts
        assert counts["dictionary"] == 1, counts
        assert counts["inferred_dictionary"] == 1, counts
        assert counts["effective_dictionary"] == 2, counts
        assert counts.get("usage_stats", 0) <= 1, counts
        assert counts == aggregate_build_counts(outcome.ledgers)
        done = outcome.done
        assert len(done) == 3
        for record in done.values():
            assert record["observations_digest"] == serial_digests[record["label"]]
            assert record["worker"]  # every cell attributed to a producer

    def test_two_seed_fleet_matches_the_serial_campaign(self, small_dataset, tmp_path):
        matrix = _two_seed_matrix(small_dataset)
        serial = _relabelled_campaign(small_dataset, matrix).run()
        serial_digests = {
            cell.label: observations_digest(result.observations)
            for cell, result in serial.items()
        }
        outcome = _relabelled_campaign(
            small_dataset, matrix, store=DiskStore(tmp_path)
        ).run_distributed(workers=2, lease_ttl=30.0)
        assert all(code == 0 for _, code in outcome.worker_exits), outcome.worker_exits
        assert outcome.complete, outcome.status.counts
        counts = outcome.build_counts
        for stage in ("stream_pass", "dataset"):
            assert counts[stage] == serial.build_counts[stage], (stage, counts)
        done = outcome.done.values()
        assert len(done) == len(matrix)
        for seed in (23, 24):
            workers = {record["worker"] for record in done if record["seed"] == seed}
            assert len(workers) == 1, (seed, workers)
        for record in done:
            assert record["observations_digest"] == serial_digests[record["label"]]

    def test_sigkilled_worker_cell_is_reclaimed_by_a_survivor(
        self, small_dataset, serial_digests, tmp_path
    ):
        campaign = _campaign(small_dataset, store=DiskStore(tmp_path))
        marker = tmp_path / "claimed.marker"

        def victim():
            def stall(claim):
                marker.write_text(claim.group_id)
                time.sleep(300)  # hold the group until SIGKILLed

            run_worker(
                campaign, tmp_path, worker_id="victim", lease_ttl=1.0, on_claim=stall
            )

        proc = FORK.Process(target=victim)
        proc.start()
        deadline = time.time() + 60
        while not marker.exists() and time.time() < deadline:
            time.sleep(0.02)
        assert marker.exists(), "victim never claimed a group"
        os.kill(proc.pid, signal.SIGKILL)
        proc.join()
        assert proc.exitcode == -signal.SIGKILL

        # A surviving worker reclaims the orphaned lease (dead-pid fast
        # path -- no TTL wait) and finishes the whole grid by itself.
        ledger = run_worker(campaign, tmp_path, worker_id="survivor", lease_ttl=5.0)
        queue = CellQueue(tmp_path, _paper_matrix(small_dataset).cells())
        assert queue.drained()
        done = queue.done_records()
        assert {record["group"] for record in done.values()} == {marker.read_text()}
        for record in done.values():
            assert record["attempt"] == 2
            assert record["worker"] == "survivor"
            assert record["observations_digest"] == serial_digests[record["label"]]
        assert len(ledger.cells) == 3

    def test_graceful_stop_releases_unstarted_claims(self, small_dataset, tmp_path):
        # Two seeds -> two stream groups.  Stopping once the first group's
        # cell completes leaves the second group unclaimed; stopping right
        # after a claim *releases* it (back to pending, zero attempt cost)
        # instead of abandoning it to TTL expiry.
        matrix = ScenarioMatrix(small_dataset.config, seeds=(23, 24))
        campaign = _relabelled_campaign(
            small_dataset, matrix, store=DiskStore(tmp_path)
        )
        queue = CellQueue(tmp_path, matrix.cells())

        def assert_one_done_one_pending():
            status = queue.status()
            assert status.counts["done"] == 1
            assert status.counts["pending"] == 1  # released, not leased/expired
            (pending,) = [c for c in status.cells if c["state"] == "pending"]
            assert queue.attempts(pending["group"]) == 0

        stop = threading.Event()
        ledger = run_worker(
            campaign,
            tmp_path,
            worker_id="stopper",
            stop_event=stop,
            on_cell_done=lambda claim, summary: stop.set(),
        )
        assert len(ledger.cells) == 1
        assert_one_done_one_pending()

        stop = threading.Event()
        ledger = run_worker(
            campaign,
            tmp_path,
            worker_id="releaser",
            stop_event=stop,
            on_claim=lambda claim: stop.set(),
        )
        assert ledger.cells == []
        assert_one_done_one_pending()


# --------------------------------------------------------------------------- #
# The store's init sweep over crashed-fleet residue
# --------------------------------------------------------------------------- #
class TestReapStaleQueueState:
    def _queue(self, tmp_path, small_dataset, **kwargs):
        queue = CellQueue(tmp_path, _paper_matrix(small_dataset).cells(), **kwargs)
        queue.populate()
        return queue

    def test_expired_lease_is_tombstoned_not_deleted(self, tmp_path, small_dataset):
        queue = self._queue(tmp_path, small_dataset, lease_ttl=0.05)
        claim = queue.claim("crashed")
        time.sleep(0.1)
        assert reap_stale_queue_state(tmp_path) == 1
        assert not claim.lease.path.exists()
        # The rename preserved the attempt history the poison guard counts.
        assert queue.attempts(claim.group_id) == 1

    def test_live_lease_survives_the_sweep(self, tmp_path, small_dataset):
        queue = self._queue(tmp_path, small_dataset, lease_ttl=600.0)
        claim = queue.claim("alive")
        assert reap_stale_queue_state(tmp_path) == 0
        assert claim.lease.path.exists()

    def test_dead_pid_lease_is_reaped_despite_long_ttl(
        self, tmp_path, small_dataset
    ):
        queue = self._queue(tmp_path, small_dataset, lease_ttl=600.0)
        claim = queue.claim("corpse")
        payload = dict(claim.lease.payload, pid=_dead_pid())
        (claim.lease.path / "lease.json").write_text(json.dumps(payload))
        assert reap_stale_queue_state(tmp_path) == 1
        assert queue.attempts(claim.group_id) == 1

    def test_orphaned_queue_staging_of_dead_writer_is_reaped(
        self, tmp_path, small_dataset
    ):
        queue = self._queue(tmp_path, small_dataset)
        stale = queue.root / "tmp" / f"lease.{_dead_pid()}.1"
        stale.mkdir(parents=True)
        stale_file = queue.root / "tmp" / f"ledger.{_dead_pid()}.2"
        stale_file.write_text("{}")
        live = queue.root / "tmp" / f"lease.{os.getpid()}.9"
        live.mkdir()
        assert reap_stale_queue_state(tmp_path) == 2
        assert not stale.exists() and not stale_file.exists()
        assert live.exists()

    def test_disk_store_init_runs_the_sweep(self, tmp_path, small_dataset):
        queue = self._queue(tmp_path, small_dataset, lease_ttl=0.05)
        claim = queue.claim("crashed")
        time.sleep(0.1)
        DiskStore(tmp_path)  # the store's staging sweep covers the queue too
        assert not claim.lease.path.exists()
        assert queue.attempts(claim.group_id) == 1


# --------------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------------- #
class TestDistributedCli:
    def test_serial_sweep_cells_carry_a_null_worker_field(self):
        lines: list[str] = []
        code = main(
            ["sweep", "--scale", "small", "--report", "fig2", "--format", "json"],
            out=lines.append,
        )
        assert code == 0
        payload = json.loads("\n".join(lines))
        assert payload["cells"], payload
        assert all(cell["worker"] is None for cell in payload["cells"])

    def test_status_requires_a_store(self):
        lines: list[str] = []
        assert main(["sweep", "--scale", "small", "--status"], out=lines.append) == 2
        assert "requires --store" in lines[0]

    def test_status_reports_missing_queue(self, tmp_path):
        lines: list[str] = []
        code = main(
            ["sweep", "--scale", "small", "--status", "--store", str(tmp_path)],
            out=lines.append,
        )
        assert code == 2
        assert "no queue" in lines[0]

    def test_distributed_requires_a_store(self):
        lines: list[str] = []
        code = main(
            ["sweep", "--scale", "small", "--workers-distributed", "2"],
            out=lines.append,
        )
        assert code == 2
        assert "requires --store" in lines[0]

    def test_worker_entry_point_handles_sigterm_gracefully(self, tmp_path):
        # Pre-lease the only cell with a long TTL so the worker idles
        # polling, then SIGTERM it: the handler must release cleanly and
        # exit 0 (satellite: graceful shutdown, no TTL abandonment).
        matrix = ScenarioMatrix(scales=("small",))
        queue = CellQueue(tmp_path, matrix.cells(), lease_ttl=600.0)
        queue.populate()
        assert queue.claim("blocker") is not None
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--scale",
                "small",
                "--store",
                str(tmp_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.time() + 60
        joined = False
        while time.time() < deadline and not joined:
            joined = (queue.root / "workers").is_dir() and any(
                (queue.root / "workers").iterdir()
            )
            time.sleep(0.05)
        assert joined, "worker never joined the queue"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "SIGTERM" in out
