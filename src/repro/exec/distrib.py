"""Distributed campaign execution: a lease-based work-queue over the store.

:class:`~repro.exec.store.DiskStore` makes concurrent writers *safe*
(content-addressed, atomic first-write-wins publishes) but does not decide
who works on what.  This module adds that coordination as a crash-safe
work-queue living *inside* the store, so a fleet of worker processes -- on
one host or many -- serves one campaign grid against one warm store with
kill-anywhere, resume-anywhere semantics:

* :class:`CellQueue` enumerates a campaign's
  :class:`~repro.exec.campaign.ScenarioCell`\\ s into
  ``queue/<campaign-digest>/`` under the store root and leases them by
  *stream group*: the cells of one scenario configuration, which is the
  campaign's stream identity (the project subset is campaign-wide).  A
  worker claims a whole group by publishing a *lease directory* with the
  same stage-then-rename first-write-wins idiom the store's object
  publishes use; leases carry an owner, a TTL and an attempt number, are
  renewed by heartbeat (:class:`LeaseKeeper`), and expire when their owner
  dies -- any worker may then *reclaim* the group's unfinished cells (the
  dead lease is renamed into a tombstone, which is the attempt accounting)
  until the ``max_attempts`` poison guard retires a group that keeps
  killing its workers.
* :func:`run_worker` is one worker's loop -- claim a group, run its cells
  through one fused stream pass (two when it holds inferred-dictionary
  cells, exactly as the serial scheduler does), publish per-cell ``done``
  records with observation digests, repeat until the queue drains.  It
  honours a stop event (the ``repro worker`` entry point wires
  SIGTERM/SIGINT to it) by finishing the group in hand, or by explicitly
  *releasing* a group it has not started, instead of letting it rot until
  TTL expiry.
* :class:`WorkerLedger` records, per worker, the cells it completed and
  its campaign ``build_counts``; :func:`aggregate_build_counts` sums them
  across the fleet, so "every grid-invariant stage built exactly once" is
  a counter assertion, not a wall-time claim.
* :func:`run_distributed` forks N such workers for one
  :class:`~repro.exec.campaign.StudyCampaign`
  (``StudyCampaign.run_distributed`` / ``repro sweep
  --workers-distributed``); plain ``repro worker --store DIR`` invocations
  on other hosts join the same queue, because every coordination artifact
  is just files under the shared store.

Why groups make builds exactly-once: every shared stage (``dictionary``,
``usage_stats``, ``inferred_dictionary``, ``effective_dictionary``) has a
cache identity that contains the scenario identity, so within one queue
only the group's holder ever builds it, and the fleet makes as many stream
passes and dataset builds as a serial run.  That holds per queue.  A
different grid run on the same store, or a holder that stalls past its TTL
while a reclaimer redoes its group, can still build a stage twice; both
are safe, because the store's first write wins and equal identities carry
equal content.

Everything here is plain POSIX filesystem atomicity -- ``mkdir`` +
``rename`` for first-write-wins, ``os.link`` for exclusive file publishes,
``os.replace`` for owner-only updates -- so the queue needs no daemon, no
sockets and no extra dependencies, and a SIGKILLed fleet leaves nothing a
fresh worker (or the store's init sweep) cannot reclaim.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.exec.identity import digest, fingerprint
from repro.exec.store import (
    ArtifactStore,
    DiskStore,
    observation_payload_chunks,
    reap_dead_staging,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.campaign import ScenarioCell, StudyCampaign

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "CellQueue",
    "DistributedOutcome",
    "GroupClaim",
    "LeaseKeeper",
    "QueueStatus",
    "WorkerLedger",
    "aggregate_build_counts",
    "default_worker_id",
    "observations_digest",
    "reap_stale_queue_state",
    "run_distributed",
    "run_worker",
]

#: Default group-lease TTL: a worker that misses this many seconds of
#: heartbeats is presumed dead and its group becomes reclaimable.
DEFAULT_LEASE_TTL = 30.0

#: Attempts (original claim + reclaims) before a group is poisoned: a
#: group that repeatedly outlives its workers stops wedging the fleet.
DEFAULT_MAX_ATTEMPTS = 3

_HOSTNAME = socket.gethostname()


def default_worker_id() -> str:
    """A filesystem-safe, fleet-unique worker identity (host + pid)."""
    safe_host = "".join(c if c.isalnum() or c in "-_" else "-" for c in _HOSTNAME)
    return f"{safe_host or 'host'}-{os.getpid()}"


def observations_digest(observations: Sequence) -> str:
    """A durable digest of one cell's observation list.

    Serialised through the store's ``observations`` wire format, so two
    processes agree on the digest exactly when the engine outcomes are
    bit-identical -- the distributed-vs-serial parity proof rides on it.
    The payload is hashed piece by piece, never built whole.
    """
    if not observations:
        return hashlib.sha256(b"observations:empty").hexdigest()[:32]
    hasher = hashlib.sha256()
    for chunk in observation_payload_chunks(observations):
        hasher.update(chunk)
    return hasher.hexdigest()[:32]


# --------------------------------------------------------------------------- #
# Filesystem primitives (shared by leases and queue publishes)
# --------------------------------------------------------------------------- #
def _json_dump(payload: dict) -> bytes:
    return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")


def _read_json(path: Path) -> dict | None:
    """The parsed payload, or ``None`` when missing/mid-write/garbled."""
    try:
        return json.loads(path.read_bytes())
    except (FileNotFoundError, NotADirectoryError, json.JSONDecodeError):
        return None


def _pid_is_dead(payload: dict) -> bool:
    """Whether the lease's owner is verifiably gone.

    Only meaningful on the owner's own host; a foreign host's pids are
    opaque, so there the TTL is the sole liveness signal (exactly the
    stale-staging rule :class:`~repro.exec.store.DiskStore` already uses).
    """
    if payload.get("host") != _HOSTNAME:
        return False
    pid = payload.get("pid")
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return False


def _lease_is_stale(payload: dict | None, now: float) -> bool:
    """Expired by TTL, owned by a locally dead pid, or unreadable-forever."""
    if payload is None:
        # lease.json is staged before the rename that makes the lease
        # visible, so a visible lease without one is unparseable residue;
        # treat as stale rather than wedging the cell forever.
        return True
    expires = payload.get("expires_at")
    if not isinstance(expires, (int, float)) or expires <= now:
        return True
    return _pid_is_dead(payload)


class _Workspace:
    """Staging + atomic-publish helpers rooted at one queue directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.tmp = root / "tmp"
        self._seq = 0

    def _staging_name(self, tag: str) -> str:
        self._seq += 1
        return f"{tag}.{os.getpid()}.{self._seq}"

    def publish_file(self, target: Path, payload: dict) -> bool:
        """Atomically publish ``payload`` at ``target``; first write wins."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        staging = self.tmp / self._staging_name(target.name)
        staging.write_bytes(_json_dump(payload))
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.link(staging, target)
        except FileExistsError:
            return False
        finally:
            staging.unlink(missing_ok=True)
        return True

    def publish_dir(self, target: Path, files: dict[str, dict]) -> bool:
        """Stage-then-rename a directory of JSON files; first write wins."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        staging = self.tmp / self._staging_name(target.name)
        staging.mkdir()
        for name, payload in files.items():
            (staging / name).write_bytes(_json_dump(payload))
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(staging, target)
        except OSError:
            shutil.rmtree(staging, ignore_errors=True)
            return False
        return True

    def retire_dir(self, target: Path, tag: str = "retired") -> bool:
        """Atomically unpublish a directory (rename away, then delete).

        The rename is the linearisation point -- concurrent retirers race
        on it and exactly one wins; the loser's view simply no longer sees
        ``target``.
        """
        self.tmp.mkdir(parents=True, exist_ok=True)
        parked = self.tmp / self._staging_name(tag)
        try:
            os.rename(target, parked)
        except OSError:
            return False
        shutil.rmtree(parked, ignore_errors=True)
        return True


@dataclass(eq=False)
class _Lease:
    """One held lease directory (a stream-group claim).

    ``fd`` is the lease *directory's* file descriptor, opened at acquire
    time: renames move the directory but not its inode, so the fd pins
    *our* lease even after a reclaimer tombstones it and publishes a fresh
    lease at the same path.  Renew writes through the fd (a stalled owner
    updates its own tombstoned inode, never the usurper's live lease) and
    both renew and release verify by ``samestat`` that the path still
    holds our inode before claiming success or retiring anything.
    """

    path: Path
    workspace: _Workspace
    payload: dict
    fd: int

    @property
    def owner(self) -> str:
        return self.payload["owner"]

    def _still_published(self) -> bool:
        """Whether ``path`` still names *our* lease directory."""
        try:
            return os.path.samestat(os.fstat(self.fd), os.stat(self.path))
        except OSError:
            return False

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def renew(self, ttl: float | None = None) -> bool:
        """Extend the lease; ``False`` when it was reclaimed under us."""
        if self.fd < 0:
            return False
        ttl = self.payload["ttl"] if ttl is None else ttl
        now = time.time()
        refreshed = dict(self.payload, renewed_at=now, expires_at=now + ttl, ttl=ttl)
        staging = self.workspace.tmp / self.workspace._staging_name("renew")
        self.workspace.tmp.mkdir(parents=True, exist_ok=True)
        staging.write_bytes(_json_dump(refreshed))
        try:
            # Atomic replace through the pinned directory fd: if the lease
            # was tombstoned, this writes into the tombstone, not into a
            # successor's fresh lease at the old path.
            os.replace(staging, "lease.json", dst_dir_fd=self.fd)
        except OSError:
            staging.unlink(missing_ok=True)
            return False
        if not self._still_published():
            return False
        self.payload = refreshed
        return True

    def release(self) -> bool:
        """Retire the lease; ``False`` when it was reclaimed under us."""
        mine = self._still_published()
        self.close()
        if not mine:
            return False
        return self.workspace.retire_dir(self.path, tag="released")


def _acquire_lease(
    workspace: _Workspace, path: Path, *, owner: str, ttl: float, extra: dict | None = None
) -> _Lease | None:
    """Try to publish a fresh lease directory at ``path`` (one winner)."""
    now = time.time()
    payload = {
        "owner": owner,
        "pid": os.getpid(),
        "host": _HOSTNAME,
        "acquired_at": now,
        "renewed_at": now,
        "expires_at": now + ttl,
        "ttl": ttl,
        **(extra or {}),
    }
    if workspace.publish_dir(path, {"lease.json": payload}):
        try:
            fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        except OSError:  # pragma: no cover - lease vanished before the open
            return None
        return _Lease(path=path, workspace=workspace, payload=payload, fd=fd)
    return None


class LeaseKeeper(threading.Thread):
    """A daemon heartbeat renewing registered leases until stopped.

    One keeper serves a whole worker, so a worker deep inside a long
    stream pass keeps its group lease alive without any cooperation from
    the pass itself.
    """

    def __init__(self, interval: float) -> None:
        super().__init__(name="lease-keeper", daemon=True)
        self.interval = interval
        self._leases: set[_Lease] = set()
        self._mutex = threading.Lock()
        # NB: not `_stop` -- threading.Thread owns that name internally.
        self._halt = threading.Event()

    def add(self, lease: _Lease) -> None:
        with self._mutex:
            self._leases.add(lease)

    def remove(self, lease: _Lease) -> None:
        with self._mutex:
            self._leases.discard(lease)

    def run(self) -> None:  # pragma: no cover - timing-dependent thread body
        while not self._halt.wait(self.interval):
            with self._mutex:
                leases = tuple(self._leases)
            for lease in leases:
                if not lease.renew():
                    self.remove(lease)

    def stop(self) -> None:
        self._halt.set()
        if self.is_alive():  # pragma: no branch - trivial
            self.join(timeout=5.0)


# --------------------------------------------------------------------------- #
# The cell queue
# --------------------------------------------------------------------------- #
@dataclass
class GroupClaim:
    """One claimed stream group: its unfinished cells plus the live lease.

    ``cells`` holds ``(cell id, cell)`` pairs in matrix order -- only the
    group's cells without a done record when the lease was won, so a
    reclaimer finishes what a dead holder left, never redoes what it
    published.
    """

    group_id: str
    cells: tuple[tuple[str, "ScenarioCell"], ...]
    attempt: int
    lease: _Lease

    @property
    def worker(self) -> str:
        return self.lease.owner


@dataclass(frozen=True)
class QueueStatus:
    """A point-in-time view of one campaign queue (``repro sweep --status``)."""

    campaign: str
    cells: tuple[dict, ...]
    workers: tuple[dict, ...]

    @property
    def counts(self) -> dict[str, int]:
        tally = Counter(entry["state"] for entry in self.cells)
        return {
            state: tally.get(state, 0)
            for state in ("pending", "leased", "done", "poisoned")
        }

    @property
    def drained(self) -> bool:
        return bool(self.cells) and all(
            entry["state"] in ("done", "poisoned") for entry in self.cells
        )

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "counts": self.counts,
            "drained": self.drained,
            "cells": list(self.cells),
            "workers": list(self.workers),
        }

    def render(self) -> str:
        lines = [
            f"campaign {self.campaign}: "
            + ", ".join(f"{n} {state}" for state, n in self.counts.items())
        ]
        lines.append(f"{'cell':<34} {'state':<9} {'attempt':>7} {'obs':>6} worker")
        for entry in self.cells:
            obs = entry.get("observations")
            lines.append(
                f"{entry['label']:<34} {entry['state']:<9} "
                f"{entry.get('attempt') or '-':>7} "
                f"{obs if obs is not None else '-':>6} {entry.get('worker') or '-'}"
            )
        for worker in self.workers:
            built = worker.get("build_counts", {})
            lines.append(
                f"worker {worker['worker']}: {len(worker.get('cells', []))} cell(s), "
                f"builds {dict(sorted(built.items()))}"
            )
        return "\n".join(lines)


@dataclass
class WorkerLedger:
    """One worker's contribution record, durable under ``workers/``.

    ``build_counts`` mirrors the worker's campaign-cache tallies (builds it
    *performed*; gate waits and store hits cost nothing), so summing the
    fleet's ledgers proves the exactly-once property directly.
    """

    worker: str
    started_at: float
    pid: int = field(default_factory=os.getpid)
    host: str = _HOSTNAME
    updated_at: float = 0.0
    cells: list[dict] = field(default_factory=list)
    build_counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "pid": self.pid,
            "host": self.host,
            "started_at": self.started_at,
            "updated_at": self.updated_at,
            "cells": self.cells,
            "build_counts": self.build_counts,
        }


def aggregate_build_counts(ledgers: Iterable[dict]) -> Counter:
    """Fleet-wide stage-build tallies: the sum of every worker's ledger."""
    total: Counter = Counter()
    for ledger in ledgers:
        total.update(ledger.get("build_counts", {}))
    return total


class CellQueue:
    """The durable work-queue for one campaign grid, leased by stream group.

    Lives entirely under ``<store root>/queue/<campaign digest>/``, where
    the campaign digest is the durable
    :func:`~repro.exec.identity.digest` of every cell's fingerprint -- any
    process that agrees on the matrix finds the same queue, which is what
    lets plain ``repro worker`` invocations on several hosts cooperate
    with zero further configuration.

    The unit of work is the *stream group*: the cells that share one
    scenario configuration, so one fused pass serves them all
    (:meth:`~repro.exec.campaign.StudyCampaign._run_fused`).  Records stay
    per cell; leases, tombstones and poison are per group.

    Layout (every transition is an atomic rename/link; nothing is ever
    half-visible):

    * ``cells/<cell>.json`` -- the enumerated grid (axes + label),
      published first-write-wins by whichever worker arrives first;
    * ``leases/<group>/lease.json`` -- the live claim (owner, TTL, attempt);
    * ``tombstones/<group>.<nonce>/`` -- expired leases, renamed aside by
      the reclaimer; their count per group *is* the attempt history;
    * ``done/<cell>.json`` -- the completion record (worker attribution,
      observation digest, engine counters), first write wins;
    * ``poison/<group>.json`` -- groups retired by the ``max_attempts``
      guard;
    * ``workers/<worker>.json`` -- per-worker ledgers (owner-only writes).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        cells: Sequence["ScenarioCell"],
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.cells = tuple(cells)
        if not self.cells:
            raise ValueError("a cell queue needs at least one cell")
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.campaign_digest = digest(
            ("campaign", tuple(fingerprint(cell) for cell in self.cells))
        )
        self.root = Path(root) / "queue" / self.campaign_digest
        self._workspace = _Workspace(self.root)
        self._by_id = tuple((self.cell_id(cell), cell) for cell in self.cells)
        members: dict[str, list[tuple[str, "ScenarioCell"]]] = {}
        for cell_id, cell in self._by_id:
            members.setdefault(digest(fingerprint(cell.config)), []).append(
                (cell_id, cell)
            )
        #: ``(group id, ((cell id, cell), ...))`` in matrix order of each
        #: group's first cell.
        self.groups = tuple(
            (f"{group[0][1].index:03d}-{config_digest[:12]}", tuple(group))
            for config_digest, group in members.items()
        )

    @staticmethod
    def cell_id(cell: "ScenarioCell") -> str:
        """A stable, filesystem-safe identity for one grid point."""
        return f"{cell.index:03d}-{digest(fingerprint(cell))[:12]}"

    # -- paths --------------------------------------------------------- #
    def _cell_path(self, cell_id: str) -> Path:
        return self.root / "cells" / f"{cell_id}.json"

    def _lease_path(self, group_id: str) -> Path:
        return self.root / "leases" / group_id

    def _done_path(self, cell_id: str) -> Path:
        return self.root / "done" / f"{cell_id}.json"

    def _poison_path(self, group_id: str) -> Path:
        return self.root / "poison" / f"{group_id}.json"

    def _ledger_path(self, worker: str) -> Path:
        return self.root / "workers" / f"{worker}.json"

    def _unfinished(self, members) -> tuple[tuple[str, "ScenarioCell"], ...]:
        return tuple(
            member for member in members if not self._done_path(member[0]).exists()
        )

    # -- population ---------------------------------------------------- #
    def populate(self) -> int:
        """Publish the grid enumeration; idempotent and race-free.

        Every worker populates on startup -- first write wins per cell, so
        N workers racing on a fresh store produce exactly one queue.
        Returns the number of cell records this call published.
        """
        published = 0
        for cell_id, cell in self._by_id:
            target = self._cell_path(cell_id)
            if target.exists():
                continue
            published += int(
                self._workspace.publish_file(
                    target,
                    {
                        "cell": cell_id,
                        "index": cell.index,
                        "label": cell.label,
                        "seed": cell.seed,
                        "scale": cell.scale,
                        "ablation": cell.ablation.name,
                    },
                )
            )
        if published:
            self._workspace.publish_file(
                self.root / "manifest.json",
                {
                    "format": 2,
                    "campaign": self.campaign_digest,
                    "cells": len(self.cells),
                    "lease_ttl": self.lease_ttl,
                    "max_attempts": self.max_attempts,
                },
            )
        return published

    def populated(self) -> bool:
        return (self.root / "manifest.json").exists()

    # -- attempt accounting -------------------------------------------- #
    def attempts(self, group_id: str) -> int:
        """Abandoned attempts so far: the group's tombstone count."""
        tombstones = self.root / "tombstones"
        if not tombstones.is_dir():
            return 0
        return sum(1 for _ in tombstones.glob(f"{group_id}.*"))

    def _entomb(self, group_id: str) -> bool:
        """Rename a stale lease into a tombstone (one reclaimer wins)."""
        self._workspace._seq += 1
        tombstone = (
            self.root
            / "tombstones"
            / f"{group_id}.{os.getpid()}-{self._workspace._seq}"
        )
        tombstone.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(self._lease_path(group_id), tombstone)
        except OSError:
            return False
        return True

    def _poison(self, group_id: str, attempts: int) -> None:
        self._workspace.publish_file(
            self._poison_path(group_id),
            {
                "group": group_id,
                "attempts": attempts,
                "max_attempts": self.max_attempts,
                "poisoned_at": time.time(),
            },
        )

    # -- claiming ------------------------------------------------------ #
    def claim(self, worker: str) -> GroupClaim | None:
        """Claim the first available stream group, or ``None``.

        Walks the groups in matrix order: finished and poisoned groups are
        skipped, stale leases are reclaimed (tombstoned, bumping the
        attempt count -- or poisoned once ``max_attempts`` is spent), and
        the first successful lease publish wins the group's unfinished
        cells.
        """
        now = time.time()
        for group_id, members in self.groups:
            if self._poison_path(group_id).exists() or not self._unfinished(members):
                continue
            lease_path = self._lease_path(group_id)
            attempts = self.attempts(group_id)
            if lease_path.exists():
                payload = _read_json(lease_path / "lease.json")
                if not _lease_is_stale(payload, now):
                    continue
                if not self._entomb(group_id):
                    continue  # lost the reclaim race; move on
                attempts += 1
            if attempts >= self.max_attempts:
                self._poison(group_id, attempts)
                continue
            lease = _acquire_lease(
                self._workspace,
                lease_path,
                owner=worker,
                ttl=self.lease_ttl,
                extra={"group": group_id, "attempt": attempts + 1},
            )
            if lease is None:
                continue  # lost the claim race
            # A holder publishes its done records before it releases, so
            # read under our lease, this set is final.
            unfinished = self._unfinished(members)
            if not unfinished:
                lease.release()
                continue
            return GroupClaim(
                group_id=group_id, cells=unfinished, attempt=attempts + 1, lease=lease
            )
        return None

    # -- lifecycle ----------------------------------------------------- #
    def release(self, claim: GroupClaim) -> bool:
        """Drop the group's lease: after its cells are done, or unstarted
        on a graceful stop (no attempt cost either way)."""
        return claim.lease.release()

    def complete(self, claim: GroupClaim, cell_id: str, summary: dict) -> bool:
        """Publish one cell's done record; the lease stays held.

        First write wins: if a reclaimer finished the cell while this
        worker stalled past its TTL, the stall's record is discarded and
        ``False`` comes back (the observation parity makes either record
        equally true; the attribution belongs to the publish winner).
        """
        return self._workspace.publish_file(
            self._done_path(cell_id),
            {
                "cell": cell_id,
                "group": claim.group_id,
                "worker": claim.worker,
                "attempt": claim.attempt,
                "finished_at": time.time(),
                **summary,
            },
        )

    def drained(self) -> bool:
        """Whether every cell is done or its group poisoned."""
        return all(
            self._poison_path(group_id).exists() or not self._unfinished(members)
            for group_id, members in self.groups
        )

    # -- ledgers ------------------------------------------------------- #
    def write_ledger(self, ledger: WorkerLedger) -> None:
        """Persist one worker's ledger (owner-only, atomic replace)."""
        ledger.updated_at = time.time()
        path = self._ledger_path(ledger.worker)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._workspace.tmp.mkdir(parents=True, exist_ok=True)
        staging = self._workspace.tmp / self._workspace._staging_name("ledger")
        staging.write_bytes(_json_dump(ledger.to_dict()))
        os.replace(staging, path)

    def ledgers(self) -> tuple[dict, ...]:
        workers = self.root / "workers"
        if not workers.is_dir():
            return ()
        loaded = (_read_json(path) for path in sorted(workers.glob("*.json")))
        return tuple(ledger for ledger in loaded if ledger is not None)

    def done_records(self) -> dict[str, dict]:
        done = self.root / "done"
        if not done.is_dir():
            return {}
        records = {}
        for path in sorted(done.glob("*.json")):
            payload = _read_json(path)
            if payload is not None:
                records[payload["cell"]] = payload
        return records

    # -- inspection ---------------------------------------------------- #
    def status(self) -> QueueStatus:
        now = time.time()
        done = self.done_records()
        entries = []
        for group_id, members in self.groups:
            poison = _read_json(self._poison_path(group_id))
            lease = _read_json(self._lease_path(group_id) / "lease.json")
            if lease is not None and _lease_is_stale(lease, now):
                lease = None
            attempts = self.attempts(group_id)
            for cell_id, cell in members:
                entry = {
                    "cell": cell_id,
                    "group": group_id,
                    "index": cell.index,
                    "label": cell.label,
                    "seed": cell.seed,
                    "scale": cell.scale,
                    "ablation": cell.ablation.name,
                    "state": "pending",
                    "worker": None,
                    "attempt": attempts or None,
                }
                record = done.get(cell_id)
                if record is not None:
                    entry.update(
                        state="done",
                        worker=record.get("worker"),
                        attempt=record.get("attempt"),
                        observations=record.get("observations"),
                    )
                elif poison is not None:
                    entry.update(state="poisoned", attempt=poison.get("attempts"))
                elif lease is not None:
                    entry.update(
                        state="leased",
                        worker=lease.get("owner"),
                        attempt=lease.get("attempt"),
                    )
                entries.append(entry)
        return QueueStatus(
            campaign=self.campaign_digest,
            cells=tuple(entries),
            workers=self.ledgers(),
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CellQueue({self.campaign_digest!r}, cells={len(self.cells)}, "
            f"groups={len(self.groups)})"
        )


# --------------------------------------------------------------------------- #
# Stale-state reaping (DiskStore init hook -- the crashed-fleet sweep)
# --------------------------------------------------------------------------- #
def reap_stale_queue_state(root: str | os.PathLike) -> int:
    """Reap coordination residue a crashed fleet left under ``root``.

    Extends the store's stale-*staging* sweep to the queue subsystem, so a
    SIGKILLed fleet never leaves a wedged queue behind:

    * queue ``tmp/`` staging owned by verifiably dead pids is removed
      (:func:`~repro.exec.store.reap_dead_staging`, the object-staging
      rule);
    * expired group leases are *tombstoned*, not deleted: the rename
      preserves the attempt history the poison guard counts.

    Live or ambiguous state is always left alone.  Returns the number of
    entries reaped.
    """
    queues = Path(root) / "queue"
    if not queues.is_dir():
        return 0
    now = time.time()
    reaped = 0
    for queue_dir in queues.iterdir():
        if not queue_dir.is_dir():
            continue
        reaped += reap_dead_staging(queue_dir / "tmp")
        leases = queue_dir / "leases"
        if not leases.is_dir():
            continue
        for lease_dir in leases.iterdir():
            if not lease_dir.is_dir():
                continue
            if not _lease_is_stale(_read_json(lease_dir / "lease.json"), now):
                continue
            tombstone = (
                queue_dir / "tombstones" / f"{lease_dir.name}.{os.getpid()}.reap"
            )
            tombstone.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(lease_dir, tombstone)
            except OSError:
                continue
            reaped += 1
    return reaped


# --------------------------------------------------------------------------- #
# The worker loop
# --------------------------------------------------------------------------- #
def _cell_summary(cell, result) -> dict:
    """The done-record payload for one completed cell."""
    outcome = result.context.get("execution_outcome")
    report = result.report
    stats = outcome.engine_stats
    return {
        "label": cell.label,
        "seed": cell.seed,
        "scale": cell.scale,
        "ablation": cell.ablation.name,
        "observations": len(outcome.observations),
        "observations_digest": observations_digest(outcome.observations),
        "providers": len(report.providers()),
        "users": len(report.users()),
        "prefixes": len(report.ipv4_prefixes()),
        "batches_processed": stats.batches_processed,
        "process_calls": stats.process_calls,
        "row_touches": stats.row_touches,
        "rows_materialised": stats.rows_materialised,
    }


def run_worker(
    campaign: "StudyCampaign",
    store_root: str | os.PathLike | None = None,
    *,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll_interval: float = 0.05,
    max_cells: int | None = None,
    stop_event: threading.Event | None = None,
    on_claim: Callable[[GroupClaim], None] | None = None,
    on_cell_done: Callable[[GroupClaim, dict], None] | None = None,
    status_out: Callable[[str], None] | None = None,
) -> WorkerLedger:
    """One worker process's whole life against a shared campaign queue.

    Joins (populating if first) the queue for ``campaign``'s grid under
    ``store_root`` (default: the root of the campaign's own
    :class:`~repro.exec.store.DiskStore`), then loops: claim one stream
    group, run its cells through
    :meth:`~repro.exec.campaign.StudyCampaign._run_fused` (the serial
    scheduler's fused pass), publish each cell's done record, persist the
    ledger and release the group.  Exits when the queue drains, once
    ``max_cells`` cells are done (the group in hand is always finished),
    or when ``stop_event`` is set -- a group claimed but not yet started
    is then explicitly released (no TTL wait for the rest of the fleet).

    Shared stages resolve through a plain
    :class:`~repro.exec.store.DiskStore`: their identities contain the
    scenario identity, so only the group's holder builds them.  A
    :class:`LeaseKeeper` heartbeat renews the group lease for as long as
    the worker is actually alive.

    Returns this worker's :class:`WorkerLedger` (also durable in the
    queue's ``workers/`` directory).
    """
    from repro.analysis.pipeline import StudyResult
    from repro.exec.campaign import StudyCampaign

    stop_event = stop_event or threading.Event()
    say = status_out or (lambda line: None)
    if store_root is None:
        backend = campaign.cache.backend
        root = getattr(backend, "root", None)
        if root is None:
            raise ValueError(
                "run_worker needs a DiskStore root: pass store_root= or build "
                "the campaign with store=DiskStore(...)"
            )
        store_root = root
    worker_id = worker_id or default_worker_id()
    queue = CellQueue(
        store_root,
        campaign.matrix.cells(),
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
    )
    queue.populate()
    keeper = LeaseKeeper(interval=max(lease_ttl / 4.0, 0.05))
    keeper.start()
    # A private campaign over the same grid, backed by the shared store.
    # Contexts (and datasets) materialise per *claimed* group, so an idle
    # worker waiting on a fully leased queue simulates nothing.
    mine = StudyCampaign(
        campaign.matrix,
        plan=campaign.plan,
        projects=campaign.projects,
        stages=campaign._stages,
        dataset_factory=campaign._dataset_factory,
        store=DiskStore(store_root, resume=True),
    )
    # Datasets the caller already simulated carry over (copy-on-write under
    # fork): a pre-warmed parent saves every worker the simulation cost.
    mine._datasets.update(campaign._datasets)
    ledger = WorkerLedger(worker=worker_id, started_at=time.time())
    queue.write_ledger(ledger)
    say(f"worker {worker_id} joined queue {queue.campaign_digest}")
    try:
        while not stop_event.is_set():
            if max_cells is not None and len(ledger.cells) >= max_cells:
                break
            claim = queue.claim(worker_id)
            if claim is None:
                if queue.drained():
                    break
                time.sleep(poll_interval)
                continue
            keeper.add(claim.lease)
            if on_claim is not None:
                on_claim(claim)
            if stop_event.is_set():
                keeper.remove(claim.lease)
                queue.release(claim)
                say(f"worker {worker_id} released group {claim.group_id} on stop")
                break
            results = [StudyResult(mine.context_for(cell)) for _, cell in claim.cells]
            mine._run_fused([result.context for result in results])
            for (cell_id, cell), result in zip(claim.cells, results):
                summary = _cell_summary(cell, result)
                won = queue.complete(claim, cell_id, summary)
                ledger.cells.append(
                    {
                        "cell": cell_id,
                        "label": cell.label,
                        "attempt": claim.attempt,
                        "recorded": won,
                    }
                )
                say(
                    f"worker {worker_id} completed {cell.label} "
                    f"(attempt {claim.attempt})"
                )
                if on_cell_done is not None:
                    on_cell_done(claim, summary)
            keeper.remove(claim.lease)
            queue.release(claim)
            ledger.build_counts = dict(mine.cache.build_counts)
            queue.write_ledger(ledger)
    finally:
        keeper.stop()
        ledger.build_counts = dict(mine.cache.build_counts)
        queue.write_ledger(ledger)
    say(f"worker {worker_id} done: {len(ledger.cells)} cell(s)")
    return ledger


# --------------------------------------------------------------------------- #
# Fleet launcher
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DistributedOutcome:
    """What a distributed campaign run left behind.

    The artifacts themselves live in the store (shared stages) and the
    queue's done records (per-cell attribution + observation digests);
    this object is the aggregated view the caller asserts on.
    """

    queue: CellQueue
    status: QueueStatus
    worker_exits: tuple[tuple[str, int | None], ...]

    @property
    def ledgers(self) -> tuple[dict, ...]:
        return self.status.workers

    @property
    def build_counts(self) -> Counter:
        """Fleet-wide stage-build tallies (the exactly-once proof)."""
        return aggregate_build_counts(self.ledgers)

    @property
    def done(self) -> dict[str, dict]:
        return self.queue.done_records()

    @property
    def complete(self) -> bool:
        return self.status.drained and not any(
            entry["state"] == "poisoned" for entry in self.status.cells
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DistributedOutcome(counts={self.status.counts}, "
            f"workers={len(self.worker_exits)})"
        )


def run_distributed(
    campaign: "StudyCampaign",
    *,
    workers: int = 2,
    store: "ArtifactStore | None" = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    poll_interval: float = 0.05,
    join_timeout: float | None = None,
    status_out: Callable[[str], None] | None = None,
) -> DistributedOutcome:
    """Serve one campaign grid with ``workers`` forked worker processes.

    The parent only enumerates the queue and supervises; every worker is a
    full :func:`run_worker` against the shared store (fork start method --
    the campaign's dataset factory and plan transfer by inheritance, and
    an already-simulated parent dataset is shared copy-on-write instead of
    being re-simulated per worker).  Additional workers on other hosts may
    join the same queue concurrently via ``repro worker``.  A grid with
    fewer stream groups than ``workers`` leaves the surplus workers idle.

    Returns a :class:`DistributedOutcome`; completion is *not* raised on
    -- a poisoned group or a failed worker shows up in ``status`` /
    ``worker_exits`` for the caller to judge.
    """
    import multiprocessing

    if workers < 1:
        raise ValueError("workers must be >= 1")
    backend = store if store is not None else campaign.cache.backend
    root = getattr(backend, "root", None)
    if root is None:
        raise ValueError(
            "run_distributed needs a durable store: pass store=DiskStore(...) "
            "or construct the campaign with one"
        )
    queue = CellQueue(
        root, campaign.matrix.cells(), lease_ttl=lease_ttl, max_attempts=max_attempts
    )
    queue.populate()
    say = status_out or (lambda line: None)
    context = multiprocessing.get_context("fork")

    def _worker_main(index: int) -> None:
        run_worker(
            campaign,
            root,
            worker_id=f"w{index}-{default_worker_id()}",
            lease_ttl=lease_ttl,
            max_attempts=max_attempts,
            poll_interval=poll_interval,
        )

    processes = [
        context.Process(target=_worker_main, args=(index,), name=f"repro-worker-{index}")
        for index in range(workers)
    ]
    for process in processes:
        process.start()
    say(f"spawned {workers} worker(s) against {queue.root}")
    exits: list[tuple[str, int | None]] = []
    for process in processes:
        process.join(join_timeout)
        if process.is_alive():  # pragma: no cover - supervision backstop
            process.terminate()
            process.join(5.0)
        exits.append((process.name, process.exitcode))
    return DistributedOutcome(
        queue=queue, status=queue.status(), worker_exits=tuple(exits)
    )
