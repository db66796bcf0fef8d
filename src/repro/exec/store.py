"""Durable, pluggable artifact stores behind the campaign cache.

The cross-context :class:`~repro.exec.context.ArtifactCache` used to be a
plain in-memory dict, which bounded campaign size by process memory and
made every sweep one-shot: kill the process and every shared artifact --
documented dictionary, usage statistics, inferred/effective dictionaries --
is gone.  This module turns the cache's storage into a pluggable
*backend*:

* :class:`ArtifactStore` is the backend protocol -- ``lookup``/``store``
  over the same ``(stage name, *cache_inputs)`` tuple keys the cache has
  always used;
* :class:`MemoryStore` is the extracted in-memory behaviour (the default:
  bit-identical to the pre-refactor cache);
* :class:`DiskStore` is a content-addressed on-disk layout keyed by
  :func:`repro.exec.identity.digest` of the tuple key, with per-artifact-
  type serialisers, an LRU-bounded in-process read cache, and atomic
  write-then-rename publishes, so concurrent or killed writers can never
  leave a half-visible entry.

A warm :class:`DiskStore` is what makes campaigns *resumable*: a fresh
process that agrees on the stage identities finds every previously
published artifact on disk and rebuilds nothing
(:meth:`repro.exec.campaign.StudyCampaign.run`'s scheduler then fuses the
whole grid into a single stream pass, because the usage statistics no
longer need collecting).

Serialisers are type-addressed, not stage-addressed: dictionaries
(:class:`~repro.dictionary.model.BlackholeDictionary`), community sets,
usage statistics, observation lists and
:class:`~repro.analysis.registry.AnalysisResult` payloads each have a
format; plain JSON-able values fall through to a generic serialiser.  A
value no serialiser accepts simply stays memory-only -- the store never
persists something it could not faithfully reload.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Protocol, Sequence

from repro.bgp.community import Community, LargeCommunity, parse_community
from repro.core.events import BlackholingObservation, DetectionMethod, EndCause
from repro.dictionary.inference import CommunityUsageStats
from repro.dictionary.model import (
    BlackholeDictionary,
    CommunityEntry,
    CommunitySource,
)
from repro.exec.identity import digest
from repro.netutils.prefixes import Prefix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.registry import AnalysisResult

__all__ = [
    "ArtifactStore",
    "DiskStore",
    "MemoryStore",
    "SERIALIZERS",
    "Serializer",
    "dump_artifact",
    "load_artifact",
    "observation_payload_chunks",
    "reap_dead_staging",
    "serializer_for",
]


class ArtifactStore(Protocol):
    """Backend protocol for the cross-context artifact cache.

    Keys are the cache's ``(stage name, *cache_inputs)`` tuples; values are
    the full artifact dict a stage produced.  ``store`` must keep
    first-write-wins semantics (never clobber an existing entry), matching
    the read-only contract shared artifacts carry across contexts.
    """

    def lookup(self, key: tuple) -> dict[str, object] | None: ...  # pragma: no cover

    def store(self, key: tuple, produced: dict[str, object]) -> None: ...  # pragma: no cover

    def __len__(self) -> int: ...  # pragma: no cover


# --------------------------------------------------------------------------- #
# Per-artifact-type serialisers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Serializer:
    """One artifact wire format: a match predicate plus dump/load."""

    name: str
    match: Callable[[object], bool]
    dump: Callable[[object], bytes]
    load: Callable[[bytes], object]


def _json_bytes(payload: object) -> bytes:
    return json.dumps(payload, indent=None, separators=(",", ":")).encode("utf-8")


def _dump_dictionary(value: BlackholeDictionary) -> bytes:
    # entries() order is load-bearing: reinserting in the same order
    # reconstructs identical per-community entry lists, so engine
    # disambiguation (which walks those lists) stays bit-identical.
    return _json_bytes(
        {
            "entries": [
                {
                    "community": str(entry.community),
                    "provider_asn": entry.provider_asn,
                    "source": entry.source.value,
                    "ixp_name": entry.ixp_name,
                    "scope": entry.scope,
                    "max_prefix_length": entry.max_prefix_length,
                }
                for entry in value.entries()
            ]
        }
    )


def _load_dictionary(data: bytes) -> BlackholeDictionary:
    return BlackholeDictionary(
        CommunityEntry(
            community=parse_community(row["community"]),
            provider_asn=row["provider_asn"],
            source=CommunitySource(row["source"]),
            ixp_name=row["ixp_name"],
            scope=row["scope"],
            max_prefix_length=row["max_prefix_length"],
        )
        for row in json.loads(data)["entries"]
    )


def _is_community_set(value: object) -> bool:
    return isinstance(value, (set, frozenset)) and all(
        isinstance(item, (Community, LargeCommunity)) for item in value
    )


def _dump_communities(value) -> bytes:
    return _json_bytes({"communities": sorted(str(c) for c in value)})


def _load_communities(data: bytes) -> set:
    return {parse_community(text) for text in json.loads(data)["communities"]}


def _dump_usage_stats(stats: CommunityUsageStats) -> bytes:
    return _json_bytes(
        {
            "total_announcements": stats.total_announcements,
            "co_occurred": sorted(str(c) for c in stats.co_occurred),
            "length_counts": [
                [str(community), sorted(counts.items())]
                for community, counts in sorted(stats.length_counts.items())
            ],
        }
    )


def _load_usage_stats(data: bytes) -> CommunityUsageStats:
    payload = json.loads(data)
    stats = CommunityUsageStats()
    stats.total_announcements = payload["total_announcements"]
    stats.co_occurred = {parse_community(text) for text in payload["co_occurred"]}
    for text, counts in payload["length_counts"]:
        bucket = stats.length_counts[parse_community(text)]
        for length, count in counts:
            bucket[int(length)] = count
    return stats


def _is_observation_list(value: object) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(item, BlackholingObservation) for item in value)
    )


def _observation_row(o: BlackholingObservation) -> dict:
    return {
        "prefix": str(o.prefix),
        "project": o.project,
        "collector": o.collector,
        "peer_ip": o.peer_ip,
        "peer_as": o.peer_as,
        "provider_key": o.provider_key,
        "provider_asn": o.provider_asn,
        "ixp_name": o.ixp_name,
        "user_asn": o.user_asn,
        "community": str(o.community),
        "detection": o.detection.value,
        "as_distance": o.as_distance,
        "start_time": o.start_time,
        "end_time": o.end_time,
        "end_cause": None if o.end_cause is None else o.end_cause.value,
        "from_table_dump": o.from_table_dump,
    }


#: Observations encoded per piece by :func:`observation_payload_chunks`.
OBSERVATION_CHUNK = 1024


def observation_payload_chunks(value: Sequence[BlackholingObservation]) -> Iterator[bytes]:
    """The ``observations`` payload of ``value``, in pieces.

    Joined, the pieces are exactly the bytes the store writes; hashing
    them one by one never holds more than :data:`OBSERVATION_CHUNK`
    encoded rows.
    """
    yield b'{"observations":['
    for start in range(0, len(value), OBSERVATION_CHUNK):
        rows = _json_bytes(
            [_observation_row(o) for o in value[start : start + OBSERVATION_CHUNK]]
        )[1:-1]
        yield rows if start == 0 else b"," + rows
    yield b"]}"


def _dump_observations(value: list[BlackholingObservation]) -> bytes:
    return b"".join(observation_payload_chunks(value))


def _load_observations(data: bytes) -> list[BlackholingObservation]:
    return [
        BlackholingObservation(
            prefix=Prefix.from_string(row["prefix"]),
            project=row["project"],
            collector=row["collector"],
            peer_ip=row["peer_ip"],
            peer_as=row["peer_as"],
            provider_key=row["provider_key"],
            provider_asn=row["provider_asn"],
            ixp_name=row["ixp_name"],
            user_asn=row["user_asn"],
            community=parse_community(row["community"]),
            detection=DetectionMethod(row["detection"]),
            as_distance=row["as_distance"],
            start_time=row["start_time"],
            end_time=row["end_time"],
            end_cause=None if row["end_cause"] is None else EndCause(row["end_cause"]),
            from_table_dump=row["from_table_dump"],
        )
        for row in json.loads(data)["observations"]
    ]


def _is_analysis_result(value: object) -> bool:
    from repro.analysis.registry import AnalysisResult

    return isinstance(value, AnalysisResult)


def _dump_analysis(value: "AnalysisResult") -> bytes:
    from repro.analysis.registry import jsonify

    payload = value.to_dict()
    # The rendered cells too: reloaded rows are plain dicts keyed by field
    # name, which render() could not map back onto display headers.
    payload["display"] = jsonify(value.table_cells())
    return _json_bytes(payload)


def _load_analysis(data: bytes) -> "AnalysisResult":
    from repro.analysis.registry import AnalysisResult

    payload = json.loads(data)
    return AnalysisResult(
        name=payload["name"],
        title=payload["title"],
        headers=tuple(payload["headers"]),
        rows=tuple(payload["rows"]),
        display_rows=tuple(tuple(cells) for cells in payload["display"]),
        meta=payload["meta"],
    )


def _is_plain(value: object) -> bool:
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_plain(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _is_plain(item) for key, item in value.items()
        )
    return False


def _dump_plain(value: object) -> bytes:
    return _json_bytes({"value": value})


def _load_plain(data: bytes) -> object:
    return json.loads(data)["value"]


#: The wire formats, in match order (the generic JSON fallback comes last).
SERIALIZERS: tuple[Serializer, ...] = (
    Serializer(
        "dictionary",
        lambda value: isinstance(value, BlackholeDictionary),
        _dump_dictionary,
        _load_dictionary,
    ),
    Serializer(
        "usage_stats",
        lambda value: isinstance(value, CommunityUsageStats),
        _dump_usage_stats,
        _load_usage_stats,
    ),
    Serializer(
        "observations", _is_observation_list, _dump_observations, _load_observations
    ),
    Serializer("communities", _is_community_set, _dump_communities, _load_communities),
    Serializer("analysis", _is_analysis_result, _dump_analysis, _load_analysis),
    Serializer("json", _is_plain, _dump_plain, _load_plain),
)

_BY_NAME = {serializer.name: serializer for serializer in SERIALIZERS}


def serializer_for(value: object) -> Serializer:
    """The first serialiser whose ``match`` accepts ``value``.

    Raises ``TypeError`` when none does -- callers treat that as "keep the
    artifact memory-only" rather than persisting something unloadable.
    """
    for serializer in SERIALIZERS:
        if serializer.match(value):
            return serializer
    raise TypeError(
        f"no artifact serializer accepts {type(value).__qualname__!r}; "
        f"known formats: {', '.join(sorted(_BY_NAME))}"
    )


def dump_artifact(value: object) -> tuple[str, bytes]:
    """Serialise one artifact; returns ``(format name, payload bytes)``."""
    serializer = serializer_for(value)
    return serializer.name, serializer.dump(value)


def load_artifact(name: str, data: bytes) -> object:
    """Deserialise one artifact previously dumped under format ``name``."""
    try:
        serializer = _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown artifact format {name!r} (written by a newer version?); "
            f"known: {', '.join(sorted(_BY_NAME))}"
        ) from None
    return serializer.load(data)


# --------------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------------- #
class MemoryStore:
    """The classic in-memory backend (the default; today's exact behaviour)."""

    def __init__(self) -> None:
        self._entries: dict[tuple, dict[str, object]] = {}

    def lookup(self, key: tuple) -> dict[str, object] | None:
        return self._entries.get(key)

    def store(self, key: tuple, produced: dict[str, object]) -> None:
        self._entries.setdefault(key, produced)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MemoryStore(entries={len(self._entries)})"


def reap_dead_staging(tmp: Path) -> int:
    """Remove the entries under a staging directory whose writer is gone.

    Staging names embed the writer's pid (``<name>.<pid>.<seq>``); an entry
    whose writer is verifiably gone is residue of an interrupted publish
    and can never be renamed into place anymore.  Anything ambiguous
    (unparseable name, live or unverifiable pid) is left alone -- a
    concurrent writer may still be mid-publish.  Returns the number of
    entries removed.
    """
    if not tmp.is_dir():
        return 0
    reaped = 0
    for staging in tmp.iterdir():
        try:
            pid = int(staging.name.split(".")[-2])
            os.kill(pid, 0)
        except ProcessLookupError:
            if staging.is_dir():
                shutil.rmtree(staging, ignore_errors=True)
            else:
                staging.unlink(missing_ok=True)
            reaped += 1
        except (IndexError, ValueError, OSError):
            continue
    return reaped


class DiskStore:
    """Content-addressed on-disk artifact store with an LRU read cache.

    Layout: ``root/objects/<stage>/<digest>/`` holds one ``meta.json``
    (artifact names and wire formats) plus one file per artifact; the
    digest is :func:`repro.exec.identity.digest` of the full tuple key, so
    equal stage identities map to the same entry from any process.
    Publishes are atomic: every entry is serialised into ``root/tmp`` and
    renamed into place in one step, so a killed or concurrent writer can
    never leave a partially visible entry (stray ``tmp`` residue is
    ignored by readers and cleaned opportunistically).

    ``resume`` controls whether entries that predate this instance are
    *read*: with ``resume=False`` (a deliberately cold run) pre-existing
    entries are ignored -- this run's products are persisted for digests
    not yet on disk, and kept pinned in memory where a pre-existing entry
    already occupies the digest (neither trusted nor clobbered; note that
    a cold run over a fully populated store therefore pins every shared
    artifact and forgoes the LRU spill) -- while ``resume=True`` serves
    them, which is what makes a restarted campaign skip every previously
    published stage.

    ``max_cached`` bounds the in-process read cache (an LRU over whole
    entries): large shared artifacts spill to disk instead of staying
    pinned in memory forever, and repeated lookups of hot entries stay
    cheap.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        resume: bool = True,
        max_cached: int = 16,
    ) -> None:
        if max_cached < 1:
            raise ValueError("max_cached must be >= 1")
        self.root = Path(root)
        self.resume = resume
        self.max_cached = max_cached
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        self._cache: OrderedDict[str, dict[str, object]] = OrderedDict()
        #: Digests whose on-disk bytes this instance wrote (or, resuming,
        #: verified equal by content address) -- the only entries a
        #: ``resume=False`` instance may re-read from disk after eviction.
        self._written: set[str] = set()
        #: Entries that must never be re-read from disk: memory-only
        #: products without a wire format, and cold-run products whose
        #: digest already existed on disk (we neither trust nor clobber the
        #: pre-existing bytes).  Exempt from the LRU.
        self._pinned: dict[str, dict[str, object]] = {}
        self._sequence = 0
        self._clean_staging()

    def _clean_staging(self) -> None:
        """Drop stale residue abandoned by killed writers and fleets.

        Object staging goes through :func:`reap_dead_staging`.  The same
        sweep extends to the work-queue state :mod:`repro.exec.distrib`
        keeps under this root: expired group leases are tombstoned
        (preserving attempt accounting), so a crashed fleet never leaves a
        wedged queue behind for the next process to trip over.
        """
        reap_dead_staging(self._tmp)
        if (self.root / "queue").is_dir():
            # Imported lazily: distrib builds on this module.
            from repro.exec.distrib import reap_stale_queue_state

            reap_stale_queue_state(self.root)

    # ------------------------------------------------------------------ #
    @staticmethod
    def key_digest(key: tuple) -> str:
        """The durable digest an entry for ``key`` is addressed by."""
        return digest(key)

    def _entry_path(self, key: tuple) -> tuple[str, Path]:
        stage = key[0] if key and isinstance(key[0], str) else "_"
        entry_digest = digest(key)
        return entry_digest, self._objects / stage / entry_digest

    def _remember(self, entry_digest: str, produced: dict[str, object]) -> None:
        cache = self._cache
        cache[entry_digest] = produced
        cache.move_to_end(entry_digest)
        while len(cache) > self.max_cached:
            cache.popitem(last=False)

    # ------------------------------------------------------------------ #
    def lookup(self, key: tuple) -> dict[str, object] | None:
        entry_digest, path = self._entry_path(key)
        pinned = self._pinned.get(entry_digest)
        if pinned is not None:
            return pinned
        cached = self._cache.get(entry_digest)
        if cached is not None:
            self._cache.move_to_end(entry_digest)
            return cached
        if not (self.resume or entry_digest in self._written):
            return None
        meta_path = path / "meta.json"
        try:
            meta = json.loads(meta_path.read_bytes())
        except FileNotFoundError:
            return None
        produced = {
            artifact["name"]: load_artifact(
                artifact["serializer"], (path / artifact["file"]).read_bytes()
            )
            for artifact in meta["artifacts"]
        }
        self._remember(entry_digest, produced)
        return produced

    def store(self, key: tuple, produced: dict[str, object]) -> None:
        entry_digest, path = self._entry_path(key)
        # First write wins in-process too: keep serving the object the
        # sibling contexts already share.
        if entry_digest in self._pinned:
            return
        if (path / "meta.json").exists():
            if self.resume or entry_digest in self._written:
                # Content-addressed: an equal entry is already durable.
                if entry_digest not in self._cache:
                    self._remember(entry_digest, produced)
                self._written.add(entry_digest)
            else:
                # A cold run met a pre-existing entry: its bytes are
                # deliberately not read and must not be clobbered either,
                # so this run's products stay pinned in memory -- eviction
                # must never swap them for the on-disk ones.
                self._pinned[entry_digest] = produced
            return
        try:
            matched = [
                (name, value, serializer_for(value))
                for name, value in produced.items()
            ]
        except TypeError:
            # No wire format: memory-only, and pinned -- an evicted entry
            # could never be reloaded, silently breaking build-once.
            self._pinned[entry_digest] = produced
            return
        # Dump OUTSIDE the try: a serialiser that matched but fails on real
        # data is a bug that must surface, not silently disable persistence.
        dumped = [
            (name, serializer.name, serializer.dump(value))
            for name, value, serializer in matched
        ]
        self._tmp.mkdir(parents=True, exist_ok=True)
        self._sequence += 1
        staging = self._tmp / f"{entry_digest}.{os.getpid()}.{self._sequence}"
        staging.mkdir()
        artifacts = []
        for index, (name, serializer, data) in enumerate(dumped):
            filename = f"{index:02d}-{serializer}.json"
            (staging / filename).write_bytes(data)
            artifacts.append({"name": name, "file": filename, "serializer": serializer})
        (staging / "meta.json").write_text(
            json.dumps(
                {
                    "format": 1,
                    "stage": key[0] if key and isinstance(key[0], str) else None,
                    "digest": entry_digest,
                    "artifacts": artifacts,
                },
                indent=2,
                sort_keys=True,
            )
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(staging, path)
        except OSError:
            shutil.rmtree(staging, ignore_errors=True)
            if not (path / "meta.json").exists():
                # Not the benign lost-a-race case (a concurrent writer
                # publishing the same content): the store the user asked
                # for cannot be written -- surface it, don't fake success.
                raise
        if entry_digest not in self._cache:
            self._remember(entry_digest, produced)
        self._written.add(entry_digest)

    # ------------------------------------------------------------------ #
    def entries(self) -> tuple[tuple[str, str], ...]:
        """The durable entries on disk, as sorted ``(stage, digest)`` pairs.

        Walks the store directory (O(entries)); callers that need the
        count repeatedly should take it once, not per use.
        """
        if not self._objects.is_dir():
            return ()
        return tuple(
            sorted(
                (meta.parent.parent.name, meta.parent.name)
                for meta in self._objects.glob("*/*/meta.json")
            )
        )

    def __len__(self) -> int:
        return len(self.entries())

    def __repr__(self) -> str:  # pragma: no cover - trivial
        # No filesystem walk here: reprs fire from debug logging and from
        # ArtifactCache.__repr__, where an O(entries) glob would sting.
        return (
            f"DiskStore({str(self.root)!r}, resume={self.resume}, "
            f"written={len(self._written)})"
        )
