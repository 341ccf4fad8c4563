"""Durable write-ahead log: JSON-lines records of the version graph.

One record per line, in the :mod:`repro.io` value convention (attribute
names to JSON scalars — the Attribute Axiom's atomicity is what makes
the rows losslessly JSON-codable).  Five record types:

* ``snapshot`` — the root version as a self-contained database document
  (schema, relations, constraints), written once when a WAL-backed
  engine starts;
* ``commit`` — one committed transaction: version id, parent id,
  branch, and the buffered operations in order;
* ``branch`` — a branch creation point;
* ``checkpoint`` — every branch head as a full database document plus
  the graph's sequence counter, so replay can start *here* instead of
  at the root snapshot (:meth:`StoreEngine.replay` picks the newest
  one; see :func:`checkpoint_record`);
* ``epoch`` — a promotion marker: a replica that took over as primary
  stamps the next epoch number (plus the sequence counter and branch
  heads it took over at) into a fresh segment, after which appends by
  any handle still holding the old epoch are *fenced* — they raise
  :class:`~repro.errors.EpochFenced` instead of silently diverging
  (see :meth:`WriteAheadLog.stamp_epoch`).

Replaying the records in order through :meth:`StoreEngine.replay`
reconstructs an identical version graph: version ids come from one
monotone sequence and every state is re-derived by re-applying the
logged operations, so the replayed states are equal — relation for
relation — to the originals.

A log is a **segment directory** holding ``wal.000001.jsonl``,
``wal.000002.jsonl``, … in append order.  It rotates on the optional
size/record-count bounds and on every checkpoint and epoch stamp, so a
checkpoint or epoch record always heads its segment: replay, replicas
and :meth:`WriteAheadLog.current_epoch` find the newest one by peeking
at segment heads, and segments before the newest checkpointed one
carry no information the checkpoint does not, so
:meth:`WriteAheadLog.prune` archives or drops them.

A regular file at a log path is a log from before segment directories
were the only form; it is refused with the migration recipe: ``mkdir D
&& mv F D/wal.000001.jsonl``, then ``python -m repro.cli checkpoint D``
when an ``F.epoch`` sidecar exists (the checkpoint carries the epoch to
a segment head, where the fence looks for it).

Crash-safety contract: a crash mid-append leaves a torn *final* line.
:meth:`records` drops it with a :class:`~repro.errors.TornTailWarning`
(and :meth:`repair` truncates it off the file), because the prefix is a
complete, valid history; a corrupt line anywhere *before* the final
record is tampering or media failure and raises
:class:`~repro.errors.StoreError`.  A new log directory fsyncs its
parent, and every new segment its directory, so the files themselves —
not just their contents — survive power loss.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import warnings
from pathlib import Path
from typing import Any, Iterator

from repro import io
from repro.errors import EpochFenced, SchemaError, StoreError, TornTailWarning

SEGMENT_PATTERN = "wal.%06d.jsonl"
_SEGMENT_RE = re.compile(r"^wal\.(\d{6})\.jsonl$")


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-created (or renamed/unlinked) entry
    survives power loss.  A no-op on platforms where directories cannot
    be opened or synced (the file-content fsync still happened)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _parse_line(line: bytes | str):
    """``(record, ok)`` for one stripped WAL line: ``ok`` is False when
    the line is not a complete record object.  A torn line can never
    masquerade as one — a proper prefix of a one-line JSON object has
    unbalanced braces or an unterminated literal, so it fails to parse."""
    try:
        record = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None, False
    if not isinstance(record, dict) or "type" not in record:
        return record, False
    return record, True


def _not_a_directory(path: Path) -> StoreError:
    """The refusal for a regular file at a log path — a single-file log
    from before segment directories were the only form — naming the
    migration."""
    return StoreError(
        f"WAL {path} is a regular file; a WAL is a segment directory.  "
        f"Migrate it with `mkdir D && mv {path} D/wal.000001.jsonl`, "
        f"then run `python -m repro.cli checkpoint D` if the epoch "
        f"sidecar {path}.epoch exists")


class WriteAheadLog:
    """An append-only JSON-lines log in a segment directory.

    Every :meth:`append` flushes to the OS; with ``sync=True`` it also
    ``fsync``\\ s, trading commit latency for power-loss durability.
    Appends are serialised by the engine's commit lock, which is what
    makes the log a total order of the graph's growth.

    ``path`` is a directory, created when missing (an existing empty
    one is fine; a regular file raises :class:`StoreError` naming the
    migration).  Records append to the highest-numbered
    ``wal.NNNNNN.jsonl`` segment, and a new segment starts whenever the
    current one holds ``segment_records`` records or ``segment_bytes``
    bytes — or whenever the engine writes a checkpoint or a promotion
    stamps an epoch (:meth:`rotate`).  With neither bound set, only
    checkpoints and epochs rotate.
    """

    def __init__(self, path: str | Path, sync: bool = False,
                 segment_records: int | None = None,
                 segment_bytes: int | None = None):
        path = Path(path)
        for bound, name in ((segment_records, "segment_records"),
                            (segment_bytes, "segment_bytes")):
            if bound is not None and bound < 1:
                raise StoreError(f"{name} must be >= 1, got {bound}")
        self.sync = sync
        self.segment_records = segment_records
        self.segment_bytes = segment_bytes
        self.path = path
        # Duck-typed observability hook (repro.obs.metrics.WalProbe):
        # when attached, append counts records/bytes into the registry
        # and times the fsync so the commit pipeline can attribute it
        # as its own phase.
        self.probe = None
        try:
            path.mkdir(parents=True)
        except FileExistsError:
            if not path.is_dir():
                raise _not_a_directory(path) from None
        else:
            _fsync_dir(path.parent)  # the new log's own directory entry
        segments = self.segment_paths(path)
        self._segment_index = (
            int(_SEGMENT_RE.match(segments[-1].name).group(1))
            if segments else 1)
        self._open_segment(path / (SEGMENT_PATTERN % self._segment_index))
        self.epoch = self.current_epoch(path)

    def _open_segment(self, file_path: Path) -> None:
        """Open ``file_path`` for appending, priming the rotation
        counters from whatever it already holds; a newly created file
        fsyncs its parent directory (creation durability)."""
        created = not file_path.exists()
        self._file = file_path
        self._fh = open(file_path, "a", encoding="utf-8")
        if created:
            _fsync_dir(file_path.parent)
            self._count = 0
            self._bytes = 0
        else:
            with open(file_path, "rb") as fh:
                data = fh.read()
            self._count = sum(1 for raw in data.splitlines() if raw.strip())
            self._bytes = len(data)

    @property
    def current_segment(self) -> Path:
        """The segment file appends currently land in."""
        return self._file

    def append(self, record: dict) -> None:
        if self._fh.closed:
            raise StoreError(
                f"WAL {self.path} is closed; cannot append "
                f"{record.get('type', 'a')!r} record")
        self._check_fence()
        try:
            line = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise StoreError(f"WAL record is not JSON-codable: {exc}") from exc
        data = line + "\n"
        if self._count > 0 and (
                (self.segment_records is not None
                 and self._count >= self.segment_records)
                or (self.segment_bytes is not None
                    and self._bytes + len(data) > self.segment_bytes)):
            self.rotate()
        try:
            self._fh.write(data)
            self._fh.flush()
        except ValueError as exc:  # racing close(): a closed handle
            raise StoreError(
                f"WAL {self.path} is closed; cannot append: {exc}") from exc
        probe = self.probe
        if self.sync:
            if probe is not None:
                before = probe.clock()
                os.fsync(self._fh.fileno())
                fsync_s = probe.clock() - before
            else:
                os.fsync(self._fh.fileno())
                fsync_s = 0.0
        else:
            fsync_s = 0.0
        if probe is not None:
            probe.observe_append(len(data), fsync_s)
        self._count += 1
        self._bytes += len(data)

    def rotate(self) -> Path:
        """Start the next segment (the checkpoint, epoch and size-bound
        path).

        The outgoing segment is flushed (and, under ``sync``, fsynced)
        before the new file is created, and the directory is fsynced so
        the new segment survives power loss.  A no-op on a still-empty
        current segment.
        """
        if self._fh.closed:
            raise StoreError(f"WAL {self.path} is closed; cannot rotate")
        if self._count == 0:
            return self._file
        self._check_fence()
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        self._fh.close()
        self._segment_index += 1
        self._open_segment(self.path / (SEGMENT_PATTERN % self._segment_index))
        return self._file

    # ------------------------------------------------------------------
    # epochs and fencing (the failover write-exclusion mechanism)
    # ------------------------------------------------------------------
    def _check_fence(self) -> None:
        """Refuse to write under a stale epoch.

        Promotion rotates the log to a fresh segment, so a demoted
        handle detects the takeover with one ``stat``: a segment it did
        not create appearing after its own.  The check runs on every
        append and rotation — appends are per-commit, so the extra stat
        rides a path that already pays for validation and an
        fsync-able write.
        """
        nxt = self.path / (SEGMENT_PATTERN % (self._segment_index + 1))
        if not nxt.exists():
            return
        current = max(self.current_epoch(self.path), self.epoch + 1)
        raise EpochFenced(
            f"WAL {self.path} was taken over (epoch {current} stamped "
            f"past segment {self._file.name}); this handle holds epoch "
            f"{self.epoch} and may no longer append",
            held=self.epoch, current=current)

    def stamp_epoch(self, epoch: int | None = None,
                    seq: int | None = None,
                    heads: dict[str, str] | None = None) -> dict:
        """Open the next epoch: rotate to a fresh segment and append an
        ``epoch`` record (fsynced — a promotion that is not durable is
        no promotion), fencing every handle still on the old epoch.

        ``epoch`` defaults to the successor of the newest epoch visible
        in the log; ``seq``/``heads`` record where the graph stood at
        takeover, so replay can cross-check.  Returns the record.
        """
        self._check_fence()  # two racing promotions: first stamp wins
        current = self.current_epoch(self.path)
        if epoch is None:
            epoch = current + 1
        if epoch <= current:
            raise StoreError(
                f"epoch must advance: log is at {current}, "
                f"stamp asked for {epoch}")
        record = epoch_record(epoch, seq=seq, heads=heads)
        self.rotate()
        line = json.dumps(record, sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._count += 1
        self._bytes += len(line) + 1
        self.epoch = epoch
        return record

    @staticmethod
    def current_epoch(path: str | Path) -> int:
        """The newest epoch stamped into the log (0 before any
        promotion), answered from segment heads: epoch records always
        head their segment, and checkpoints — which head theirs too —
        carry the epoch they were taken under."""
        for segment in reversed(WriteAheadLog.segment_paths(path)):
            head = WriteAheadLog.first_record(segment)
            if head is None:
                continue
            if head.get("type") == "epoch":
                return int(head.get("epoch", 0))
            if head.get("type") == "checkpoint" and "epoch" in head:
                return int(head["epoch"])
        return 0

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading (static: replay and tooling work on paths, not handles)
    # ------------------------------------------------------------------
    @staticmethod
    def segment_paths(path: str | Path) -> list[Path]:
        """The log's segment files in append order (none for a missing
        directory)."""
        path = Path(path)
        try:
            names = os.listdir(path)
        except FileNotFoundError:
            return []
        except NotADirectoryError:
            raise _not_a_directory(path) from None
        return [path / name for name in sorted(names)
                if _SEGMENT_RE.match(name)]

    @staticmethod
    def checkpoint_floor(segments: list[Path]) -> int:
        """The index into ``segments`` of the newest checkpoint-headed
        segment, or 0 when none is — where replay, a bootstrapping
        replica cursor and :meth:`prune` start.  Only segment heads are
        peeked at: a checkpoint always opens its segment."""
        for i in range(len(segments) - 1, 0, -1):
            head = WriteAheadLog.first_record(segments[i])
            if head is not None and head.get("type") == "checkpoint":
                return i
        return 0

    @staticmethod
    def is_empty(path: str | Path) -> bool:
        """True when the log holds no records yet (a missing directory,
        or one of empty segments)."""
        return all(p.stat().st_size == 0
                   for p in WriteAheadLog.segment_paths(path))

    @staticmethod
    def first_record(path: str | Path) -> dict | None:
        """The first record of one log *file*, or ``None`` when the file
        is missing/empty/unreadable — the cheap peek replay uses to find
        the newest checkpoint-headed segment without parsing old ones."""
        try:
            with open(path, "rb") as fh:
                for raw in fh:
                    line = raw.strip()
                    if not line:
                        continue
                    record, ok = _parse_line(line)
                    return record if ok else None
        except OSError:
            return None
        return None

    @staticmethod
    def records(path: str | Path, torn_tail: str = "warn") -> Iterator[dict]:
        """The log's records in append order (blank lines skipped),
        across every segment.

        ``torn_tail`` governs the *final* line of the *final* segment
        when it is not a complete record — the signature a crash
        mid-append leaves: ``"warn"`` (default) drops it with a
        :class:`TornTailWarning`, ``"ignore"`` drops it silently, and
        ``"error"`` raises.  A corrupt line anywhere else always raises
        :class:`StoreError` — a mid-log hole means the history after it
        cannot be trusted.
        """
        if torn_tail not in ("warn", "ignore", "error"):
            raise ValueError(f"unknown torn_tail policy {torn_tail!r}")
        segments = WriteAheadLog.segment_paths(path)
        yield from WriteAheadLog._records_from(segments, torn_tail)

    @staticmethod
    def _records_from(segments: list[Path],
                      torn_tail: str = "warn") -> Iterator[dict]:
        """``records`` over an explicit (ordered) segment list — replay
        uses this to start at the newest checkpointed segment."""
        for si, segment in enumerate(segments):
            with open(segment, "rb") as fh:
                lines = [(n, raw.strip())
                         for n, raw in enumerate(fh, start=1)]
            nonblank = [i for i, (_, line) in enumerate(lines) if line]
            for i in nonblank:
                n, line = lines[i]
                record, ok = _parse_line(line)
                if ok:
                    yield record
                    continue
                final = si == len(segments) - 1 and i == nonblank[-1]
                if final and torn_tail != "error":
                    if torn_tail == "warn":
                        warnings.warn(
                            f"dropping torn final WAL line {n} in "
                            f"{segment} (crash mid-append); the prefix "
                            f"is intact", TornTailWarning, stacklevel=3)
                    return
                raise StoreError(
                    f"corrupt WAL line {n} in {segment}: not a record "
                    "object" if record is not None else
                    f"corrupt WAL line {n} in {segment}: invalid JSON")

    @staticmethod
    def repair(path: str | Path) -> int:
        """Truncate a torn final line off the log's last segment.

        Returns the bytes dropped (0 when the tail is clean).  Only the
        *final* line may be malformed — that is what a crash mid-append
        produces; a malformed line with complete records after it raises
        :class:`StoreError` instead of truncating away good history.
        The truncation is fsynced, so a repaired log stays repaired.

        A final line that parses but lost its newline (the crash hit
        between the record and the separator) is *complete*: repair
        writes the missing newline so tail readers — which rightly
        treat an unterminated line as in-progress — can consume the
        record, keeping recovery, replication, and promotion agreed on
        where the durable prefix ends.
        """
        segments = WriteAheadLog.segment_paths(path)
        if not segments:
            return 0
        last = segments[-1]
        data = last.read_bytes()
        good_end = 0
        bad_line: int | None = None
        pos = 0
        n = 0
        while pos < len(data):
            nl = data.find(b"\n", pos)
            end = len(data) if nl == -1 else nl + 1
            chunk = data[pos:end].strip()
            n += 1
            if chunk:
                _, ok = _parse_line(chunk)
                if ok:
                    if bad_line is not None:
                        raise StoreError(
                            f"corrupt WAL line {bad_line} in {last}: "
                            "followed by intact records (not a torn tail)")
                    good_end = end
                elif bad_line is None:
                    bad_line = n
                else:
                    raise StoreError(
                        f"corrupt WAL lines {bad_line} and {n} in {last}: "
                        "not a torn tail")
            pos = end
        if bad_line is None:
            if data and not data.endswith(b"\n"):
                # The final record is complete but unterminated: finish
                # it so cursors (which never consume a line that might
                # still be mid-append) see what replay sees.
                with open(last, "ab") as fh:
                    fh.write(b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            return 0
        dropped = len(data) - good_end
        with open(last, "r+b") as fh:
            fh.truncate(good_end)
            fh.flush()
            os.fsync(fh.fileno())
        return dropped

    @staticmethod
    def prune(path: str | Path, archive: str | Path | None = None,
              ) -> list[Path]:
        """Drop (or move into ``archive``) every segment before the
        newest checkpoint-headed one.

        Those segments describe only history the checkpoint already
        carries in full, so replay never reads them; pruning is how a
        long-running store's disk stays bounded.  A log without a
        checkpoint is left untouched (its whole history is still
        load-bearing).  Returns the pruned segment paths (their
        *original* locations).
        """
        segments = WriteAheadLog.segment_paths(path)
        victims = segments[:WriteAheadLog.checkpoint_floor(segments)]
        if not victims:
            return []
        if archive is not None:
            archive = Path(archive)
            archive.mkdir(parents=True, exist_ok=True)
        for p in victims:
            if archive is not None:
                shutil.move(str(p), str(archive / p.name))
            else:
                p.unlink()
        _fsync_dir(Path(path))
        if archive is not None:
            _fsync_dir(archive)
        return victims


class WalCursor:
    """A stateful tail reader: every complete record exactly once.

    The follow hook replicas are built on.  A cursor remembers a
    ``(segment, byte offset)`` position in a live WAL and each
    :meth:`poll` returns the complete records appended since, across
    segment rotations.  The read side of the PR-6 crash contract:

    * an *incomplete* final line (no trailing newline — the only shape a
      torn in-progress append can have, because the newline is the last
      byte written) is never consumed; the cursor simply waits for the
      primary to finish the append or to truncate it on crash recovery
      (:meth:`WriteAheadLog.repair` — the cursor notices the file
      shrinking back to the intact prefix and clamps);
    * a newline-*terminated* line that fails to parse, or a dangling
      partial line in a rotated-away (frozen) segment, is corruption and
      raises :class:`StoreError` — rotation only happens after the
      previous append completed, so a frozen segment can never end
      mid-record legitimately;
    * a segment pruned out from under the cursor raises
      :class:`StoreError`; the caller re-bootstraps from the newest
      checkpoint (:meth:`repro.server.ReplicaEngine.resync`).

    Positions are plain dicts (:meth:`position`), so a replica can
    persist and resume its own progress.
    """

    __slots__ = ("path", "_segment", "_offset")

    def __init__(self, path: str | Path, position: dict | None = None):
        self.path = Path(path)
        self._segment: Path | None = None
        self._offset = 0
        if position is not None:
            if position.get("segment") is not None:
                self._segment = self.path / position["segment"]
            self._offset = int(position.get("offset", 0))

    def position(self) -> dict:
        """The resumable read position: ``{"segment", "offset"}``."""
        return {
            "segment": self._segment.name if self._segment is not None
            else None,
            "offset": self._offset,
        }

    def behind_bytes(self) -> int:
        """Bytes of log the cursor has not consumed yet — the cheap
        staleness measure a replica's lag report leads with (0 means the
        replica has read everything durably written so far)."""
        segments = WriteAheadLog.segment_paths(self.path)
        if not segments:
            return 0
        if self._segment is None:
            return sum(p.stat().st_size for p in segments)
        behind = 0
        seen = False
        for p in segments:
            if p == self._segment:
                seen = True
                behind += max(0, p.stat().st_size - self._offset)
            elif seen:
                behind += p.stat().st_size
        if not seen:  # cursor segment pruned; poll() will raise
            return sum(p.stat().st_size for p in segments)
        return behind

    def seek_newest_checkpoint_segment(self) -> None:
        """Position the cursor at the start of the newest
        checkpoint-headed segment (the first segment when none is) —
        the bootstrap that lets a fresh replica skip pruned-or-prunable
        history entirely, mirroring ``replay(from_checkpoint=True)``.
        A no-op while the log has no segments."""
        segments = WriteAheadLog.segment_paths(self.path)
        if segments:
            self._segment = segments[WriteAheadLog.checkpoint_floor(segments)]
            self._offset = 0

    def poll(self, max_records: int | None = None) -> list[dict]:
        """The complete records appended since the last poll.

        Returns an empty list when nothing new is durably visible —
        including while the final line is still being appended (or was
        torn by a crash the primary has not repaired yet).  Never blocks.
        """
        out: list[dict] = []
        while True:
            if max_records is not None and len(out) >= max_records:
                return out
            segments = WriteAheadLog.segment_paths(self.path)
            if not segments:
                return out
            if self._segment is None:
                self._segment = segments[0]
                self._offset = 0
            try:
                index = segments.index(self._segment)
                data = self._segment.read_bytes()
            except (ValueError, FileNotFoundError):
                raise StoreError(
                    f"WAL segment {self._segment.name} was pruned out "
                    "from under the cursor; resynchronise from the "
                    "newest checkpoint") from None
            final = index == len(segments) - 1
            if len(data) < self._offset:
                # The primary repaired a torn tail.  Only bytes past the
                # last complete record are ever truncated, and the
                # cursor never consumed those, so clamping is safe.
                self._offset = len(data)
            pos = self._offset
            while pos < len(data) and (max_records is None
                                       or len(out) < max_records):
                nl = data.find(b"\n", pos)
                if nl == -1:
                    break  # in-progress (or torn) append: wait
                line = data[pos:nl].strip()
                pos = nl + 1
                self._offset = pos
                if not line:
                    continue
                record, ok = _parse_line(line)
                if not ok:
                    raise StoreError(
                        f"corrupt WAL record at byte {pos} of "
                        f"{self._segment.name}: a newline-terminated "
                        "line failed to parse")
                out.append(record)
            if max_records is not None and len(out) >= max_records:
                return out
            if pos < len(data):
                # A trailing line without its newline yet.
                if final:
                    return out  # the append (or its repair) is pending
                raise StoreError(
                    f"WAL segment {self._segment.name} was rotated away "
                    "with a dangling partial record — torn inside the "
                    "log, not at its tail")
            if final:
                return out
            # Frozen segment fully consumed: advance to the next one.
            self._segment = segments[index + 1]
            self._offset = 0


def snapshot_record(db, constraints, version_id: str,
                    branch: str) -> dict[str, Any]:
    """The root state as a ``snapshot`` record (a full database
    document, so a WAL is self-contained and replayable from nothing).
    Constraint kinds without a JSON form cannot be logged."""
    try:
        document = io.database_to_dict(db, constraints)
    except SchemaError as exc:
        raise StoreError(
            f"a WAL-backed store needs serialisable constraints: {exc}"
        ) from exc
    return {"type": "snapshot", "version": version_id, "branch": branch,
            "document": document}


def commit_record(version_id: str, parent_id: str, branch: str,
                  ops) -> dict[str, Any]:
    """One committed transaction as a ``commit`` record."""
    return {"type": "commit", "version": version_id, "parent": parent_id,
            "branch": branch, "ops": [op.to_record() for op in ops]}


def branch_record(name: str, at_version_id: str) -> dict[str, Any]:
    """A branch creation as a ``branch`` record."""
    return {"type": "branch", "name": name, "at": at_version_id}


def checkpoint_record(graph, constraints, epoch: int = 0) -> dict[str, Any]:
    """Every branch head as a full database document, plus the graph's
    sequence counter — everything replay needs to resume *here*: the
    heads become parentless floor versions, the counter keeps later
    version ids identical to a full replay's.  Branches sharing a head
    share one document object (serialised once per head in the JSON
    line only when heads coincide).  ``epoch`` records which promotion
    epoch the checkpoint was taken under, so a replay resuming here
    still knows the current fence."""
    documents: dict[str, dict] = {}
    branches: dict[str, dict] = {}
    for name, head in sorted(graph.heads.items()):
        if head.vid not in documents:
            try:
                documents[head.vid] = io.database_to_dict(
                    head.state, constraints)
            except SchemaError as exc:
                raise StoreError(
                    f"a checkpointed store needs serialisable "
                    f"constraints: {exc}") from exc
        branches[name] = {"version": head.vid,
                          "document": documents[head.vid]}
    return {"type": "checkpoint", "seq": graph.seq, "branches": branches,
            "epoch": epoch}


def epoch_record(epoch: int, seq: int | None = None,
                 heads: dict[str, str] | None = None) -> dict[str, Any]:
    """A promotion as an ``epoch`` record: the new epoch number plus —
    when known — the sequence counter and branch heads the promoted
    primary took over at, which replay cross-checks exactly like a
    checkpoint's."""
    record: dict[str, Any] = {"type": "epoch", "epoch": epoch}
    if seq is not None:
        record["seq"] = seq
    if heads is not None:
        record["heads"] = dict(sorted(heads.items()))
    return record
