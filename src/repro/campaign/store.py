"""Content-addressed on-disk result cache for campaigns.

Layout: one JSON-lines *shard* per campaign name, ``<name>.jsonl`` under the
store root.  Each line is an object ``{"key": <task hash>, "record":
<RunRecord JSON>, "sum": <line checksum>}``.  Properties that make
interrupted campaigns resumable and repeat invocations instant:

* **Append-only, one record per line.**  The runner flushes after every
  record, so a crash or Ctrl-C loses at most the line being written.
  :meth:`CampaignStore.load` skips a torn trailing line (and any other
  malformed line), counting them as ``store.lines_skipped`` and warning
  once per load; reopening a shard for appends first cuts the torn tail
  off, so the next record starts on a line of its own.
* **Content addressing.**  Lines are keyed by the *task* hash (parameters,
  timing and seed coordinates; campaign-layout fields excluded), so a
  resumed run matches records to tasks by content, not position --
  reordering cells or widening a sweep under the same campaign name reuses
  every run that is still part of the campaign, and entries that no longer
  match any task are simply ignored.
* **Last write wins.**  Duplicate keys (e.g. from overlapping appends) are
  collapsed on load, keeping the most recent line.
* **Checksummed and canonical by construction.**  :func:`frame` builds
  every line from the record's canonical JSON: ``{"key":K,"record":<canonical
  JSON minus its closing brace>,"wall_time_s":X},"sum":"H"}``.  Keys sort
  ``key``, ``record``, ``sum`` and ``wall_time_s`` is the record's last
  key, so the line is the sorted-key ``json.dumps`` of ``{key, record,
  sum}``.  ``H`` is a 128-bit BLAKE2b of the line's bytes before
  ``,"sum":``, keyed by the record :data:`~repro.campaign.records.SCHEMA`
  and the stored field names, so a line written under another record format
  never verifies.  :meth:`CampaignStore.load` proves a line intact from its
  sum and slices the key and canonical text out of it without decoding JSON
  (a :class:`~repro.campaign.records.StoredRecord`).  Every other line --
  no sum (older writers), or a sum that does not verify (a hand edit,
  corrupted bytes that still parse, another record format) -- is decoded
  into a :class:`~repro.campaign.records.RunRecord` that re-encodes its
  text; lines whose sum fails are counted as ``store.lines_unverified`` and
  warned about once per load.  A resume appends a framed line for each hit
  it served from a line with no sum, so the next resume serves it verbatim;
  a line whose sum fails is never re-framed, which would vouch for
  unproven content.
* **One writer per shard.**  A :class:`ShardWriter` holds an advisory
  exclusive ``flock`` on its shard while open; a second writer (another
  sweep on the same store and campaign name) fails at once instead of
  truncating or interleaving the shard.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro import obs
from repro.campaign.records import SCHEMA, RunRecord, StoredRecord
from repro.campaign.spec import CampaignSpec

__all__ = ["CampaignStore", "ShardWriter", "frame"]

_WALL_TIME = ',"wall_time_s":'
_SUM = ',"sum":"'
#: Bytes after a line's summed head: ``,"sum":"``, 32 hex digits, ``"}``.
_TAIL = len(_SUM) + 32 + 2
_KEY_BYTES, _RECORD_BYTES = b'{"key":', b',"record":'
_WALL_BYTES, _SUM_BYTES = _WALL_TIME.encode("ascii"), _SUM.encode("ascii")


def _line_hasher(schema: str, fields: Iterable[str]) -> "hashlib.blake2b":
    """The keyed BLAKE2b state a line sum starts from.

    The key digests the record schema and the sorted stored field names: a
    line framed under another record format carries a sum no reader of this
    format verifies.
    """
    material = "\n".join([schema, *sorted(fields)]).encode("utf-8")
    return hashlib.blake2b(digest_size=16, key=hashlib.blake2b(material).digest())


#: The fields of a stored record (:meth:`RunRecord.to_json_dict`).
_STORED_FIELDS = frozenset(
    RunRecord(key="", kind="", cell_index=0, point_index=0, run_index=0).to_json_dict()
)
_HASHER = _line_hasher(SCHEMA, _STORED_FIELDS)


def _line_sum(head: Union[bytes, memoryview]) -> bytes:
    """The hex sum of a line's ``head`` (its bytes before ``,"sum":``)."""
    hasher = _HASHER.copy()
    hasher.update(head)
    return hasher.hexdigest().encode("ascii")


def frame(key: str, canonical: str, wall_time_s: float) -> str:
    """One store line: the record's canonical JSON, key, wall time and sum.

    Byte-identical to ``json.dumps({"key": key, "record":
    record.to_json_dict(), "sum": H}, sort_keys=True, separators=(",", ":"),
    allow_nan=False)``, because ``wall_time_s`` is the last key of the record.
    """
    head = (
        '{"key":' + encode_basestring_ascii(key) + ',"record":' + canonical[:-1]
        + _WALL_TIME + json.dumps(wall_time_s, sort_keys=True, allow_nan=False) + "}"
    )
    return head + _SUM + _line_sum(head.encode("utf-8")).decode("ascii") + '"}'


def _verified(line: bytes) -> Optional[Tuple[str, StoredRecord]]:
    """The key and stored record of a line whose sum verifies, else ``None``.

    Nothing is decoded: a verified line was framed by :func:`frame`, so the
    key, the canonical text and the wall time are sliced out of it.
    """
    head = len(line) - _TAIL
    if head < 0 or not line.endswith(b'"}') or not line.startswith(_SUM_BYTES, head):
        return None
    if _line_sum(memoryview(line)[:head]) != line[head + len(_SUM_BYTES) : -2]:
        return None
    # The key string holds no unescaped quote, so the first ``,"record":``
    # follows it; ``wall_time_s`` is the record's last key.
    record = line.find(_RECORD_BYTES)
    wall = line.rfind(_WALL_BYTES, 0, head)
    key = line[len(_KEY_BYTES) : record]
    key = json.loads(key) if b"\\" in key else key[1:-1].decode("ascii")
    text = line[record + len(_RECORD_BYTES) : wall].decode("ascii") + "}"
    return key, StoredRecord(text, float(line[wall + len(_WALL_BYTES) : head - 1]))


def _cut_torn_tail(path: Path) -> None:
    """Truncate ``path`` after its last newline (drops a torn final line)."""
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        end = handle.seek(0, os.SEEK_END)
        keep = 0
        position = end
        while position > 0:
            step = min(4096, position)
            position -= step
            handle.seek(position)
            newline = handle.read(step).rfind(b"\n")
            if newline >= 0:
                keep = position + newline + 1
                break
        if keep < end:
            handle.truncate(keep)


class ShardWriter:
    """Incremental writer for one campaign shard (line-buffered, crash-safe).

    The shard is locked (``flock(LOCK_EX | LOCK_NB)``) before anything is
    cut or truncated; a shard another writer holds raises ``RuntimeError``.
    In append mode a torn final line left by a crash is cut off first;
    otherwise the next record would fuse onto it and be lost on load too.
    """

    def __init__(self, path: Path, append: bool = True) -> None:
        self.path = path
        # Opened without truncation: a shard locked by another writer must
        # come out of this untouched.
        self._handle = open(path, "a", encoding="utf-8")
        try:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self._handle.close()
            raise RuntimeError(
                f"{path}: shard is locked by another writer (a concurrent sweep "
                f"with the same store and campaign name?)"
            ) from None
        if append:
            _cut_torn_tail(path)
        else:
            self._handle.truncate(0)

    def append(self, record: RunRecord) -> None:
        """Persist one record and flush it to disk immediately.

        The line frames ``record.canonical_json()``, which the record keeps
        (or already held, when a pool worker encoded it), so writing the
        record again, e.g. to ``--out``, copies the text.
        """
        self._handle.write(frame(record.key, record.canonical_json(), record.wall_time_s) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Release the shard lock and close the underlying file handle.

        The lock is released explicitly: it belongs to the open file, which
        pool workers forked meanwhile share, so closing alone would leave
        it held until the last of them exits.
        """
        if not self._handle.closed:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CampaignStore:
    """A directory of campaign shards."""

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def shard_path(self, spec: CampaignSpec) -> Path:
        """The shard file of a campaign.

        Keyed by campaign *name* only: task content hashes do the matching, so
        revised specs under the same name keep their completed runs.
        """
        return self.root / f"{spec.name}.jsonl"

    def load(
        self, spec: CampaignSpec, unsummed: Optional[Set[str]] = None
    ) -> Dict[str, Union[StoredRecord, RunRecord]]:
        """All completed records of a campaign, keyed by task hash.

        A line whose sum verifies loads as a
        :class:`~repro.campaign.records.StoredRecord` (its canonical text,
        not decoded).  Any other line is decoded into a :class:`RunRecord`
        without stored text, so it is re-encoded when written; a line that
        carries a sum that does not verify is counted as
        ``store.lines_unverified`` and reported in one ``RuntimeWarning`` per
        load, a line with no sum (an older writer) loads silently.
        Malformed lines (typically a torn final line after an interrupt) are
        skipped, counted as ``store.lines_skipped`` and reported in one
        ``RuntimeWarning`` per load.  Duplicate keys keep the last occurrence.
        The keys whose record comes from a line with no sum are added to
        ``unsummed``, when given.  The ``store.load`` span carries the counts
        of lines, verified, unverified and skipped.
        """
        path = self.shard_path(spec)
        records: Dict[str, Union[StoredRecord, RunRecord]] = {}
        if not path.exists():
            return records
        lines = verified = unverified = skipped = 0
        if unsummed is None:
            unsummed = set()
        with obs.span("store.load", shard=path.name) as span:
            with open(path, "rb") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    lines += 1
                    stored = _verified(line)
                    if stored is not None:
                        records[stored[0]] = stored[1]
                        unsummed.discard(stored[0])
                        verified += 1
                        continue
                    try:
                        payload = json.loads(line)
                        key, fields = payload["key"], payload["record"]
                        records[key] = RunRecord.from_json_dict(fields)
                    except (AttributeError, KeyError, TypeError, ValueError):
                        skipped += 1
                        continue
                    if "sum" in payload:
                        unverified += 1
                        unsummed.discard(key)
                    else:
                        unsummed.add(key)
            span.set(lines=lines, verified=verified, unverified=unverified, skipped=skipped)
        if skipped:
            obs.inc("store.lines_skipped", skipped)
            warnings.warn(
                f"{path}: skipped {skipped} malformed line(s); their tasks "
                f"will be re-run",
                RuntimeWarning,
                stacklevel=2,
            )
        if unverified:
            obs.inc("store.lines_unverified", unverified)
            warnings.warn(
                f"{path}: {unverified} line(s) failed their checksum; their "
                f"records are re-encoded, not served as stored",
                RuntimeWarning,
                stacklevel=2,
            )
        return records

    def open_writer(self, spec: CampaignSpec, append: bool = True) -> ShardWriter:
        """Open the campaign's shard for (appending or truncating) writes."""
        return ShardWriter(self.shard_path(spec), append=append)

    def clear(self, spec: CampaignSpec) -> None:
        """Remove the campaign's shard, if present."""
        path = self.shard_path(spec)
        if path.exists():
            path.unlink()

    def shards(self) -> List[Path]:
        """All shard files in the store."""
        return sorted(self.root.glob("*.jsonl"))
