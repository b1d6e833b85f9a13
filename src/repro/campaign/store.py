"""Content-addressed on-disk result cache for campaigns.

Layout: one JSON-lines *shard* per campaign name, ``<name>.jsonl`` under the
store root.  Each line is an object ``{"key": <task hash>, "record":
<RunRecord JSON>}``.  Properties that make interrupted campaigns resumable
and repeat invocations instant:

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
* **Canonical by construction.**  :func:`frame` builds every line from the
  record's canonical JSON: ``{"key":K,"record":<canonical JSON minus its
  closing brace>,"wall_time_s":X}}`` (``wall_time_s`` sorts last, so the
  line equals the sorted-key ``json.dumps`` of the full record).  The
  matching :func:`unframe` slices that canonical text back out of a line in
  exact writer framing; :meth:`CampaignStore.load` hands it to the record,
  which serves it verbatim from ``canonical_json()``.
* **One writer per shard.**  A :class:`ShardWriter` holds an advisory
  exclusive ``flock`` on its shard while open; a second writer (another
  sweep on the same store and campaign name) fails at once instead of
  truncating or interleaving the shard.
"""

from __future__ import annotations

import fcntl
import json
import os
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import obs
from repro.campaign.records import RunRecord
from repro.campaign.spec import CampaignSpec

__all__ = ["CampaignStore", "ShardWriter", "frame", "unframe"]

_WALL_TIME = ',"wall_time_s":'


def frame(key: str, canonical: str, wall_time_s: float) -> str:
    """One store line: the record's canonical JSON plus its key and wall time.

    Byte-identical to ``json.dumps({"key": key, "record":
    record.to_json_dict()}, sort_keys=True, separators=(",", ":"),
    allow_nan=False)``, because ``wall_time_s`` is the last key of the record.
    """
    return (
        '{"key":' + encode_basestring_ascii(key) + ',"record":' + canonical[:-1]
        + _WALL_TIME + json.dumps(wall_time_s, sort_keys=True, allow_nan=False) + "}}"
    )


def unframe(line: str, key: Any, record: Dict[str, Any]) -> Optional[str]:
    """The canonical record text of a parsed store line, or ``None``.

    ``key`` and ``record`` are the line's parsed ``"key"`` and ``"record"``.
    Only a line in exact :func:`frame` framing yields its text; any other
    spelling of the same JSON returns ``None`` (the record is re-encoded).
    """
    if not isinstance(key, str):
        return None
    wall = record.get("wall_time_s")
    if type(wall) not in (int, float):
        return None
    # encode_basestring_ascii is json.dumps of a str; repr is json.dumps of an
    # int or a finite float (a non-finite one cannot match, as frame rejects it).
    head = '{"key":' + encode_basestring_ascii(key) + ',"record":'
    tail = _WALL_TIME + repr(wall) + "}}"
    if not (line.startswith(head) and line.endswith(tail)):
        return None
    return line[len(head) : -len(tail)] + "}"


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

    def load(self, spec: CampaignSpec) -> Dict[str, RunRecord]:
        """All completed records of a campaign, keyed by task hash.

        Malformed lines (typically a torn final line after an interrupt) are
        skipped, counted as the ``store.lines_skipped`` metric and reported in
        one ``RuntimeWarning`` per load; duplicate keys keep the last
        occurrence.  A line in exact writer framing (:func:`unframe`) passes
        its canonical text to :meth:`RunRecord.from_json_dict`.
        """
        path = self.shard_path(spec)
        records: Dict[str, RunRecord] = {}
        if not path.exists():
            return records
        skipped = 0
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    key, fields = payload["key"], payload["record"]
                    records[key] = RunRecord.from_json_dict(
                        fields, canonical=unframe(line, key, fields)
                    )
                except (AttributeError, KeyError, TypeError, ValueError):
                    skipped += 1
        if skipped:
            obs.inc("store.lines_skipped", skipped)
            warnings.warn(
                f"{path}: skipped {skipped} malformed line(s); their tasks "
                f"will be re-run",
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
