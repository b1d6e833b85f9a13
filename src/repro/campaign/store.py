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
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, List, Union

from repro import obs
from repro.campaign.records import RunRecord
from repro.campaign.spec import CampaignSpec

__all__ = ["CampaignStore", "ShardWriter"]


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

    In append mode a torn final line left by a crash is cut off first;
    otherwise the next record would fuse onto it and be lost on load too.
    """

    def __init__(self, path: Path, append: bool = True) -> None:
        self.path = path
        if append:
            _cut_torn_tail(path)
        self._handle = open(path, "a" if append else "w", encoding="utf-8")

    def append(self, record: RunRecord) -> None:
        """Persist one record and flush it to disk immediately."""
        line = json.dumps(
            {"key": record.key, "record": record.to_json_dict()},
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._handle.closed:
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
        occurrence.
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
                    record = RunRecord.from_json_dict(payload["record"])
                    records[payload["key"]] = record
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
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
