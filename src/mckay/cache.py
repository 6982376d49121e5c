"""On-disk cache of computed character tables.

One compact JSON file per group spec under the cache directory (the
MCKAY_CACHE environment variable, or a per-user cache directory).
Entries are {format_version, key, payload}; a stale format version or
mismatched key is treated as a miss, and the next store overwrites it,
since the file name does not carry the version.  Writes are atomic.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

FORMAT_VERSION = 3

__all__ = ["FORMAT_VERSION", "cache_dir", "entry_path", "load", "store"]


def cache_dir() -> Path:
    env = os.environ.get("MCKAY_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "mckay"


def entry_path(key: str) -> Path:
    safe = key.replace(":", "-")
    return cache_dir() / f"{safe}.json"


def load(key: str) -> dict | None:
    path = entry_path(key)
    try:
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, ValueError, RecursionError):
        return None  # unreadable, not UTF-8, not JSON, too deep or too long a number
    if (not isinstance(entry, dict) or entry.get("format_version") != FORMAT_VERSION
            or entry.get("key") != key):
        return None
    return entry.get("payload")


def store(key: str, payload: dict) -> None:
    path = entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {"format_version": FORMAT_VERSION, "key": key, "payload": payload}
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, separators=(",", ":")))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
