"""Stream persistence: plain-text and JSON-lines formats.

Two formats cover the item types this library produces:

* ``text`` — one item per line, for ``str`` and ``int`` items (query logs).
  Integers round-trip as integers; everything else round-trips as strings.
* ``jsonl`` — one JSON value per line, for structured items (flow tuples
  round-trip as lists and are rebuilt into tuples on read so the encoded
  keys match).

Files are written atomically enough for experiment use (write then rename is
overkill here; a failed write leaves a partial file the reader will reject
on malformed JSON).

:func:`iter_chunks` slices any iterable into bounded lists, so a stream
file bigger than memory can be applied one ``update_batch`` call at a
time.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from collections.abc import Hashable, Iterable, Iterator
from typing import TypeVar

_T = TypeVar("_T")

#: Records per chunk when a stream file is applied with ``update_batch``
#: (``repro topk`` / ``repro estimate`` and ``CheckpointManager.extend``).
#: Set by measurement on a 1M-line Zipf(1.0) file of 100k ids, depth 5,
#: width 1024, 2 shared vCPUs, 3 runs per size: ``repro topk`` took
#: 3.2-4.8 s at 1024 records, 3.3-3.5 s at 4096, 3.5-4.3 s at 16384 and
#: 3.4-4.1 s at 65536 (the per-record loop: 5.7-8.1 s); ``repro
#: estimate`` took 2.1-2.5, 2.2-2.6, 2.4-4.3 and 2.6-3.3 s (loop:
#: 4.1-4.3 s).
DEFAULT_CHUNK_SIZE = 4096


class StreamFormatError(ValueError):
    """A text stream line that cannot be read as an item.

    Raised for bytes that are not UTF-8, and with ``as_int`` for a line
    that is not an integer.  The message names the file and the 1-based
    line number.
    """


def _strip_eol(line: str) -> str:
    """Strip one trailing line ending — ``\\n``, ``\\r\\n``, or ``\\r``.

    Files written on Windows (or shipped through tools that rewrite line
    endings) end lines with ``\\r\\n``; stripping only ``\\n`` leaves a
    trailing ``\\r`` on every item, which encodes — and therefore hashes —
    differently from its LF twin, silently splitting one item's counts in
    two.  Exactly one line ending is removed, never item content.
    """
    if line.endswith("\n"):
        line = line[:-1]
    if line.endswith("\r"):
        line = line[:-1]
    return line


def write_stream_text(path: str | Path, items: Iterable[Hashable]) -> int:
    """Write items one per line as text; return the number written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for item in items:
            text = str(item)
            if "\n" in text or "\r" in text:
                raise ValueError(
                    "text format cannot hold items with line endings"
                )
            handle.write(text)
            handle.write("\n")
            count += 1
    return count


def read_stream_text(path: str | Path, as_int: bool = False) -> list[str | int]:
    """Read a text-format stream; optionally parse every line as ``int``.

    Both LF and CRLF files are read identically (one trailing line ending
    is stripped per line), so a log shipped through a CRLF-rewriting hop
    yields the same items — and the same hashes — as the original.
    A malformed line raises :class:`StreamFormatError`, as in
    :func:`iter_stream_text`.
    """
    return list(iter_stream_text(path, as_int=as_int))


def _jsonable(item: Hashable) -> object:
    """Convert an item to a JSON-representable value."""
    if isinstance(item, tuple):
        return {"__tuple__": [_jsonable(part) for part in item]}
    if isinstance(item, (str, int, float, bool)) or item is None:
        return item
    raise TypeError(f"cannot serialize item of type {type(item).__name__}")


def _unjsonable(value: object) -> Hashable:
    """Inverse of :func:`_jsonable`."""
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_unjsonable(part) for part in value["__tuple__"])
    return value


def write_stream_jsonl(path: str | Path, items: Iterable[Hashable]) -> int:
    """Write items one JSON value per line; return the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for item in items:
            handle.write(json.dumps(_jsonable(item), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_stream_jsonl(path: str | Path) -> list[Hashable]:
    """Read a JSON-lines stream, rebuilding tuples."""
    items = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                items.append(_unjsonable(json.loads(line)))
    return items


def iter_stream_text(
    path: str | Path, as_int: bool = False
) -> Iterator[str | int]:
    """Stream a text-format file lazily (for streams bigger than memory).

    Line endings are normalized exactly as in :func:`read_stream_text`:
    LF and CRLF files yield identical items, so :class:`TextStreamReader`
    (which delegates here) is line-ending agnostic too.

    Raises:
        StreamFormatError: at the first line that is not UTF-8, or with
            ``as_int`` is not an integer.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            for number, line in enumerate(handle, start=1):
                value = _strip_eol(line)
                if not as_int:
                    yield value
                    continue
                try:
                    item = int(value)
                except ValueError:
                    raise StreamFormatError(
                        f"{path}, line {number}: not an integer: {value!r}"
                    ) from None
                yield item
        except UnicodeDecodeError:
            # The decoder runs a block ahead of the lines read so far;
            # find the offending line by decoding leniently.
            raise StreamFormatError(
                f"{path}, line {_first_undecodable_line(path)}: "
                "not UTF-8 text"
            ) from None


def _first_undecodable_line(path: str | Path) -> int:
    """The 1-based number of the first line of ``path`` that is not UTF-8.

    ``surrogateescape`` turns each undecodable byte into a lone surrogate
    in U+DC80..U+DCFF, which valid UTF-8 never decodes to.
    """
    with open(path, encoding="utf-8", errors="surrogateescape",
              newline="") as handle:
        for number, line in enumerate(handle, start=1):
            if any("\udc80" <= char <= "\udcff" for char in line):
                return number
    return 0


def iter_chunks(
    items: Iterable[_T], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[list[_T]]:
    """Yield successive lists of up to ``chunk_size`` items from ``items``.

    The input is consumed lazily — only one chunk is materialized at a
    time — so this is safe over generators and lazily-read files.

    Args:
        items: any iterable of stream items.
        chunk_size: maximum items per yielded list (must be positive).
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    iterator = iter(items)
    while chunk := list(itertools.islice(iterator, chunk_size)):
        yield chunk


class TextStreamReader:
    """A re-iterable, lazily-read view of a text-format stream file.

    Every iteration re-opens the file and yields items line by line via
    :func:`iter_stream_text`, so multi-pass algorithms (``MaxChangeFinder``
    and friends) can replay a stream that is never resident in memory —
    unlike a generator, which is exhausted after one pass.

    Args:
        path: stream file, one item per line.
        as_int: parse every line as ``int``.
    """

    def __init__(self, path: str | Path, as_int: bool = False) -> None:
        self._path = Path(path)
        self._as_int = as_int

    @property
    def path(self) -> Path:
        """The underlying file path."""
        return self._path

    def __iter__(self) -> Iterator[str | int]:
        return iter_stream_text(self._path, as_int=self._as_int)

    def __repr__(self) -> str:
        return (
            f"TextStreamReader({str(self._path)!r}, as_int={self._as_int})"
        )
