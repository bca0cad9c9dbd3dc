"""The line format shared by the zone, trust-anchor, cache, scenario and
corpus files.

Every such file is UTF-8 and line oriented: blank lines and lines starting
with ``#`` are skipped, and a line that cannot be read is reported as
``line N: <reason>`` in the reading module's own error class, with the
file's path in front when it is read from a file. Names and key
ids are single fields, checked by the same rule on read and on write.
"""

from __future__ import annotations

import os
import secrets
import shutil
from typing import Callable


def is_field(text: str) -> bool:
    """Whether ``text`` reads back as one field of a whitespace-split line,
    not taken for a comment: non-empty, no whitespace, no leading ``#``."""
    return text.split() == [text] and not text.startswith("#")


def check_field(error: type[ValueError], kind: str, text: str) -> str:
    if not is_field(text):
        raise error(f"{kind} {text!r} cannot be written as one field")
    return text


def parse_lines(
    text: str, parse_line: Callable[[str], None], error: type[ValueError]
) -> None:
    """Hand every non-blank, non-comment line, stripped, to ``parse_line``.

    A ``ValueError`` or ``IndexError`` from ``parse_line`` becomes
    ``error("line N: ...")``, N counting from 1.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parse_line(line)
        except (ValueError, IndexError) as exc:
            raise error(f"line {lineno}: {exc}") from exc


def read_text(path: str, error: type[ValueError]) -> str:
    """The file at ``path`` decoded as UTF-8. Bytes that are not UTF-8 raise
    ``error("line N: ...")``, N counted as ``parse_lines`` counts it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; "x" stands in for the line
        # it starts, so a break right before it still counts.
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise error(
            f"line {lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from exc


def read_file(path: str, parse: Callable[[str], object], error: type[ValueError]):
    """``parse`` of the text of the file at ``path``. An ``error`` from the
    read or the parse is raised again as ``error("<path>: ...")``, with the
    same cause."""
    try:
        return parse(read_text(path, error))
    except error as exc:
        raise error(f"{path}: {exc}") from exc.__cause__


class TextFile:
    """Persistence for a class that defines ``to_text()``, ``FILE_ERROR``,
    the error class of its format, and ``_parse_line(line)``, which reads one
    line into an instance made by ``cls()``."""

    FILE_ERROR: type[ValueError]

    def save(self, path: str) -> None:
        """Replace the file at ``path`` with ``to_text()``, all or nothing.

        The text is rendered first, written to a temporary file next to
        ``path``, flushed to disk and renamed over ``path``, so a refused
        render or a failed write leaves the old file as it was and a crash
        leaves either the old or the new file. The directory is then flushed
        too, so the rename itself survives a power cut; if that fails, the
        error propagates with the new file in place. The temporary file is
        removed on any failure, and a replaced file keeps its permission bits.
        """
        text = self.to_text()
        tmp = f"{path}.{secrets.token_hex(4)}.tmp"
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    @classmethod
    def from_text(cls, text: str):
        loaded = cls()
        parse_lines(text, loaded._parse_line, cls.FILE_ERROR)
        return loaded

    @classmethod
    def load(cls, path: str):
        return read_file(path, cls.from_text, cls.FILE_ERROR)
