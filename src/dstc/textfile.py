"""The line format shared by the zone, trust-anchor, cache, scenario and
corpus files.

Every such file is UTF-8 and line oriented: blank lines and lines starting
with ``#`` are skipped, and a line that cannot be read is reported as
``line N: <reason>`` in the reading module's own error class. Names and key
ids are single fields, checked by the same rule on read and on write.
"""

from __future__ import annotations

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


class TextFile:
    """Persistence for a class that defines ``to_text()`` and the classmethod
    ``from_text(text)``."""

    def save(self, path: str) -> None:
        text = self.to_text()  # before open(): a refused render keeps the old file
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())
