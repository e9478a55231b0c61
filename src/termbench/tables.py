"""CSV tables: the one writer for every table a stage emits, and the one reader.

The dialect is the csv module's default (comma-separated; a field is quoted
only when it holds a comma, a double quote or a line break, and a quote
inside it is doubled) with every row ending at "\\n". Cells are native
values: an int or a float is written as `repr` writes it, None as an empty
cell; they are read back as strings. Callers open the file with newline="",
as the csv module requires.
"""

from __future__ import annotations

import csv
from types import SimpleNamespace
from typing import IO, Iterable, Iterator, Sequence

from .errors import ParseError


def write_table(header: Sequence[str], rows: Iterable[Sequence], sink: IO) -> int:
    """Write `header`, then each of `rows` as it comes; return the row count."""
    # The writer quotes a field holding a character of its line terminator, so
    # it ends rows at "\r\n" and a field holding a lone "\r", at which the
    # reader would end the row, is quoted too; each row is written ending at "\n".
    writer = csv.writer(SimpleNamespace(write=lambda line: sink.write(line[:-2] + "\n")),
                        lineterminator="\r\n")
    writer.writerow(header)
    n = 0
    for n, row in enumerate(rows, start=1):
        writer.writerow(row)
    return n


def read_table(header: Sequence[str], stream: IO) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells) for each non-blank row after `header`.

    A first row other than `header`, or a row with another number of cells,
    raises ParseError naming the line.
    """
    reader = csv.reader(stream)
    found = next(reader, None)
    if found != list(header):
        raise ParseError(f"unexpected CSV header: {found}", 1)
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(row)}", reader.line_num)
        yield reader.line_num, row
