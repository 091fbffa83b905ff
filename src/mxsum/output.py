"""Where reports and tables go, and how a CSV cell is written: shared by
the harness's reports and the CLI's ``eval`` and ``coeffs`` output, and
kept apart from the harness so that those two never load it."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from csv import writer as _csv_writer

__all__ = ["open_destination", "write_csv"]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextmanager
def open_destination(destination):
    """Yield standard output for None or "-", else the file opened for writing.

    errors: OSError, carrying the destination path, when the file cannot
        be opened or written.
    """

    if destination is None or destination == "-":
        yield sys.stdout
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise OSError(f"cannot write report to {destination!r}: {exc}") from exc


def write_csv(handle, header, records) -> None:
    """Header line, then one line per record (a sequence of cells)."""

    out = _csv_writer(handle, lineterminator="\n")
    out.writerow(header)
    for record in records:
        out.writerow([_csv_cell(value) for value in record])
