"""The package's one table format: comma-separated, a header line of column
names, then one line per row with strings as they are and numbers as their
``repr``, so floats read back bit-exact."""

from __future__ import annotations


def csv_line(values):
    return ",".join(v if isinstance(v, str) else repr(v) for v in values)


def write_csv(path, columns, rows):
    """Write ``columns`` as the header and each row of values below it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(csv_line(row) + "\n")
