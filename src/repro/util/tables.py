"""ASCII rendering of experiment output.

Every experiment module produces rows of labelled series; these helpers
render them as aligned tables so ``python -m repro.experiments figN``
prints something directly comparable to the paper's figure/table.
"""


def render_table(headers, rows, title=None):
    """Render a list-of-rows table with aligned columns.

    ``rows`` may contain any objects; they are str()-ed.  Numeric cells are
    right-aligned, text cells left-aligned.
    """
    rendered_rows = [[_render_cell(cell) for cell in row] for row in rows]
    columns = len(headers)
    for row in rendered_rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells, expected {columns}: {row}"
            )
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells, alignments):
        parts = []
        for cell, width, align in zip(cells, widths, alignments):
            parts.append(cell.rjust(width) if align == ">" else cell.ljust(width))
        return "  ".join(parts).rstrip()

    alignments = _column_alignments(rows, columns)
    lines = []
    if title:
        lines.append(title)
    lines.append(format_row([str(h) for h in headers], ["<"] * columns))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(format_row(row, alignments))
    return "\n".join(lines)


def _column_alignments(rows, columns):
    alignments = []
    for col in range(columns):
        numeric = all(
            isinstance(row[col], (int, float)) for row in rows if col < len(row)
        ) and bool(rows)
        alignments.append(">" if numeric else "<")
    return alignments


def _render_cell(cell):
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)
