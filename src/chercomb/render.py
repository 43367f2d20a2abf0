"""Terrain rendering: ASCII for terminals, SVG for everything else.

The ASCII drawing may take a latticed path in place of the generic walk;
its flattened steps render as '_'.  The SVG draws the generic walk only.
"""

from __future__ import annotations

from .terrain import DecoratedTerrain, LatticedPath, prefix_heights


def _decoration_marks(dt: DecoratedTerrain | None) -> dict[int, str]:
    marks = {}
    if dt is not None:
        for j in dt.opens:
            marks[j] = "("
        for j in dt.closes:
            marks[j] = ")"
    return marks


def terrain_ascii(
    word,
    dt: DecoratedTerrain | None = None,
    path: LatticedPath | None = None,
) -> str:
    """Draw the walk with '/', '\\', and '_', decorations above the edges."""
    steps = path.steps if path is not None else word
    n = len(steps)
    if n == 0:
        return "(empty terrain)"
    heights = prefix_heights(steps)
    lo, hi = min(heights), max(heights)
    grid = [[" "] * n for _ in range(hi - lo + 1)]
    marks = _decoration_marks(dt)
    deco = [" "] * n
    for j, s in enumerate(steps, start=1):
        h0, h1 = heights[j - 1], heights[j]
        level = max(h0, h1)  # the cell whose top edge the step touches
        row = hi - level
        grid[row][j - 1] = "/" if s > 0 else ("\\" if s < 0 else "_")
        if j in marks:
            deco[j - 1] = marks[j]
    lines = []
    if dt is not None:
        lines.append("".join(deco).rstrip())
    for row in grid:
        lines.append("".join(row).rstrip())
    labels = "".join(str(j % 10) for j in range(1, n + 1))
    lines.append(labels)
    return "\n".join(line for line in lines if line != "")


def terrain_svg(word, dt: DecoratedTerrain | None = None) -> str:
    """Draw the walk as a polyline through its vertices, decorations above
    the edges."""
    scale = 24
    n = len(word)
    heights = prefix_heights(word)
    hi = max(heights)
    lo = min(heights)
    pad = scale
    width = n * scale + 2 * pad
    height = (hi - lo) * scale + 2 * pad + scale

    def x(j):
        return pad + j * scale

    def y(h):
        return pad + (hi - h) * scale + scale // 2

    points = " ".join(f"{x(j)},{y(heights[j])}" for j in range(n + 1))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<polyline points="{points}" fill="none" stroke="black" stroke-width="2"/>',
    ]
    for j in range(n + 1):
        parts.append(f'<circle cx="{x(j)}" cy="{y(heights[j])}" r="3" fill="black"/>')
    for j, mark in _decoration_marks(dt).items():
        cx = (x(j - 1) + x(j)) / 2
        cy = (y(heights[j - 1]) + y(heights[j])) / 2 - scale / 3
        parts.append(
            f'<text x="{cx}" y="{cy}" text-anchor="middle" '
            f'font-size="{scale * 3 // 4}" font-weight="bold">{mark}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
