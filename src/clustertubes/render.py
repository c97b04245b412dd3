"""Static SVG pictures of a torsion pair on the cluster-tube quiver.

The picture is a strip of the Auslander-Reiten quiver: vertices ``[(i, j)]``
drawn at x = (i+j)/2 and height j-i-1 (the level), rows for levels
1..rank+1, columns for one fundamental domain (left endpoints 0..rank-1)
plus one repeated column.  Labels abbreviate both coordinates modulo the
rank.  Vertices whose orbit lies in the finite half are boxed, and each
wing of the half is traced by two dotted lines from its top vertex down
past the mouth.

Output is plain SVG 1.1 text, byte-stable for a fixed input: iteration
order is canonical and every coordinate is formatted with one decimal.
"""

from __future__ import annotations

from .torsion import TorsionPair, decompose

_CELL = 44.0  # horizontal half-step and vertical step, in px
_MARGIN = 30.0
_FONT = 13


def _fmt(v: float) -> str:
    return f"{v:.1f}"


def render_torsion_pair(pair: TorsionPair) -> str:
    n = pair.rank
    half = pair.finite_half
    levels = n + 1
    width = _MARGIN * 2 + (n + (levels + 1) / 2.0) * _CELL
    height = _MARGIN * 2 + (levels + 0.7) * _CELL

    def xy(i: int, j: int) -> tuple[float, float]:
        level = j - i - 1
        x = _MARGIN + (i + (j - i) / 2.0) * _CELL
        y = _MARGIN + (levels - level) * _CELL
        return x, y

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
    ]

    # dotted wing boundaries, one per non-degenerate span in cut order, drawn
    # for every representative whose lines can intersect the viewport
    wings = [(c, d) for c, d in decompose(half).spans() if d - c >= 2]
    for c, d in wings:
        for shift in (-n, 0, n):
            cc, dd = c + shift, d + shift
            top_x, top_y = xy(cc, dd)
            if top_x < -2 * _CELL or top_x > width + 2 * _CELL:
                continue
            overhang = 0.7 * _CELL
            left_x, left_y = xy(cc, cc + 2)
            right_x, right_y = xy(dd - 2, dd)
            for bx, by in ((left_x, left_y), (right_x, right_y)):
                if by == top_y:  # span of width 2: extend straight through
                    dx = -0.5 if (bx, by) == (left_x, left_y) else 0.5
                    ex, ey = bx + dx * overhang, by + overhang
                else:
                    ux, uy = bx - top_x, by - top_y
                    norm = (ux * ux + uy * uy) ** 0.5
                    ex, ey = bx + ux / norm * overhang, by + uy / norm * overhang
                out.append(
                    f'<line x1="{_fmt(top_x)}" y1="{_fmt(top_y)}" '
                    f'x2="{_fmt(ex)}" y2="{_fmt(ey)}" '
                    f'stroke="black" stroke-width="0.8" stroke-dasharray="2,3"/>'
                )

    # vertices, bottom level first, one repeated column (i = n)
    for level in range(1, levels + 1):
        for i in range(n + 1):
            j = i + level + 1
            x, y = xy(i, j)
            label_i, label_j = i % n, j % n
            label = f"{label_i}{label_j}" if n <= 10 else f"{label_i},{label_j}"
            boxed = half.contains_arc((i, j))
            if boxed:
                w = _FONT * (0.62 * len(label) + 0.8)
                h = _FONT * 1.5
                out.append(
                    f'<rect x="{_fmt(x - w / 2)}" y="{_fmt(y - h / 2)}" '
                    f'width="{_fmt(w)}" height="{_fmt(h)}" '
                    f'fill="none" stroke="black" stroke-width="1.0"/>'
                )
            out.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y + _FONT * 0.35)}" '
                f'font-family="monospace" font-size="{_FONT}" '
                f'text-anchor="middle">{label}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
