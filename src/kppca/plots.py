"""Deterministic SVG scatter plots and PGM image grids.

Hand-rolled writers so that re-running a command yields byte-identical
artifacts; plotting libraries embed timestamps and nondeterministic ids.
"""

import numpy as np

_SVG_W, _SVG_H = 640, 480
_PAD = 45.0
_GAP = 2  # pixels between the tiles of a PGM grid


def scatter_svg(path, layers):
    """Write a scatter plot of 2-D point layers.

    layers: sequence of (label, css_color, points) with points of shape
    (2, M); M may be 0. Layers are drawn in order, legend top-left.
    """
    pts = [np.asarray(p, dtype=float) for _, _, p in layers]
    nonempty = [p for p in pts if p.size]
    if nonempty:
        allpts = np.concatenate(nonempty, axis=1)
        lo = allpts.min(axis=1)
        hi = allpts.max(axis=1)
    else:
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 1.0])
    span = np.maximum(hi - lo, 1e-9)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    span = hi - lo

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_PAD:.1f}" y="{_PAD:.1f}" width="{_SVG_W - 2 * _PAD:.1f}" '
        f'height="{_SVG_H - 2 * _PAD:.1f}" fill="none" stroke="#cccccc"/>',
    ]
    for (_, color, _), p in zip(layers, pts):
        out.append(f'<g fill="{color}" fill-opacity="0.75">')
        x = _PAD + (p[0] - lo[0]) / span[0] * (_SVG_W - 2 * _PAD)
        y = _SVG_H - _PAD - (p[1] - lo[1]) / span[1] * (_SVG_H - 2 * _PAD)
        out += [f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="3"/>' for cx, cy in zip(x.tolist(), y.tolist())]
        out.append("</g>")
    for i, (label, color, _) in enumerate(layers):
        y = _PAD + 16.0 * (i + 1)
        out.append(f'<circle cx="{_PAD + 10:.1f}" cy="{y - 4:.1f}" r="4" fill="{color}"/>')
        out.append(
            f'<text x="{_PAD + 20:.1f}" y="{y:.1f}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(out))
        fh.write("\n")


def pgm_grid(path, images, grid_cols):
    """Tile square grayscale images into one binary PGM (P5) file.

    images: (count, side, side) array with values in [0, 1], written
    row-major with `grid_cols` images per row.
    """
    images = np.asarray(images, dtype=float)
    count, side, _ = images.shape
    rows = (count + grid_cols - 1) // grid_cols
    height = rows * side + (rows - 1) * _GAP
    width = grid_cols * side + (grid_cols - 1) * _GAP
    canvas = np.zeros((height, width))
    for i in range(count):
        r, c = divmod(i, grid_cols)
        y, x = r * (side + _GAP), c * (side + _GAP)
        canvas[y : y + side, x : x + side] = images[i]
    bytes_img = (np.clip(canvas, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(bytes_img.tobytes())
