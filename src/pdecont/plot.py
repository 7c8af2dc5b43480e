"""SVG output: branch diagrams and flat-shaded solution heatmaps."""

from __future__ import annotations

import os

import numpy as np

from . import periodic

W, H = 640, 480
MARGIN = 60


class PlotError(ValueError):
    pass


def _scale(vals, lo_px, hi_px):
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def to_px(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)
    return to_px, vmin, vmax


def _write(path, body):
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
           f'height="{H}" viewBox="0 0 {W} {H}">\n'
           f'<rect width="{W}" height="{H}" fill="white"/>\n'
           + body + "</svg>\n")
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(svg)
    os.replace(tmp, path)
    return path


def plot_branch(branches, x_col, y_col, out):
    """branches: list of (header, rows) tables; one polyline per branch,
    circles at bifurcation rows (ptype=1), diamonds at folds (ptype=2)."""
    datasets = []
    for header, rows in branches:
        if x_col not in header or y_col not in header:
            raise PlotError(f"unknown column; have {header}")
        ix, iy = header.index(x_col), header.index(y_col)
        ip = header.index("ptype")
        arr = np.asarray(rows, dtype=float)
        datasets.append((arr[:, ix], arr[:, iy], arr[:, ip]))
    allx = np.concatenate([d[0] for d in datasets])
    ally = np.concatenate([d[1] for d in datasets])
    sx, xmin, xmax = _scale(allx, MARGIN, W - MARGIN)
    sy, ymin, ymax = _scale(ally, H - MARGIN, MARGIN)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    body = [f'<line x1="{MARGIN}" y1="{H - MARGIN}" x2="{W - MARGIN}" '
            f'y2="{H - MARGIN}" stroke="black"/>',
            f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
            f'y2="{H - MARGIN}" stroke="black"/>',
            f'<text x="{W // 2}" y="{H - 15}" text-anchor="middle" '
            f'font-size="14">{x_col}</text>',
            f'<text x="15" y="{H // 2}" font-size="14" '
            f'transform="rotate(-90 15 {H // 2})" '
            f'text-anchor="middle">{y_col}</text>',
            f'<text x="{MARGIN}" y="{H - MARGIN + 20}" font-size="11">'
            f'{xmin:.4g}</text>',
            f'<text x="{W - MARGIN}" y="{H - MARGIN + 20}" font-size="11" '
            f'text-anchor="end">{xmax:.4g}</text>',
            f'<text x="{MARGIN - 5}" y="{H - MARGIN}" font-size="11" '
            f'text-anchor="end">{ymin:.4g}</text>',
            f'<text x="{MARGIN - 5}" y="{MARGIN + 5}" font-size="11" '
            f'text-anchor="end">{ymax:.4g}</text>']
    for k, (xs, ys, pt) in enumerate(datasets):
        col = colors[k % len(colors)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{col}" '
                    f'stroke-width="1.5"/>')
        for x, y, p in zip(xs, ys, pt):
            px, py = sx(x), sy(y)
            if p == 1:
                body.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="5" '
                            f'fill="none" stroke="{col}" stroke-width="2"/>')
            elif p == 2:
                body.append(f'<path d="M {px:.2f} {py - 6:.2f} '
                            f'L {px + 6:.2f} {py:.2f} L {px:.2f} {py + 6:.2f} '
                            f'L {px - 6:.2f} {py:.2f} Z" fill="none" '
                            f'stroke="{col}" stroke-width="2"/>')
    return _write(out, "\n".join(body) + "\n")


def _colormap(t):
    """Blue-white-red map on [0,1] -> (r,g,b)."""
    t = min(max(float(t), 0.0), 1.0)
    if t < 0.5:
        s = t / 0.5
        return (int(255 * s), int(255 * s), 255)
    s = (t - 0.5) / 0.5
    return (255, int(255 * (1 - s)), int(255 * (1 - s)))


def plot_solution(state, component, out):
    """Per-triangle flat-shaded heatmap of one solution component on the
    full (periodically extended) mesh, with a color scale."""
    if not 0 <= component < state.neq:
        raise PlotError(f"component {component} out of range 0..{state.neq - 1}")
    mesh = state.mesh
    u_full = periodic.extend_vector(state.u[:state.ops.per.nu_per],
                                    state.ops.per)
    n = mesh.npoints
    comp = u_full[component * n:(component + 1) * n]
    tri_vals = comp[mesh.triangles].mean(axis=1)
    vmin, vmax = float(tri_vals.min()), float(tri_vals.max())
    span = (vmax - vmin) or 1.0

    pts = mesh.points
    sx, _, _ = _scale(pts[:, 0], MARGIN, W - 2 * MARGIN)
    sy, _, _ = _scale(pts[:, 1], H - MARGIN, MARGIN)
    body = []
    for tri, val in zip(mesh.triangles, tri_vals):
        r, g, b = _colormap((val - vmin) / span)
        coords = " ".join(f"{sx(pts[i, 0]):.2f},{sy(pts[i, 1]):.2f}"
                          for i in tri)
        body.append(f'<polygon points="{coords}" fill="rgb({r},{g},{b})" '
                    f'stroke="none"/>')
    # color scale bar
    x0 = W - int(1.5 * MARGIN)
    for k in range(50):
        r, g, b = _colormap(1.0 - k / 49.0)
        y = MARGIN + k * (H - 2 * MARGIN) / 50.0
        body.append(f'<rect x="{x0}" y="{y:.2f}" width="20" '
                    f'height="{(H - 2 * MARGIN) / 50.0 + 1:.2f}" '
                    f'fill="rgb({r},{g},{b})"/>')
    body.append(f'<text x="{x0 + 25}" y="{MARGIN + 10}" font-size="11">'
                f'{vmax:.4g}</text>')
    body.append(f'<text x="{x0 + 25}" y="{H - MARGIN}" font-size="11">'
                f'{vmin:.4g}</text>')
    return _write(out, "\n".join(body) + "\n")
