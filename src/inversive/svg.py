"""Deterministic SVG rendering for planar configurations and witnesses.

Only the planar case is drawable: points of R^2_inf as filled dots, spheres
as circles or lines, the point at infinity as a glyph in the top margin.
Each color index always maps to the same fill, coordinates are written with
four fixed decimals, and nothing depends on clocks or randomness, so equal
inputs produce byte-identical files.
"""

import math
from typing import Dict, List, Optional, Tuple, Union

from .geom import GeometryError, Hypersphere, Point, SubSphere
from .witness import ColoredConfig, PolychromaticWitness, SeparationWitness

__all__ = ["PALETTE", "color_fill", "render_svg", "emit_svg"]

SIZE = 520
PAD = 48

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#17becf", "#8c564b", "#e377c2",
)

HIGHLIGHT = "#f2a900"

Drawable = Union[ColoredConfig, PolychromaticWitness, SeparationWitness]


def color_fill(color: int) -> str:
    return PALETTE[(color - 1) % len(PALETTE)]


def _fmt(x: float) -> str:
    s = "%.4f" % x
    return "0.0000" if s == "-0.0000" else s


def _as_float_pair(p: Point) -> Tuple[float, float]:
    x, y = p.coords
    return float(x), float(y)


def _plane_sphere(s: Union[Hypersphere, SubSphere]) -> Hypersphere:
    """Reduce a drawable sphere to a planar Hypersphere (circle or line)."""
    if isinstance(s, SubSphere):
        if s.ambient != 2 or s.surface is None:
            raise GeometryError("only planar spheres can be drawn")
        return _plane_sphere(s.surface)
    if len(s.b) != 2:
        raise GeometryError("only planar spheres can be drawn")
    return s


class _Frame:
    """World-to-viewport transform, uniform scale with a flipped y axis."""

    def __init__(self, xs: List[float], ys: List[float]):
        if not xs:
            xs, ys = [-1.0, 1.0], [-1.0, 1.0]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 - x0 < 1e-9:
            x0, x1 = x0 - 1.0, x1 + 1.0
        if y1 - y0 < 1e-9:
            y0, y1 = y0 - 1.0, y1 + 1.0
        self.scale = (SIZE - 2 * PAD) / max(x1 - x0, y1 - y0)
        self.cx = (x0 + x1) / 2
        self.cy = (y0 + y1) / 2
        self.span = max(x1 - x0, y1 - y0)

    def to_view(self, x: float, y: float) -> Tuple[float, float]:
        return (SIZE / 2 + (x - self.cx) * self.scale,
                SIZE / 2 - (y - self.cy) * self.scale)


def _gather(obj: Drawable, config: Optional[ColoredConfig]):
    """Split a drawable into colored points, styled spheres, and rings."""
    points: Dict[Point, int] = {}
    spheres: List[Hypersphere] = []
    rings: List[Point] = []
    if config is not None:
        for p, c in config.items:
            points[p] = c
    if isinstance(obj, ColoredConfig):
        for p, c in obj.items:
            points[p] = c
    elif isinstance(obj, PolychromaticWitness):
        for p, c in obj.on_points:
            points[p] = c
            rings.append(p)
        spheres.append(_plane_sphere(obj.sphere))
    elif isinstance(obj, SeparationWitness):
        for p, c in obj.defining + obj.separated_pair:
            points[p] = c
        rings.extend(p for p, _ in obj.separated_pair)
        spheres.append(_plane_sphere(obj.sphere))
    else:
        raise GeometryError("cannot draw objects of type %s" % type(obj).__name__)
    return points, spheres, rings


def _sphere_extent(s: Hypersphere, xs: List[float], ys: List[float]) -> None:
    from .exactnum import is_zero

    if is_zero(s.c):
        return
    c = s.center()
    r = math.sqrt(float(s.radius_sq()))
    x, y = _as_float_pair(c)
    xs.extend([x - r, x + r])
    ys.extend([y - r, y + r])


def _sphere_element(s: Hypersphere, frame: _Frame) -> str:
    from .exactnum import is_zero

    style = 'fill="none" stroke="%s" stroke-width="3"' % HIGHLIGHT
    if not is_zero(s.c):
        cx, cy = _as_float_pair(s.center())
        r = math.sqrt(float(s.radius_sq()))
        vx, vy = frame.to_view(cx, cy)
        return '<circle cx="%s" cy="%s" r="%s" %s/>' % (
            _fmt(vx), _fmt(vy), _fmt(r * frame.scale), style)
    bx, by = float(s.b[0]), float(s.b[1])
    nn = bx * bx + by * by
    a = float(s.a)
    ax, ay = -a * bx / nn, -a * by / nn
    dx, dy = -by / math.sqrt(nn), bx / math.sqrt(nn)
    big = 2.0 * frame.span + 2.0
    x1, y1 = frame.to_view(ax - dx * big, ay - dy * big)
    x2, y2 = frame.to_view(ax + dx * big, ay + dy * big)
    return '<line x1="%s" y1="%s" x2="%s" y2="%s" %s/>' % (
        _fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2), style)


def render_svg(obj: Drawable, config: Optional[ColoredConfig] = None) -> str:
    """Render a planar configuration or witness to SVG text."""
    ambient = obj.n if isinstance(obj, ColoredConfig) else None
    if ambient is not None and ambient != 2:
        raise GeometryError("only planar configurations can be drawn")
    if config is not None and config.n != 2:
        raise GeometryError("only planar configurations can be drawn")
    points, spheres, rings = _gather(obj, config)

    xs: List[float] = []
    ys: List[float] = []
    for p in points:
        if not p.is_infinity:
            x, y = _as_float_pair(p)
            xs.append(x)
            ys.append(y)
    for s in spheres:
        _sphere_extent(s, xs, ys)
    frame = _Frame(xs, ys)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (SIZE, SIZE, SIZE, SIZE),
        '<rect width="%d" height="%d" fill="#ffffff"/>' % (SIZE, SIZE),
    ]
    for s in spheres:
        parts.append(_sphere_element(s, frame))

    ring_set = set(rings)
    glyph_row = 0
    for p, c in points.items():
        if p.is_infinity:
            gx, gy = SIZE - 26, 16 + 30 * glyph_row
            glyph_row += 1
            parts.append('<rect x="%d" y="%d" width="20" height="20" rx="4" '
                         'fill="%s"/>' % (gx, gy, color_fill(c)))
            parts.append('<text x="%d" y="%d" font-family="sans-serif" '
                         'font-size="14" fill="#ffffff" text-anchor="middle">'
                         '&#8734;</text>' % (gx + 10, gy + 15))
            if p in ring_set:
                parts.append('<rect x="%d" y="%d" width="26" height="26" rx="6" '
                             'fill="none" stroke="#000000" stroke-width="1.5"/>'
                             % (gx - 3, gy - 3))
            continue
        vx, vy = frame.to_view(*_as_float_pair(p))
        parts.append('<circle cx="%s" cy="%s" r="5" fill="%s"/>' % (
            _fmt(vx), _fmt(vy), color_fill(c)))
        if p in ring_set:
            parts.append('<circle cx="%s" cy="%s" r="8.5" fill="none" '
                         'stroke="#000000" stroke-width="1.5"/>' % (_fmt(vx), _fmt(vy)))
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def emit_svg(obj: Drawable, path: str,
             config: Optional[ColoredConfig] = None) -> None:
    """Write the rendering of a configuration or witness to a file."""
    try:
        text = render_svg(obj, config)
    except OverflowError as e:  # an exact coordinate beyond the float range
        raise GeometryError("cannot draw in floats: %s" % e) from e
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
