import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from occlusion_meter import geometry
from occlusion_meter.geometry import (
    EDGE_EPS,
    _MIN_AREA,
    ConvexPolygon,
    Polygon,
    circle_polygon,
    clip,
    rect_polygon,
    visible_area,
    visible_pieces,
    _bounds,
    _clip_half_plane,
    _signed_area2,
)

from conftest import (
    compressed_visible_area,
    mc_intersection_area,
    mc_points_in_polygon,
    mc_visible_area,
    random_convex_vertices,
)
from occlusion_meter.synthetic import Triangle, _inside_bits

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

# Half-integer coordinates keep every cell of the compression oracle well
# above the kernel's minimum piece area.
_coord = st.integers(min_value=0, max_value=40).map(lambda v: v / 2.0)


def _sorted_distinct(count):
    return st.lists(_coord, min_size=count, max_size=count, unique=True).map(sorted)


_rects = st.tuples(_sorted_distinct(2), _sorted_distinct(2)).map(lambda t: (t[0][0], t[1][0], t[0][1], t[1][1]))


def _rect_part(rect):
    x0, y0, x1, y1 = rect
    return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]), [rect]


def _l_part(xy):
    # L = [x0, x2] x [y0, y1] joined with [x0, x1] x [y1, y2]; not convex.
    (x0, x1, x2), (y0, y1, y2) = xy
    vertices = [(x0, y0), (x2, y0), (x2, y1), (x1, y1), (x1, y2), (x0, y2)]
    return Polygon(vertices), [(x0, y0, x2, y1), (x0, y1, x1, y2)]


_rectilinear_parts = st.one_of(
    _rects.map(_rect_part),
    st.tuples(_sorted_distinct(3), _sorted_distinct(3)).map(_l_part),
)


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            Polygon([(0, 0), (1, 1)])

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError, match="zero area"):
            Polygon([(0, 0), (1, 1), (2, 2)])

    def test_orientation_normalized_to_ccw(self):
        clockwise = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        counter = Polygon(UNIT_SQUARE)
        assert clockwise.vertices[0] == counter.vertices[0] or clockwise.area() == counter.area()
        # signed area of the stored vertices is positive for both
        for poly in (clockwise, counter):
            acc = 0.0
            vs = poly.vertices
            for i in range(len(vs)):
                x0, y0 = vs[i]
                x1, y1 = vs[(i + 1) % len(vs)]
                acc += x0 * y1 - x1 * y0
            assert acc > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        # Any non-finite coordinate makes the shoelace sum non-finite. A NaN triangle used to score area nan, and
        # a 2x2 square minus it kept a visible area of 4.0.
        for vertices in ([(bad, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0.0, 0.0), (2.0, 0.0), (2.0, bad), (0.0, 2.0)]):
            for cls in (Polygon, ConvexPolygon):
                with pytest.raises(ValueError, match="must be finite"):
                    cls(vertices)
        with pytest.raises(ValueError, match="must be finite"):
            rect_polygon(0.0, 0.0, bad, 1.0)

    def test_area_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            Polygon([(0.0, 0.0), (1e200, 0.0), (0.0, 1e200)])

    def test_convex_rejects_concave(self):
        with pytest.raises(ValueError, match="not convex"):
            ConvexPolygon([(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)])

    def test_convex_accepts_collinear_vertex(self):
        ConvexPolygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])

    @pytest.mark.parametrize("size", [1e-3, 1.0, 640.0])
    def test_convex_right_turn_tolerance(self, size):
        # A right turn at (size, 0) of depth d: not convex once d passes EDGE_EPS * size, in either input order.
        def pentagon(depth):
            return [(0.0, 0.0), (size, 0.0), (2 * size, -depth), (2 * size, 2 * size), (0.0, 2 * size)]

        for vertices in (pentagon(1.01 * EDGE_EPS * size), pentagon(1.01 * EDGE_EPS * size)[::-1]):
            with pytest.raises(ValueError, match="not convex"):
                ConvexPolygon(vertices)
        for vertices in (pentagon(0.99 * EDGE_EPS * size), pentagon(0.99 * EDGE_EPS * size)[::-1]):
            ConvexPolygon(vertices)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(_coord, st.floats(-50, 50, allow_nan=False)), min_size=3, max_size=10))
    def test_area_is_shoelace_of_stored_vertices(self, points):
        # The area recorded at construction, for input in either orientation.
        for vertices in (points, points[::-1]):
            try:
                poly = Polygon(vertices)
            except ValueError:
                assume(False)
            assert poly.area() == abs(_signed_area2(poly.vertices)) / 2.0

    @settings(max_examples=200)
    @given(st.lists(st.tuples(_coord, st.floats(-50, 50, allow_nan=False)), min_size=3, max_size=10))
    def test_signed_area_sums_edges_in_index_order(self, points):
        acc = 0.0
        for i in range(len(points)):
            x0, y0 = points[i]
            x1, y1 = points[(i + 1) % len(points)]
            acc += x0 * y1 - x1 * y0
        assert _signed_area2(points) == acc
        assert _signed_area2(tuple(points)) == acc

    def test_bounds_are_the_stored_vertices_bounds(self):
        # Walked once at construction; the stored value is a fresh walk's, bit for bit.
        rng = random.Random(43)
        for _ in range(200):
            vertices = random_convex_vertices(rng, center=(rng.uniform(-500, 500), rng.uniform(-500, 500)), spread=80.0)
            polygons = [Polygon(vertices), Polygon(vertices[::-1]), ConvexPolygon(vertices)]
            polygons.append(circle_polygon((rng.uniform(0, 640), rng.uniform(0, 640)), rng.uniform(0.5, 200), 128))
            for poly in polygons:
                xs, ys = [x for x, _ in poly.vertices], [y for _, y in poly.vertices]
                assert poly.bounds() == _bounds(poly.vertices) == (min(xs), min(ys), max(xs), max(ys))


class TestPolygonArea:
    def test_unit_square(self):
        assert Polygon(UNIT_SQUARE).area() == 1.0

    def test_right_triangle(self):
        assert Polygon([(0, 0), (2, 0), (0, 2)]).area() == 2.0

    def test_regular_64_gon_close_to_pi(self):
        poly = circle_polygon((0, 0), 1.0, 64)
        closed_form = (64 / 2) * math.sin(2 * math.pi / 64)
        assert poly.area() == pytest.approx(closed_form, rel=1e-12)
        assert poly.area() == pytest.approx(math.pi, rel=0.005)

    @given(
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    @settings(max_examples=100)
    def test_translation_invariant(self, dx, dy):
        base = Polygon([(0, 0), (3, 0), (4, 2), (1, 3)])
        moved = Polygon([(x + dx, y + dy) for x, y in base.vertices])
        assert moved.area() == pytest.approx(base.area(), rel=1e-9)

    @given(st.floats(min_value=0, max_value=2 * math.pi))
    @settings(max_examples=100)
    def test_rotation_invariant(self, theta):
        base = Polygon([(0, 0), (3, 0), (4, 2), (1, 3)])
        c, s = math.cos(theta), math.sin(theta)
        rotated = Polygon([(x * c - y * s, x * s + y * c) for x, y in base.vertices])
        assert rotated.area() == pytest.approx(base.area(), rel=1e-9)

    @given(st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=100)
    def test_scales_quadratically(self, s):
        base = Polygon([(0, 0), (3, 0), (4, 2), (1, 3)])
        scaled = Polygon([(x * s, y * s) for x, y in base.vertices])
        assert scaled.area() == pytest.approx(base.area() * s * s, rel=1e-9)


class TestClip:
    def test_identity(self):
        square = rect_polygon(0, 0, 1, 1)
        result = clip(Polygon(UNIT_SQUARE), square)
        assert len(result) == 1
        assert result[0].area() == pytest.approx(1.0, abs=1e-12)

    def test_half_cover(self):
        result = clip(Polygon(UNIT_SQUARE), rect_polygon(0.5, -1, 2, 2))
        assert len(result) == 1
        assert result[0].area() == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_returns_empty(self):
        assert clip(Polygon(UNIT_SQUARE), rect_polygon(2, 2, 3, 3)) == []

    def test_window_fully_inside_subject(self):
        result = clip(rect_polygon(0, 0, 10, 10), rect_polygon(2, 2, 3, 3))
        assert sum(p.area() for p in result) == pytest.approx(1.0, abs=1e-9)

    def test_non_convex_subject_area_exact(self):
        # L-shape clipped by a square covering its notch corner
        l_shape = Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
        window = rect_polygon(1, 1, 3, 3)
        total = sum(p.area() for p in clip(l_shape, window))
        # intersection is 2x2 square minus the 1x1 notch quadrant
        assert total == pytest.approx(3.0, abs=1e-9)

    def test_area_bounded_by_inputs(self):
        rng = random.Random(11)
        for _ in range(50):
            a = Polygon(random_convex_vertices(rng, center=(0, 0), spread=2.0))
            b = ConvexPolygon(random_convex_vertices(rng, center=(rng.uniform(-1, 1), rng.uniform(-1, 1)), spread=2.0))
            total = sum(p.area() for p in clip(a, b))
            assert total <= min(a.area(), b.area()) + 1e-9

    def test_commutative_in_area_for_convex(self):
        rng = random.Random(5)
        for _ in range(60):
            a = ConvexPolygon(random_convex_vertices(rng, spread=3.0))
            b = ConvexPolygon(
                random_convex_vertices(rng, center=(rng.uniform(-2, 2), rng.uniform(-2, 2)), spread=3.0)
            )
            ab = sum(p.area() for p in clip(a, b))
            ba = sum(p.area() for p in clip(b, a))
            if ab > 1e-6:
                assert ba == pytest.approx(ab, rel=1e-9)
            else:
                assert abs(ab - ba) < 1e-9

    def test_plain_polygon_window_is_read_as_convex(self):
        # A window given as a plain Polygon is converted, and checked convex, before it clips.
        subject = Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
        corners = [(1, 1), (3, 1), (3, 3), (1, 3)]
        [plain], [convex] = clip(subject, Polygon(corners)), clip(subject, ConvexPolygon(corners))
        assert plain.vertices == convex.vertices
        assert visible_area(subject, [Polygon(corners)]) == visible_area(subject, [ConvexPolygon(corners)])
        notched = Polygon([(1, 1), (3, 1), (2, 2), (3, 3), (1, 3)])
        with pytest.raises(ValueError, match="^polygon is not convex$"):
            clip(subject, notched)
        with pytest.raises(ValueError, match="^polygon is not convex$"):
            visible_area(subject, [notched])

    def test_matches_monte_carlo(self):
        rng = random.Random(23)
        checked = 0
        while checked < 20:
            a = ConvexPolygon(random_convex_vertices(rng, spread=3.0))
            b = ConvexPolygon(
                random_convex_vertices(rng, center=(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), spread=3.0)
            )
            exact = sum(p.area() for p in clip(a, b))
            if exact < 0.5:
                continue
            estimate = mc_intersection_area(a.vertices, b.vertices, 200_000, seed=checked)
            assert estimate == pytest.approx(exact, rel=0.02)
            checked += 1


    def test_matches_reference_clip_bit_for_bit(self):
        # clip shares visible_pieces' convex split; its bbox and sure-side
        # shortcuts must leave the vertices of the old half-plane loop as they were.
        rng = random.Random(59)
        cases = 0
        for _ in range(300):
            spread = rng.choice([1.0, 50.0, 300.0])
            center = (rng.uniform(-spread, spread), rng.uniform(-spread, spread))
            window_vertices = random_convex_vertices(rng, center=center, spread=spread)
            subjects = [Polygon(random_convex_vertices(rng, spread=spread))]
            x0, x1, x2 = sorted(rng.uniform(-spread, spread) for _ in range(3))
            y0, y1, y2 = sorted(rng.uniform(-spread, spread) for _ in range(3))
            subjects.append(_l_part(((x0, x1, x2), (y0, y1, y2)))[0])
            repeated = list(window_vertices)
            k = rng.randrange(len(repeated))
            repeated.insert(k, repeated[k])
            contained = [(center[0] + (x - center[0]) / 8, center[1] + (y - center[1]) / 8) for x, y in window_vertices]
            shift = 10 * spread
            windows = [
                ConvexPolygon(window_vertices),
                ConvexPolygon(repeated),
                ConvexPolygon(contained),
                ConvexPolygon([(x + shift, y) for x, y in window_vertices]),
                rect_polygon(-4 * spread, -4 * spread, 4 * spread, 4 * spread),
            ]
            for subject in subjects:
                for window in windows:
                    expected = reference_clip(subject, window)
                    got = clip(subject, window)
                    assert [p.vertices for p in got] == [p.vertices for p in expected]
                    cases += bool(got)
        assert cases > 1000

    def test_window_missing_the_bbox_by_less_than_edge_eps_is_empty(self):
        # A bbox miss is a miss, however close: no sliver within EDGE_EPS of the window edge.
        subject = rect_polygon(1000.0 + 1.2e-10, -900.0, 2000.0, 900.0)
        assert clip(subject, rect_polygon(0.0, -1000.0, 1000.0, 1000.0)) == []


def reference_clip(subject, window):
    """The half-plane loop clip ran before it shared visible_pieces' split."""
    points = list(subject.vertices)
    n = len(window.vertices)
    for i in range(n):
        if not points:
            break
        points = _clip_half_plane(points, window.vertices[i], window.vertices[(i + 1) % n])
    if len(points) >= 3 and abs(_signed_area2(points)) / 2.0 > _MIN_AREA:
        return [Polygon(points)]
    return []


class TestVisibleArea:
    def test_no_occluders(self):
        part = Polygon(UNIT_SQUARE)
        assert visible_area(part, []) == part.area()

    def test_disjoint_quarter_covers(self):
        part = Polygon(UNIT_SQUARE)
        occluders = [rect_polygon(0, 0, 0.5, 0.5), rect_polygon(0.5, 0.5, 1, 1)]
        assert visible_area(part, occluders) == pytest.approx(0.5, abs=1e-12)

    def test_fully_covered(self):
        part = Polygon(UNIT_SQUARE)
        assert visible_area(part, [rect_polygon(-1, -1, 2, 2)]) == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_occluders_not_double_counted(self):
        part = Polygon(UNIT_SQUARE)
        occluders = [rect_polygon(0, -1, 0.6, 2), rect_polygon(0.4, -1, 0.8, 2)]
        assert visible_area(part, occluders) == pytest.approx(0.2, abs=1e-9)

    def test_three_occluders_inclusion_exclusion(self):
        part = Polygon(UNIT_SQUARE)
        occluders = [
            rect_polygon(0, 0, 0.6, 0.6),
            rect_polygon(0.3, 0.3, 0.9, 0.9),
            rect_polygon(0.5, 0.0, 1.0, 0.4),
        ]
        exact = visible_area(part, occluders)
        estimate = mc_visible_area(part.vertices, [o.vertices for o in occluders], 400_000, seed=3)
        assert exact == pytest.approx(estimate, rel=0.02)

    def test_repeated_occluder_vertex_changes_nothing(self):
        part = Polygon(UNIT_SQUARE)
        plain = ConvexPolygon([(0.25, -1), (2, -1), (2, 2), (0.25, 2)])
        repeated = ConvexPolygon([(0.25, -1), (2, -1), (2, -1), (2, 2), (0.25, 2)])
        assert visible_area(part, [repeated]) == visible_area(part, [plain]) == pytest.approx(0.25, abs=1e-12)

    def test_five_occluders_match_monte_carlo(self):
        rng = random.Random(9)
        part = ConvexPolygon(random_convex_vertices(rng, spread=4.0))
        occluders = [
            ConvexPolygon(
                random_convex_vertices(
                    rng, center=(rng.uniform(-2, 2), rng.uniform(-2, 2)), spread=1.5
                )
            )
            for _ in range(5)
        ]
        exact = visible_area(part, occluders)
        estimate = mc_visible_area(part.vertices, [o.vertices for o in occluders], 1_000_000, seed=17)
        assert exact == pytest.approx(estimate, rel=0.01)

    def test_monotone_as_occluders_added_exact_path(self):
        part = Polygon(UNIT_SQUARE)
        occluders = [
            rect_polygon(0, 0, 0.4, 0.4),
            rect_polygon(0.2, 0.2, 0.7, 0.7),
            rect_polygon(0.5, 0.1, 0.9, 0.5),
        ]
        previous = visible_area(part, [])
        for k in range(1, 4):
            current = visible_area(part, occluders[:k])
            assert current <= previous + 1e-12
            previous = current

    def test_monotone_beyond_three_occluders(self):
        rng = random.Random(31)
        part = ConvexPolygon(random_convex_vertices(rng, spread=4.0))
        occluders = [
            ConvexPolygon(
                random_convex_vertices(rng, center=(rng.uniform(-2, 2), rng.uniform(-2, 2)), spread=1.2)
            )
            for _ in range(8)
        ]
        previous = visible_area(part, occluders[:3])
        for k in range(4, 9):
            current = visible_area(part, occluders[:k])
            assert current <= previous + 1e-12
            previous = current

    @given(_rectilinear_parts, st.lists(_rects, min_size=0, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_rectilinear_scenes_match_coordinate_compression(self, part_and_rects, occluder_rects):
        part, part_rects = part_and_rects
        occluders = [rect_polygon(*r) for r in occluder_rects]
        expected = compressed_visible_area(part_rects, occluder_rects)
        assert visible_area(part, occluders) == pytest.approx(expected, rel=1e-9)
        previous = part.area()
        for k in range(len(occluders) + 1):
            current = visible_area(part, occluders[:k])
            assert current <= previous + 1e-9 * part.area()
            previous = current

    def test_matches_kernel_that_runs_every_clip(self):
        # visible_area skips the clips of an edge when a bbox test decides
        # them; the results must equal those of running every clip.
        rng = random.Random(41)
        for case in range(150):
            parts = [circle_polygon((rng.uniform(100, 500), rng.uniform(100, 500)), rng.uniform(20, 120), 128),
                     ConvexPolygon(random_convex_vertices(rng, center=(300.0, 300.0), spread=150.0))]
            for part in parts:
                xs = sorted(x for x, _ in part.vertices)
                ys = sorted(y for _, y in part.vertices)
                occluders = []
                for _ in range(rng.randint(1, 8)):
                    kind = rng.randrange(3)
                    if kind == 2:
                        center = (rng.uniform(100, 500), rng.uniform(100, 500))
                        occluders.append(ConvexPolygon(random_convex_vertices(rng, center=center, spread=120.0)))
                        continue
                    if kind == 1:
                        # Edges through part vertices put vertices on the edge lines.
                        x0, x1 = sorted(rng.sample(xs, 2))
                        y0, y1 = sorted(rng.sample(ys, 2))
                    else:
                        x0, y0 = rng.uniform(0, 600), rng.uniform(0, 600)
                        x1, y1 = x0 + rng.uniform(1, 300), y0 + rng.uniform(1, 300)
                    if (x1 - x0) * (y1 - y0) > 1e-6:
                        occluders.append(rect_polygon(x0, y0, x1, y1))
                area, pieces = _visible_area_every_clip(part, occluders)
                assert visible_pieces(part, occluders) == pieces
                assert visible_area(part, occluders) == area


    def test_bounds_walked_only_for_new_or_clipped_pieces(self, monkeypatch):
        # Occluders that miss every piece walk no vertices: each piece carries its bounds.
        part = circle_polygon((300.0, 300.0), 100.0, 128)
        far = [rect_polygon(10.0 * i, 600.0, 10.0 * i + 5.0, 620.0) for i in range(4)]
        clipper = rect_polygon(250.0, 150.0, 350.0, 450.0)  # cuts the disc into a left and a right piece
        walks = []
        monkeypatch.setattr(geometry, "_bounds", lambda points: walks.append(len(points)) or _bounds(points))
        assert visible_pieces(part, far) == [list(part.vertices)]
        assert walks == []
        visible_pieces(part, [clipper, far[0]])
        after_one = list(walks)
        assert after_one  # the clipped inside and the two new pieces
        walks.clear()
        visible_pieces(part, [clipper, *far])
        assert walks == after_one


def _visible_area_every_clip(part, occluders):
    # (visible area, pieces), running every clip and walking every piece's bounds at every occluder.
    pieces = [list(part.vertices)]
    for occ in occluders:
        ox0, oy0, ox1, oy1 = occ.bounds()
        vs = occ.vertices
        kept = []
        for piece in pieces:
            xs, ys = [p[0] for p in piece], [p[1] for p in piece]
            if min(xs) > ox1 or ox0 > max(xs) or min(ys) > oy1 or oy0 > max(ys):
                kept.append(piece)
                continue
            finished, inside = [], piece
            for i in range(len(vs)):
                a, b = vs[i], vs[(i + 1) % len(vs)]
                if a == b:
                    continue
                outside = _clip_half_plane(inside, b, a)
                inside = _clip_half_plane(inside, a, b)
                if _signed_area2(inside) / 2.0 <= _MIN_AREA:
                    finished = [piece]
                    break
                if _signed_area2(outside) / 2.0 > _MIN_AREA:
                    finished.append(outside)
            kept.extend(finished)
        pieces = kept
    return min(math.fsum(_signed_area2(p) / 2.0 for p in pieces), part.area()), pieces


class TestCirclePolygon:
    def test_rejects_few_segments(self):
        with pytest.raises(ValueError, match="segments must be >= 16"):
            circle_polygon((0, 0), 1.0, 4)

    def test_rejects_non_positive_radius(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            circle_polygon((0, 0), 0.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            circle_polygon((0, 0), radius, 128)

    @pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 5.0)])
    def test_rejects_non_finite_centre(self, center):
        with pytest.raises(ValueError, match="must be finite"):
            circle_polygon(center, 1.0, 128)

    @pytest.mark.parametrize("segments", [16, 37, 64, 128])
    def test_matches_the_checked_constructor(self, segments):
        # circle_polygon skips Polygon.__init__'s float copy and bounds walk, and takes its bounds from the unit
        # circle's extremes. Its vertices, area and bounds are ConvexPolygon's of the same vertices, bit for bit.
        rng = random.Random(segments)
        cases = [((3, -4), 5), ((0.0, 0.0), 1e-3), ((1e6, -1e6), 1e4)]
        cases += [((rng.uniform(-700, 700), rng.uniform(-700, 700)), rng.uniform(1e-3, 400)) for _ in range(300)]
        for center, radius in cases:
            poly = circle_polygon(center, radius, segments)
            checked = ConvexPolygon(poly.vertices)
            assert type(poly) is ConvexPolygon
            assert all(type(c) is float for vertex in poly.vertices for c in vertex)
            assert poly.vertices == checked.vertices
            assert poly.area() == checked.area()
            assert poly.bounds() == checked.bounds() == _bounds(poly.vertices)

    def test_minimum_segment_count_accepted(self):
        poly = circle_polygon((0, 0), 1.0, 16)
        assert poly.area() == pytest.approx(8 * math.sin(2 * math.pi / 16), rel=1e-12)

    def test_64_gon_area(self):
        poly = circle_polygon((2.0, -1.0), 1.0, 64)
        assert poly.area() == pytest.approx(32 * math.sin(2 * math.pi / 64), rel=1e-12)

    def test_typical_wheel_close_to_disc(self):
        poly = circle_polygon((0, 0), 0.35, 128)
        assert poly.area() == pytest.approx(math.pi * 0.35**2, rel=0.002)

    @pytest.mark.parametrize("segments", [16, 37, 64, 128])
    def test_vertices_are_the_direct_trig_form(self, segments):
        # The unit circle is cached per segment count; each vertex is still cx + r * cos(k * step).
        rng = random.Random(segments)
        step = 2.0 * math.pi / segments
        for _ in range(50):
            cx, cy, r = rng.uniform(-700, 700), rng.uniform(-700, 700), rng.uniform(1e-3, 400)
            expected = tuple((cx + r * math.cos(k * step), cy + r * math.sin(k * step)) for k in range(segments))
            assert circle_polygon((cx, cy), r, segments).vertices == expected


class TestContainmentHelpers:
    def test_agree_on_convex_shapes(self):
        # A triangle's grid points (the scene sampler's containment for the frame) against crossing numbers.
        rng = random.Random(13)
        npr = np.random.default_rng(0)
        for _ in range(5):
            triangle = Triangle(*random_convex_vertices(rng, spread=2.0, n_points=3))
            xs = np.sort(npr.uniform(-3, 3, 141))  # _inside_bits takes ascending xs
            ys = np.sort(npr.uniform(-3, 3, 142))
            bits = _inside_bits([triangle.polygon], xs.tolist(), ys.tolist())
            convex = np.array([[bool(bits >> (i * xs.size + j) & 1) for j in range(xs.size)] for i in range(ys.size)])
            grid_x, grid_y = np.meshgrid(xs, ys)
            general = mc_points_in_polygon(triangle.polygon.vertices, grid_x, grid_y)
            # Boundary points may differ by the half-plane closure; interiors agree.
            assert (general != convex).sum() <= 5
