"""Conforming triangulation of the domain with the inclusion boundary resolved.

Strategy: sample each analytic curve once per mesh at spacing ~ target_h (one
staggered offset layer inside the outer boundary; one outside the inclusion,
plus one inside where it clears the medial axis), lay a hexagonal lattice in
the bulk with a clearance band around each curve and Delaunay-triangulate the
combined point set.  A triangulation that misses a curve edge is rejected like
one of poor quality, and the next lattice offset is tried; a retry re-lays
only the lattice.  Conductivity is then constant per element by construction.
An offset is rejected before the full triangulation when the Delaunay
triangulation of the near-curve points alone holds a defect whose
circumcircle is empty of all points, since the full one then holds it too
(the points in each circle are counted by a slab search of the x-sorted
points); every mesh kept still comes from the full triangulation, so this
cannot change a mesh.  Each Mesh builds its edge table, interior vertex
index, vertex adjacency and P1 element geometry once, on first use; a refined
mesh also keeps the restriction to interior vertices of its prolongation from
the parent, built from the vertex numbering refine() defines.  The sparse
ones are serrinlab.csr CSR matrices: the adjacency and the element patches
of gradient recovery are bool patterns, the prolongation is float64.  All
topology is int32, the CSR's index width: triangles, loops, edge table and
interior index, so no kernel or gather copies an index array down.  The
edge table costs one sort per mesh: edges are numbered by first appearance
in O(n) from that sort's runs of equal keys, and the table keeps the order
of its edges by key, so every boundary or interface loop lookup is a
searchsorted on it.  The module does no I/O: cli_io writes a mesh, with the
field on it, to field.txt.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.spatial._qhull import Delaunay

from .csr import CSR
from .errors import MeshQualityError, ValidationError
from .geometry import (_BLOCK_ROWS, TWO_PI, DomainSpec, curvature_max, exact_perimeter,
                       inclusion_margin)

# lattice pitch and ring spacing relative to target_h; clearance band half-width
# relative to local ring spacing (tuned so the worst band triangle keeps its
# minimum angle above 20 degrees and h_max below 1.5 * target_h)
_PITCH = 0.85
_CLEARANCE = 0.55
# deterministic lattice-offset retry schedule (units of the pitch)
_OFFSETS = ((0.0, 0.0), (0.5, 0.0))
# minimum triangle angle of a generated mesh; validate_mesh checks it too
_MIN_ANGLE_DEG = 20.0
# reach (in pitches) past each clearance band of the points that the early
# rejection triangulates, and the widest circumcircle radius it tests.
# Soundness rests on counting all points, not only the near ones, in a
# defect's circumcircle, so no value can reject an offset that would mesh; it
# sets only how many doomed offsets are caught before the full triangulation:
# at this value all 116 on the grid of scripts/mesh_probe.py
_NEAR_PITCHES = 1.0
# a patch is degenerate when the determinant of its centred second moments
# falls to this fraction of their squared trace (collinear samples give 0)
_DEGENERATE_PATCH = 1e-10


@dataclass
class Mesh:
    """Immutable-by-convention conforming triangle mesh.

    triangles are CCW; region is 1 on elements inside the inclusion, else 0.
    triangles and the loops hold int32 vertex ids on a generated mesh, and
    refine() keeps the index dtype of the mesh it splits.
    boundary_* arrays follow one CCW loop around the outer boundary; interface_*
    likewise around the inclusion (when present); the length and outward normal
    of each loop edge are derived from the loop.  Curve parameters of on-curve
    vertices are kept so refinement can project midpoints back onto the curves.
    parent is the mesh that refine() split into this one (None for a generated
    mesh); the solver builds its multigrid hierarchy from that chain.  The
    topology (edge_table, interior, adjacency, and on a refined mesh the
    interior restriction of its prolongation), the P1 element_geometry, h_max,
    the longest edge of the edge table, and the recovery patch_moments are
    computed once, on first use, and left out of pickles.  A mesh is
    identified by the object itself: fields hold the mesh they live on.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region: np.ndarray
    boundary_loop: np.ndarray          # vertex ids, CCW order
    boundary_params: np.ndarray        # curve parameter per loop vertex
    interface_loop: Optional[np.ndarray]
    interface_params: Optional[np.ndarray]
    domain: Optional[DomainSpec]
    inclusion: Optional[DomainSpec]
    target_h: float
    parent: Optional["Mesh"] = field(default=None, repr=False, compare=False)

    def boundary_edge_lengths(self):
        """Length of each CCW boundary edge i -> i+1."""
        p = self.vertices[self.boundary_loop]
        return np.hypot(*(np.roll(p, -1, axis=0) - p).T)

    @property
    def boundary_normals(self):
        """Outward unit normal of each CCW boundary edge i -> i+1."""
        p = self.vertices[self.boundary_loop]
        e = np.roll(p, -1, axis=0) - p
        return np.stack([e[:, 1], -e[:, 0]], axis=-1) / self.boundary_edge_lengths()[:, None]

    def triangle_areas(self):
        x, y = _corners(self.vertices, self.triangles)
        return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))

    def min_angle_deg(self):
        """Smallest corner angle: the arccos of the largest corner cosine."""
        cosines = _corner_cosines(_edge_lengths(self.vertices, self.triangles))
        return float(np.degrees(np.arccos(cosines.max())))

    @cached_property
    def edge_table(self):
        """edge_table(triangles): edges, edge id of each side, triangles per edge."""
        return edge_table(self.triangles)

    @cached_property
    def h_max(self):
        """Length of the longest edge of the edge table."""
        d = np.diff(self.vertices[self.edge_table[0]], axis=1)[:, 0]
        return float(np.hypot(d[:, 0], d[:, 1]).max())

    @cached_property
    def interior(self):
        """Sorted ids of the vertices off the boundary loop."""
        off_loop = np.ones(len(self.vertices), dtype=bool)
        off_loop[self.boundary_loop] = False
        return np.flatnonzero(off_loop).astype(np.int32)

    @cached_property
    def adjacency(self):
        """The pattern of A + I of the vertex adjacency: a bool CSR, every
        entry True, with sorted rows."""
        edges = self.edge_table[0]
        n = len(self.vertices)
        diagonal = np.arange(n, dtype=np.int32)
        rows = np.concatenate([edges[:, 0], edges[:, 1], diagonal])
        cols = np.concatenate([edges[:, 1], edges[:, 0], diagonal])
        return CSR.from_coo(rows, cols, np.ones(len(rows), dtype=bool), (n, n))

    def prolongation(self):
        """CSR (V, V_parent) interpolation from the parent of a refined mesh.

        refine() keeps parent vertex i as vertex i and puts the midpoint of
        edge e of the parent's edge table at V_parent + e, so that row is half
        of each end of e.  Only interior_prolongation reads it, once, so it
        is built on each call and not kept.
        """
        V = len(self.parent.vertices)
        edges = self.parent.edge_table[0]
        kept = np.arange(V, dtype=np.int32)
        rows = np.concatenate([kept, np.repeat(np.arange(V, V + len(edges), dtype=np.int32), 2)])
        cols = np.concatenate([kept, edges.ravel()])
        vals = np.concatenate([np.ones(V), np.full(2 * len(edges), 0.5)])
        return CSR.from_coo(rows, cols, vals, (len(self.vertices), V))

    @cached_property
    def interior_prolongation(self):
        """(P, R) of a refined mesh: the prolongation restricted to this mesh's
        interior rows and its parent's interior columns, and its transpose,
        both CSR; every solve's V-cycle on this mesh shares them."""
        P = self.prolongation().rows(self.interior).columns(self.parent.interior)
        return P, P.transpose()

    @cached_property
    def element_geometry(self):
        """(area, gx, gy) of the P1 elements: each triangle's area and the x and
        y gradients of its three barycentric coordinates, each (3, T)."""
        x, y = _corners(self.vertices, self.triangles)
        # grad l_i = perp(opposite edge) / (2 area)
        bx = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
        by = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
        area2 = bx[0] * (x[0] - x[2]) + by[0] * (y[0] - y[2])
        return 0.5 * area2, bx / area2, by / area2

    @cached_property
    def gradient_patches(self):
        """patch_moments of gradient recovery: each vertex's elements at their
        centroids, for a starved vertex (on fewer than 3) its neighbours' too.
        The patches are bool patterns, like the adjacency."""
        n, nt = len(self.vertices), len(self.triangles)
        patches = CSR.from_coo(self.triangles.ravel(), np.repeat(np.arange(nt, dtype=np.int32), 3),
                               np.ones(3 * nt, dtype=bool), (n, nt))
        starved = np.flatnonzero(np.diff(patches.indptr) < 3)
        if len(starved):
            # D A P for the diagonal pattern D of the starved vertices
            D = CSR.from_coo(starved, starved, np.ones(len(starved), dtype=bool), (n, n))
            patches = patches + D @ self.adjacency @ patches
        cx, cy = (c.mean(axis=0) for c in _corners(self.vertices, self.triangles))
        return patch_moments(patches.indptr, patches.indices, cx, cy, *self.vertices.T)

    @cached_property
    def hessian_patches(self):
        """patch_moments of Hessian recovery over the two-ring vertex patches,
        the rows of adjacency @ adjacency, multiplied out a row block at a time."""
        A, x, y = self.adjacency, *self.vertices.T
        ring = [(p.indices, np.diff(p.indptr)) for p in (
            A.rows(np.arange(lo, min(lo + _BLOCK_ROWS, len(x)))) @ A
            for lo in range(0, len(x), _BLOCK_ROWS))]
        indptr = np.r_[0, np.cumsum(np.concatenate([c for _, c in ring]))].astype(np.int32)
        return patch_moments(indptr, np.concatenate([i for i, _ in ring]), x, y, x, y)

    def __getstate__(self):
        """Pickle without any cached_property: a pool worker rebuilds what it reads."""
        return {k: v for k, v in vars(self).items()
                if not isinstance(vars(Mesh).get(k), cached_property)}


PatchMoments = namedtuple("PatchMoments", "indptr indices px py x0 y0 mx my sxx sxy syy det ok")


def row_blocks(indptr):
    """(lo, hi, ptr from 0, slice of the samples) per _BLOCK_ROWS CSR rows."""
    for lo in range(0, len(indptr) - 1, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(indptr) - 1)
        yield lo, hi, indptr[lo:hi + 1] - indptr[lo], slice(indptr[lo], indptr[hi])


def patch_moments(indptr, indices, px, py, x0, y0):
    """Mesh-only stage of fem_core's patch fits, a row block at a time: row i
    of (indptr, indices) lists the samples k of patch i, at (px[k], py[k]).
    Of the offsets d_k = p_k - (x0[i], y0[i]) it keeps the mean m = (mx, my),
    the moments sxx, sxy, syy of e_k = d_k - m (one reduceat segment per row)
    and their det; ok is False if a patch has under 3 samples or det at most
    _DEGENERATE_PATCH times its squared trace.  Never raises: the fits do."""
    counts = np.diff(indptr)
    mx, my, sxx, sxy, syy = np.zeros((5, len(counts)))
    if np.all(counts >= 3):
        for lo, hi, ptr, entries in row_blocks(indptr):
            c, starts, idx = counts[lo:hi], ptr[:-1], indices[entries]
            dx, dy = (np.take(p, idx) - np.repeat(p0[lo:hi], c) for p, p0 in ((px, x0), (py, y0)))
            mx[lo:hi], my[lo:hi] = np.add.reduceat(dx, starts) / c, np.add.reduceat(dy, starts) / c
            ex, ey = dx - np.repeat(mx[lo:hi], c), dy - np.repeat(my[lo:hi], c)
            sxx[lo:hi], sxy[lo:hi], syy[lo:hi] = (np.add.reduceat(e * f, starts)
                                                  for e, f in ((ex, ex), (ex, ey), (ey, ey)))
    det = sxx * syy - sxy * sxy
    return PatchMoments(indptr, indices, px, py, x0, y0, mx, my, sxx, sxy, syy, det,
                        bool(np.all(det > _DEGENERATE_PATCH * (sxx + syy) ** 2)))


def _corners(vertices, triangles):
    """x and y of the corners of each triangle, each (3, T)."""
    return np.take(vertices[:, 0], triangles.T), np.take(vertices[:, 1], triangles.T)


def _edge_lengths(vertices, triangles):
    """(3, T) lengths of the sides v0v1, v1v2, v2v0 of each triangle."""
    x, y = _corners(vertices, triangles)
    return np.hypot(np.roll(x, -1, axis=0) - x, np.roll(y, -1, axis=0) - y)


def _corner_cosines(ell):
    """(3, T) cosines of the corner angles, clipped to [-1, 1], from the (3, T)
    side lengths of _edge_lengths.  arccos decreases, so the smallest angle
    is the arccos of the largest cosine: one arccos instead of three."""
    a, b, c = ell
    return np.clip(np.stack([(s1 ** 2 + s2 ** 2 - opp ** 2) / (2 * s1 * s2)
                             for opp, s1, s2 in ((b, c, a), (c, a, b), (a, b, c))]),
                   -1.0, 1.0)


def _hex_lattice(center, extent, pitch, offset):
    """Deterministic hexagonal lattice covering a square of half-width extent."""
    dy = pitch * math.sqrt(3.0) / 2.0
    jmax = int(math.ceil(extent / dy)) + 1
    imax = int(math.ceil(extent / pitch)) + 2
    j = np.arange(-jmax, jmax + 1)
    i = np.arange(-imax, imax + 1)
    # rows by j, points within a row by i; x is summed as ((c + o p) + xoff) + i p,
    # the order that fixes each point's rounding and so the mesh
    xoff = np.where(j % 2 == 1, 0.5 * pitch, 0.0)
    x = (center[0] + offset[0] * pitch + xoff)[:, None] + i * pitch
    y = center[1] + offset[1] * pitch + j * dy
    return np.stack([x, np.broadcast_to(y[:, None], x.shape)], axis=-1).reshape(-1, 2)


def generate(domain: DomainSpec, inclusion: Optional[DomainSpec],
             target_h: float) -> Mesh:
    """Build a conforming mesh with h_max <= 1.5 * target_h and min angle >= 20 deg.

    Deterministic for fixed (specs, target_h).  Each curve is sampled once;
    a fixed schedule of lattice offsets is then tried, each retry re-laying
    only the lattice, before giving up with a quality report.
    """
    if target_h is None or target_h <= 0:
        raise ValidationError("target_h: must be positive")
    if inclusion is not None:
        inclusion_margin(domain, inclusion)  # raises if D touches/exits Omega

    # one staggered layer inside the boundary keeps the boundary-adjacent strip
    # structurally regular (flux recovery quality depends on it); the inclusion
    # gets one outside and one inside where that clears its medial axis
    rings = [_sample_curve(domain, target_h, 32, (-1.0,))]
    if inclusion is not None:
        rings.append(_sample_curve(inclusion, target_h, 12, (+1.0, -1.0)))
    # the offset layers of one curve must stay out of the other curve's band
    layers = [layer[_clear_of(rings, layer, skip=k)]
              for k, ring in enumerate(rings) for layer in ring.layers]

    reports = []
    for offset in _OFFSETS:
        try:
            return _generate_once(domain, inclusion, target_h, rings, layers, offset)
        except MeshQualityError as exc:
            reports.append(f"offset {offset}: {exc}")
    raise MeshQualityError(
        f"mesh quality unreachable for target_h={target_h}: {'; '.join(reports)}")


# a curve sampled for meshing: ring parameters t and points, the staggered
# offset layers, and the half-width of the clearance band around the curve
_Ring = namedtuple("_Ring", "curve t points layers clear")


def _sample_curve(curve, target_h, n_min, signs):
    """Sample curve at spacing ~ _PITCH * target_h (at least n_min points).

    Lays one staggered layer per sign (-1 inward, +1 outward); a layer after
    the first only when the band stays clear of the medial axis.
    """
    perim = exact_perimeter(curve)
    n = max(n_min, int(math.ceil(perim / (_PITCH * target_h))))
    t = TWO_PI * np.arange(n) / n
    depth = math.sqrt(3.0) / 2.0
    first, ell_loc = _offset_ring(curve, t, depth, signs[0])
    band = depth * float(ell_loc.max())
    layers = [first]
    if len(signs) > 1 and band < 0.5 / curvature_max(curve):
        layers += [_offset_ring(curve, t, depth, sign)[0] for sign in signs[1:]]
    return _Ring(curve, t, curve.point(t), layers, band + _CLEARANCE * (perim / n) - 1e-12)


def _clear_of(rings, pts, skip=None):
    """Mask of pts outside the clearance band of every ring but rings[skip]:
    inside the outer boundary (rings[0]) by its clearance, and at least the
    clearance away from an inclusion curve on either side."""
    keep = np.ones(len(pts), dtype=bool)
    for k, ring in enumerate(rings):
        if k != skip:
            margin = ring.curve.signed_radial_margin(pts)
            keep &= (np.abs(margin) if k else margin) >= ring.clear
    return keep


def _offset_ring(curve, t, depth_factor, sign):
    """Staggered ring at parameter midpoints, offset along the normal.

    sign -1 moves inward (into the region bounded by the CCW curve), +1 outward.
    Returns the points and the local edge spacing used for the offset depth.
    """
    dt = t[1] - t[0]
    tm = t + dt / 2.0
    vel = curve.velocity(tm)
    speed = np.hypot(vel[:, 0], vel[:, 1])
    normal = np.stack([vel[:, 1], -vel[:, 0]], axis=-1) / speed[:, None]
    ell = speed * dt
    return curve.point(tm) + sign * depth_factor * ell[:, None] * normal, ell


def _generate_once(domain, inclusion, target_h, rings, layers, offset):
    """One attempt: the lattice at offset around the sampled rings and their
    filtered layers, triangulated and checked; raises MeshQualityError."""
    pitch = _PITCH * target_h
    extent = float(np.max(np.abs(domain.point(
        TWO_PI * np.arange(512) / 512) - np.asarray(domain.center)))) + 2 * pitch
    lattice = _hex_lattice(domain.center, extent, pitch, offset)
    kept = layers + [lattice[_clear_of(rings, lattice)]]
    free_pts = np.vstack([a for a in kept if len(a)])
    free_pts = free_pts[np.lexsort((free_pts[:, 0], free_pts[:, 1]))]

    pts = [ring.points for ring in rings]
    if inclusion is not None:
        dc = free_pts - np.asarray(inclusion.center)
        inside_d = rings[1].curve.signed_radial_margin(free_pts) > 0
        if not np.any(inside_d & (np.hypot(dc[:, 0], dc[:, 1]) <= 0.75 * pitch)):
            pts.append(np.asarray(inclusion.center, dtype=float)[None, :])
    points = np.vstack(pts + [free_pts])

    # the near-curve points (both rings, the offset layers and the lattice
    # points within reach of a clearance band) hold the corners of the defects
    # that sink an offset; the full triangulation's triangles with near corners
    # are all in their triangulation too
    reach = _NEAR_PITCHES * pitch
    near = np.zeros(len(points), dtype=bool)
    for ring in rings:
        near |= np.abs(ring.curve.signed_radial_margin(points)) < ring.clear + reach
    defect = _certain_defect(points, np.flatnonzero(near), domain, target_h)
    if defect is not None:
        raise MeshQualityError(defect)

    tri = Delaunay(points)
    if len(tri.coplanar):
        raise MeshQualityError("Delaunay dropped input points")
    triangles = _orient_ccw(points, tri.simplices.astype(np.int32))

    # drop triangles outside the domain (non-convex boundaries leave pockets
    # between the convex hull and the sampled curve); tag those inside D
    centroids = points[triangles].mean(axis=1)
    inside = domain.signed_radial_margin(centroids) > 0
    triangles, centroids = triangles[inside], centroids[inside]
    region = np.zeros(len(triangles), dtype=np.int8)
    for ring in rings[1:]:
        region[ring.curve.signed_radial_margin(centroids) > 0] = 1

    points, triangles, remap = _drop_orphans(points, triangles)
    ends = np.cumsum([len(ring.t) for ring in rings])
    (loop, t_omega), *iface = [(remap[end - len(ring.t):end], ring.t)
                               for end, ring in zip(ends, rings)]
    iface_loop, t_d = iface[0] if iface else (None, None)

    mesh = Mesh(vertices=points, triangles=triangles, region=region,
                boundary_loop=loop, boundary_params=t_omega,
                interface_loop=iface_loop, interface_params=t_d,
                domain=domain, inclusion=inclusion, target_h=target_h)
    _check_loops(mesh)

    min_angle = mesh.min_angle_deg()
    if min_angle < _MIN_ANGLE_DEG or mesh.h_max > 1.5 * target_h:
        raise MeshQualityError(
            f"min angle {min_angle:.2f} deg, h_max {mesh.h_max:.4f} (target {target_h})")
    return mesh


def _certain_defect(points, near, domain, target_h):
    """A quality defect that the Delaunay triangulation of points must contain.

    Triangulates only points[near].  A triangle there that fails the quality
    floor by a clear margin, has its centroid inside the domain and whose
    circumcircle holds none of the other points is, by the empty-circle lemma,
    in every Delaunay triangulation of points, so the full attempt would fail
    on it.  Returns its description, or None when no defect is certain.
    """
    triangles = near[Delaunay(points[near]).simplices]
    p = points[triangles]
    ell = _edge_lengths(points, triangles)
    longest = ell.max(axis=0)
    smallest = np.degrees(np.arccos(_corner_cosines(ell).max(axis=0)))
    centroids = p.mean(axis=1)
    bad = (longest > 1.5 * target_h * (1 + 1e-9)) | (smallest < _MIN_ANGLE_DEG - 1e-6)
    # centroid inside by more than the rounding of another corner order, and a
    # circumcircle no wider than the near band: junk spanning the subset's holes
    # is wider
    bad &= domain.signed_radial_margin(centroids) > 1e-9 * target_h
    center, radius = _circumcircles(p[bad])
    small = radius < _NEAR_PITCHES * _PITCH * target_h
    if not np.any(small):
        return None
    # the radius reaches all three corners, so a count of 3 is the corners alone
    counts = _count_within(points, center[small], radius[small] * (1 + 1e-7))
    certain = np.flatnonzero(bad)[small][counts == 3]
    if not len(certain):
        return None
    k = certain[0]
    return (f"min angle {smallest[k]:.2f} deg, longest edge {longest[k]:.4f} "
            f"(target {target_h}) at ({centroids[k, 0]:.4f}, {centroids[k, 1]:.4f}), "
            f"found before the full triangulation")


def _count_within(points, center, radius):
    """Number of points at squared distance d^2 <= r^2 from each centre, as
    cKDTree's query_ball_point counts them: the distance is tested for the
    points of the slab |x - c_x| <= r (widened past rounding) of the x-sorted
    points."""
    order = np.argsort(points[:, 0])
    xs = points[order, 0]
    reach = radius * (1 + 1e-6)
    lo = np.searchsorted(xs, center[:, 0] - reach, side="left")
    n = np.searchsorted(xs, center[:, 0] + reach, side="right") - lo
    owner = np.repeat(np.arange(len(center)), n)
    # entry k of circle c's slab is lo[c] + k in the sorted order
    k = np.arange(n.sum()) - (np.cumsum(n) - n)[owner]
    p = points[order[lo[owner] + k]]
    dx, dy = (p[:, k] - center[owner, k] for k in (0, 1))
    inside = dx * dx + dy * dy <= (radius ** 2)[owner]
    return np.bincount(owner[inside], minlength=len(center))


def _circumcircles(p):
    """Centres of the circumcircles of triangles p (T, 3, 2) and, as radius,
    the largest distance from the centre to a corner."""
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    d = 2.0 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    a2 = np.einsum("ij,ij->i", a, a)
    b2 = np.einsum("ij,ij->i", b, b)
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat triangle has none
        center = p[:, 0] + np.stack([b[:, 1] * a2 - a[:, 1] * b2,
                                     a[:, 0] * b2 - b[:, 0] * a2], axis=-1) / d[:, None]
    radius = np.hypot(*(p - center[:, None]).transpose(2, 0, 1)).max(axis=1)
    return center, radius


def _orient_ccw(points, triangles):
    p = points[triangles]
    det = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
           - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    flip = det < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return triangles


class EdgeTable(tuple):
    """(edges, tri_edges, counts) as edge_table() returns them; by_key holds
    the edge ids in increasing key order, the sorter of loop lookups."""


def edge_table(triangles):
    """Edges of a triangle array, numbered by first appearance.

    The sides of each triangle (a, b, c) are visited as (a, b), (b, c), (c, a),
    triangle by triangle, and each edge keeps the orientation of its first
    visit.  Returns the (E, 2) edges (of the triangles' dtype), the (T, 3)
    edge id of each side, and the number of triangles on each edge, as an
    EdgeTable; ids and counts are int32.
    """
    sides = np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=-1).reshape(-1, 2)
    # one unstable sort groups the sides by key into runs; the first side of
    # each run and its rank among the first sides then number the edges
    keys = _pair_keys(sides)
    order = np.argsort(keys).astype(np.int32)
    keys = keys[order]
    run_start = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    counts = np.diff(starts, append=len(keys)).astype(np.int32)
    first = np.minimum.reduceat(order, starts)
    is_first = np.zeros(len(sides), dtype=bool)
    is_first[first] = True
    rank = (np.cumsum(is_first, dtype=np.int32) - 1)[first]
    by_id = np.empty_like(counts)
    by_id[rank] = counts
    tri_edges = np.empty(len(sides), dtype=np.int32)
    tri_edges[order] = np.repeat(rank, counts)
    table = EdgeTable((np.compress(is_first, sides, axis=0), tri_edges.reshape(-1, 3), by_id))
    table.by_key = rank
    return table


def _pair_keys(pairs):
    """Orientation-free int64 key of each vertex pair."""
    a, b = pairs[:, 0], pairs[:, 1]
    return (np.minimum(a, b).astype(np.int64) << 32) | np.maximum(a, b)


def _drop_orphans(points, triangles):
    """The used points, and the triangles and the int32 old-to-new vertex map
    (-1 for a dropped point) in the new numbering."""
    used = np.bincount(triangles.ravel(), minlength=len(points)) > 0
    remap = np.where(used, np.cumsum(used, dtype=np.int32) - 1, -1)
    return np.compress(used, points, axis=0), remap[triangles], remap


def _loop_edge_ids(table, loop):
    """Id in an EdgeTable of each loop edge loop[i] -> loop[i+1], -1 where missing."""
    keys = _pair_keys(table[0])
    query = _pair_keys(np.stack([loop, np.roll(loop, -1)], axis=1))
    found = table.by_key[np.searchsorted(keys, query, sorter=table.by_key) % len(keys)]
    return np.where(keys[found] == query, found, -1)


def _check_loops(mesh):
    """The edges on one triangle must be exactly the edges of the boundary loop,
    and every edge of the interface loop must be a mesh edge."""
    counts = mesh.edge_table[2]
    ids = _loop_edge_ids(mesh.edge_table, mesh.boundary_loop)
    if (np.any(ids < 0) or np.any(counts[ids] != 1)
            or len(np.unique(ids)) != np.count_nonzero(counts == 1)):
        raise MeshQualityError("mesh boundary does not coincide with the sampled curve")
    if mesh.interface_loop is not None and np.any(
            _loop_edge_ids(mesh.edge_table, mesh.interface_loop) < 0):
        raise MeshQualityError("mesh misses an edge of the sampled inclusion curve")


def _circular_midpoint(t1, t2):
    d = (t2 - t1) % TWO_PI
    return np.where(d > math.pi, (t2 + (TWO_PI - d) / 2.0) % TWO_PI,
                    (t1 + d / 2.0) % TWO_PI)


def refine(mesh: Mesh) -> Mesh:
    """Uniform 1:4 red refinement with curve projection of loop-edge midpoints.

    The midpoint of edge e of edge_table(mesh.triangles) becomes vertex V + e;
    the refined mesh records mesh as its parent.
    """
    V = len(mesh.vertices)
    edges, tri_edges, _ = mesh.edge_table
    vertices = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[edges[:, 0]]
                                                + mesh.vertices[edges[:, 1]])])
    loop, loop_params = _split_loop(mesh.boundary_loop, mesh.boundary_params,
                                    mesh.edge_table, vertices, mesh.domain)
    iloop, iparams = None, None
    if mesh.interface_loop is not None:
        iloop, iparams = _split_loop(mesh.interface_loop, mesh.interface_params,
                                     mesh.edge_table, vertices, mesh.inclusion)
    a, b, c = mesh.triangles.T
    mab, mbc, mca = (V + tri_edges).T
    triangles = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca],
                         axis=1).reshape(-1, 3)
    return Mesh(vertices=vertices, triangles=triangles,
                region=np.repeat(mesh.region, 4),
                boundary_loop=loop, boundary_params=loop_params,
                interface_loop=iloop, interface_params=iparams,
                domain=mesh.domain, inclusion=mesh.inclusion,
                target_h=mesh.target_h / 2.0, parent=mesh)


def _split_loop(loop, params, table, vertices, curve):
    """Refined loop and its curve parameters: each loop edge gains its midpoint.

    The midpoint vertex moves onto the curve at the parameter midpoint (it stays
    the straight midpoint when curve is None).
    """
    edges = table[0]
    ids = _loop_edge_ids(table, loop)
    param_of = np.zeros(len(vertices))
    param_of[loop] = params
    tm = _circular_midpoint(param_of[edges[ids, 0]], param_of[edges[ids, 1]])
    mid = len(vertices) - len(edges) + ids
    if curve is not None:
        vertices[mid] = curve.point(tm)
    return np.stack([loop, mid], axis=1).ravel(), np.stack([params, tm], axis=1).ravel()


def validate_mesh(mesh: Mesh):
    """Check every structural invariant, the mesher's 20 degree angle floor
    among them; raises MeshQualityError on violation."""
    areas = mesh.triangle_areas()
    if np.any(areas <= 0):
        raise MeshQualityError("non-positive triangle area")
    edges, _, counts = mesh.edge_table
    if np.any(counts > 2):
        raise MeshQualityError("edge shared by more than two triangles")
    _check_loops(mesh)
    euler = len(mesh.vertices) - len(edges) + len(mesh.triangles)
    if euler != 1:
        raise MeshQualityError(f"Euler relation violated: V-E+T = {euler}")
    min_angle = mesh.min_angle_deg()
    if min_angle < _MIN_ANGLE_DEG:
        raise MeshQualityError(f"min angle {min_angle:.2f} below {_MIN_ANGLE_DEG}")
    if mesh.inclusion is not None:
        # margins to D of each vertex, read at the corners of every triangle,
        # and of the centroid of each inside-tagged triangle: an inside-tagged
        # triangle fails on any of these outside D, an outside-tagged one only
        # on a corner inside D
        curve = mesh.inclusion
        corner = curve.signed_radial_margin(mesh.vertices)[mesh.triangles]
        inside = mesh.region == 1
        centroid = curve.signed_radial_margin(mesh.vertices[mesh.triangles[inside]].mean(axis=1))
        if np.any(corner[inside] < -1e-9) or np.any(centroid < -1e-9):
            raise MeshQualityError("inside-tagged triangle leaks outside D")
        if np.any(corner[mesh.region == 0] > 1e-9):
            raise MeshQualityError("outside-tagged triangle straddles D")
    if mesh.domain is not None:
        onb = mesh.domain.signed_radial_margin(mesh.vertices[mesh.boundary_loop])
        if np.max(np.abs(onb)) > 1e-12 * max(1.0, float(np.abs(mesh.vertices).max())):
            raise MeshQualityError("boundary vertices are off the analytic curve")
        center = np.asarray(mesh.domain.center)
        p = mesh.vertices[mesh.boundary_loop]
        mid = 0.5 * (p + np.roll(p, -1, axis=0))
        if np.any(np.sum(mesh.boundary_normals * (mid - center), axis=1) <= 0):
            raise MeshQualityError("boundary normal points inward")
