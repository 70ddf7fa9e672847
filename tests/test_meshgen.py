import importlib.util
import math
import pickle
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial import Delaunay, cKDTree

from serrinlab import meshgen
from serrinlab.errors import MeshQualityError, ValidationError
from serrinlab.geometry import TWO_PI, DomainSpec
from serrinlab.meshgen import (
    _OFFSETS,
    Mesh,
    _hex_lattice,
    _orient_ccw,
    edge_table,
    generate,
    refine,
    validate_mesh,
)

from conftest import make_square_mesh, scipy_csr

PROBE = Path(__file__).resolve().parents[1] / "scripts" / "mesh_probe.py"


def inside_area(mesh):
    """Area of the elements tagged inside D."""
    return float(mesh.triangle_areas()[mesh.region == 1].sum())


def _circular_midpoint(t1, t2):
    d = (t2 - t1) % TWO_PI
    if d > math.pi:
        return (t2 + (TWO_PI - d) / 2.0) % TWO_PI
    return (t1 + d / 2.0) % TWO_PI


def reference_hex_lattice(center, extent, pitch, offset):
    """Row-by-row loop over the lattice points, for comparison."""
    dy = pitch * math.sqrt(3.0) / 2.0
    jmax = int(math.ceil(extent / dy)) + 1
    imax = int(math.ceil(extent / pitch)) + 2
    pts = []
    for j in range(-jmax, jmax + 1):
        y = center[1] + offset[1] * pitch + j * dy
        xoff = 0.5 * pitch if (j % 2) else 0.0
        for i in range(-imax, imax + 1):
            pts.append((center[0] + offset[0] * pitch + xoff + i * pitch, y))
    return np.array(pts)


def reference_refine(mesh):
    """Per-triangle 1:4 refinement with a dict of midpoints, for comparison.

    Returns (vertices, triangles, region, boundary_loop, boundary_params,
    interface_loop, interface_params).
    """
    V = len(mesh.vertices)
    # refine keeps the index width of its mesh: int32 on a generated mesh
    index = mesh.triangles.dtype
    param_omega = dict(zip(mesh.boundary_loop.tolist(), mesh.boundary_params.tolist()))
    param_iface = (dict(zip(mesh.interface_loop.tolist(), mesh.interface_params.tolist()))
                   if mesh.interface_loop is not None else {})

    def loop_edges(loop):
        return {frozenset((int(loop[i]), int(loop[(i + 1) % len(loop)])))
                for i in range(len(loop))}

    bnd_edges = loop_edges(mesh.boundary_loop)
    ifc_edges = loop_edges(mesh.interface_loop) if mesh.interface_loop is not None else set()
    curve_d = mesh.inclusion
    midpoint_of = {}
    new_param = {}

    def midpoint(iv, jv):
        e = frozenset((int(iv), int(jv)))
        if e in midpoint_of:
            return midpoint_of[e]
        idx = V + len(midpoint_of)
        p = 0.5 * (mesh.vertices[int(iv)] + mesh.vertices[int(jv)])
        if e in bnd_edges:
            tm = _circular_midpoint(param_omega[int(iv)], param_omega[int(jv)])
            if mesh.domain is not None:
                p = mesh.domain.point(tm)
            new_param[idx] = tm
        elif e in ifc_edges:
            tm = _circular_midpoint(param_iface[int(iv)], param_iface[int(jv)])
            p = curve_d.point(tm)
            new_param[idx] = tm
        midpoint_of[e] = (idx, p)
        return midpoint_of[e]

    tris, regions = [], []
    for t, (a, b, c) in enumerate(mesh.triangles):
        mab, mbc, mca = midpoint(a, b)[0], midpoint(b, c)[0], midpoint(c, a)[0]
        tris.extend([(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)])
        regions.extend([mesh.region[t]] * 4)
    mids = sorted(midpoint_of.values(), key=lambda kv: kv[0])
    vertices = np.vstack([mesh.vertices, np.array([p for _, p in mids])])

    def split(loop, params):
        if loop is None:
            return None, None
        out, out_params = [], []
        for i in range(len(loop)):
            a, b = int(loop[i]), int(loop[(i + 1) % len(loop)])
            m = midpoint_of[frozenset((a, b))][0]
            out.extend([a, m])
            out_params.extend([params[i], new_param[m]])
        return np.array(out, dtype=index), np.array(out_params)

    return (vertices, np.array(tris, dtype=index), np.array(regions, dtype=np.int8),
            *split(mesh.boundary_loop, mesh.boundary_params),
            *split(mesh.interface_loop, mesh.interface_params))


class TestGenerate:
    def test_boundary_exactness_and_quality(self, disk_spec, disk_mesh):
        validate_mesh(disk_mesh)
        onb = np.abs(disk_spec.signed_radial_margin(
            disk_mesh.vertices[disk_mesh.boundary_loop]))
        assert onb.max() < 1e-12
        assert disk_mesh.min_angle_deg() >= 20.0
        assert disk_mesh.h_max <= 1.5 * 0.1

    def test_min_angle_is_the_smallest_of_three_arccos(self):
        # one arccos of the largest corner cosine against the smallest of the
        # 3T corner angles, on the generated and refined meshes of the cases
        # of scripts/mesh_probe.py at its two largest target_h
        spec = importlib.util.spec_from_file_location("mesh_probe", PROBE)
        probe = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(probe)
        checked = 0
        for _, domain, inclusion, target_h in probe.CASES:
            if target_h < 0.04:
                continue
            try:
                mesh = generate(domain, inclusion, target_h)
            except MeshQualityError:
                continue
            for m in (mesh, refine(mesh)):
                a, b, c = meshgen._edge_lengths(m.vertices, m.triangles)
                three = min(float(np.degrees(np.arccos(np.clip(
                    (s1 ** 2 + s2 ** 2 - opp ** 2) / (2 * s1 * s2), -1.0, 1.0))).min())
                    for opp, s1, s2 in ((b, c, a), (c, a, b), (a, b, c)))
                assert m.min_angle_deg() == three
                checked += 1
        assert checked >= 40

    def test_inclusion_area_convergence(self, concentric_mesh):
        validate_mesh(concentric_mesh)
        assert abs(inside_area(concentric_mesh) - math.pi / 4) <= 2 * 0.1 ** 2

    def test_degenerate_target_h_rejected(self, disk_spec):
        with pytest.raises(ValidationError):
            generate(disk_spec, None, 0.0)

    def test_none_spec_is_not_an_inclusion(self, disk_spec):
        # no inclusion is None; the config decoder reads {"kind": "none"} as
        # None, and a curve of kind "none" does not exist
        with pytest.raises(ValidationError, match="^kind: unknown kind 'none'"):
            generate(disk_spec, DomainSpec("none"), 0.1)

    def test_euler_relation(self, concentric_mesh):
        edges = set()
        for a, b, c in concentric_mesh.triangles:
            edges |= {frozenset((int(a), int(b))), frozenset((int(b), int(c))),
                      frozenset((int(c), int(a)))}
        euler = (len(concentric_mesh.vertices) - len(edges)
                 + len(concentric_mesh.triangles))
        assert euler == 1

    def test_normals_outward(self, disk_mesh):
        p = disk_mesh.vertices[disk_mesh.boundary_loop]
        mids = 0.5 * (p + np.roll(p, -1, axis=0))
        normals = disk_mesh.boundary_normals
        np.testing.assert_allclose(np.hypot(*normals.T), 1.0, atol=1e-12)
        assert np.all((normals * mids).sum(axis=1) > 0)

    def test_deterministic(self, disk_spec):
        inc = DomainSpec("disk", radius=0.5)
        m1 = generate(disk_spec, inc, 0.1)
        m2 = generate(disk_spec, inc, 0.1)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)
        assert np.array_equal(m1.region, m2.region)

    @pytest.mark.parametrize("center,extent,pitch", [((0.0, 0.0), 1.3, 0.025),
                                                     ((0.3, -0.2), 1.05, 0.0375),
                                                     ((-1.0, 2.5), 0.4, 0.1)])
    @pytest.mark.parametrize("offset", [(0.0, 0.0), (0.5, 0.0), (0.25, 0.433),
                                        (0.37, 0.19)])
    def test_hex_lattice_matches_loop(self, center, extent, pitch, offset):
        got = _hex_lattice(center, extent, pitch, offset)
        assert np.array_equal(got, reference_hex_lattice(center, extent, pitch, offset))

    def test_failure_names_every_offset(self):
        with pytest.raises(MeshQualityError) as err:
            generate(DomainSpec("ellipse", a=1.3, b=1.0), None, 0.03)
        reasons = str(err.value).split(": ", 1)[1].split("; ")
        assert [r.split(":")[0] for r in reasons] == [f"offset {o}" for o in _OFFSETS]

    def test_star_and_offcenter_inclusion(self):
        star = DomainSpec("star", r0=1.0, eps=0.08, k=3)
        m = generate(star, None, 0.05)
        validate_mesh(m)
        m2 = generate(DomainSpec("ellipse", a=1.2, b=1.0),
                      DomainSpec("disk", center=(0.3, 0.1), radius=0.2), 0.06)
        validate_mesh(m2)


ELLIPSE_12 = DomainSpec("ellipse", a=1.2, b=1.0)
ELLIPSE_13 = DomainSpec("ellipse", a=1.3, b=1.0)
# (domain, inclusion, target_h): the first passes on the first lattice offset
# although its near-curve triangulation holds triangles below the quality
# floor (whose circumcircles hold other points), the next two need a second
# offset, the last three fail on every offset
EARLY_CASES = [
    (ELLIPSE_12, DomainSpec("disk", radius=0.3), 0.1),
    (ELLIPSE_12, None, 0.025),
    (ELLIPSE_12, DomainSpec("disk", radius=0.3), 0.025),
    (ELLIPSE_13, None, 0.03),
    (DomainSpec("disk", radius=1.0), DomainSpec("ellipse", a=0.4, b=0.3), 0.03),
    (DomainSpec("star", r0=1.0, eps=0.2, k=5), None, 0.05),
]


def _generate_bytes(domain, inclusion, target_h):
    """Every array of the generated mesh as bytes, or None when generation fails."""
    try:
        mesh = generate(domain, inclusion, target_h)
    except MeshQualityError:
        return None
    arrays = [mesh.vertices, mesh.triangles, mesh.region, mesh.boundary_loop,
              mesh.boundary_params, mesh.interface_loop, mesh.interface_params]
    return [None if a is None else a.tobytes() for a in arrays]


class TestEarlyRejection:
    def test_meshes_identical_without_the_check(self, monkeypatch):
        shipped = [_generate_bytes(*case) for case in EARLY_CASES]
        monkeypatch.setattr(meshgen, "_certain_defect", lambda *args: None)
        unchecked = [_generate_bytes(*case) for case in EARLY_CASES]
        assert [m is None for m in shipped] == [False, False, False, True, True, True]
        assert shipped == unchecked

    @pytest.mark.parametrize("domain,target_h,full", [(ELLIPSE_13, 0.03, 0),
                                                      (ELLIPSE_12, 0.025, 1)])
    def test_full_triangulations(self, monkeypatch, domain, target_h, full):
        """A rejected offset never triangulates the whole point set."""
        checked, calls = [], []
        certain_defect, delaunay = meshgen._certain_defect, meshgen.Delaunay
        monkeypatch.setattr(meshgen, "_certain_defect",
                            lambda points, *a: checked.append(points)
                            or certain_defect(points, *a))
        monkeypatch.setattr(meshgen, "Delaunay",
                            lambda points: calls.append(points) or delaunay(points))
        try:
            generate(domain, None, target_h)
        except MeshQualityError:
            pass
        assert sum(any(p is q for q in checked) for p in calls) == full

    PITCH = meshgen._PITCH * 0.1  # at target_h 0.1

    def _long_edge(self, with_far_point):
        # corners 0-2 form the near subset, a right triangle whose hypotenuse,
        # 1.9 pitches, is its longest edge and exceeds 1.5 target_h (1.76
        # pitches); its circumcircle, centred on the hypotenuse's midpoint, has
        # radius 0.95 pitch, under the 1-pitch cap; point 3 lies inside that
        # circle but not in the subset
        points = self.PITCH * np.array([[0.0, 0.0], [1.9, 0.0], [0.95, 0.95],
                                        [0.95, -0.5]])
        if not with_far_point:
            points = points[:3]
        return meshgen._certain_defect(points, np.arange(3),
                                       DomainSpec("disk", radius=1.0), 0.1)

    def test_counts_match_kdtree_on_every_early_case(self, monkeypatch):
        """The circle counts are cKDTree's query_ball_point counts on every
        call the early cases make."""
        count_within, calls = meshgen._count_within, []
        monkeypatch.setattr(meshgen, "_count_within",
                            lambda *a: calls.append(a) or count_within(*a))
        for case in EARLY_CASES:
            _generate_bytes(*case)
        assert len(calls) >= len(EARLY_CASES)
        for points, center, radius in calls:
            ref = cKDTree(points).query_ball_point(center, radius, return_length=True)
            assert np.array_equal(count_within(points, center, radius), ref)

    def test_counts_include_points_on_the_circle(self):
        # lattice points at exactly the radius, and in the slab but outside
        g = np.arange(-4, 5.0)
        points = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        center = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, -2.0], [4.0, 4.0], [9.0, 0.0]])
        radius = np.array([1.0, 0.5 * math.sqrt(2.0), 2.0, 3.0, 0.5])
        ref = cKDTree(points).query_ball_point(center, radius, return_length=True)
        assert np.array_equal(meshgen._count_within(points, center, radius), ref)
        assert ref.tolist() == [5, 4, 13, 11, 0]

    def test_defect_with_a_point_in_its_circumcircle_is_not_reported(self):
        assert self._long_edge(with_far_point=True) is None

    def test_defect_with_an_empty_circumcircle_is_reported(self):
        assert f"longest edge {1.9 * self.PITCH:.4f}" in self._long_edge(with_far_point=False)


@pytest.mark.parametrize("inclusion,perimeters", [(None, 1),
                                                  (DomainSpec("disk", radius=0.3), 2)])
def test_each_curve_sampled_once_per_generate(monkeypatch, inclusion, perimeters):
    """Both cases take two attempts; the retry re-lays only the lattice."""
    attempts, calls = [], []
    generate_once, perimeter = meshgen._generate_once, meshgen.exact_perimeter
    monkeypatch.setattr(meshgen, "_generate_once",
                        lambda *a: attempts.append(a) or generate_once(*a))
    monkeypatch.setattr(meshgen, "exact_perimeter",
                        lambda spec: calls.append(spec) or perimeter(spec))
    generate(ELLIPSE_12, inclusion, 0.025)
    assert len(attempts) == 2 and len(calls) == perimeters


class TestRefine:
    def test_triangle_count_times_four(self, concentric_mesh):
        fine = refine(concentric_mesh)
        assert len(fine.triangles) == 4 * len(concentric_mesh.triangles)

    def test_boundary_projection(self, disk_spec, disk_mesh):
        fine = refine(disk_mesh)
        onb = np.abs(disk_spec.signed_radial_margin(
            fine.vertices[fine.boundary_loop]))
        assert onb.max() < 1e-12

    def test_inclusion_area_error_drops_4x(self, concentric_mesh):
        fine = refine(concentric_mesh)
        validate_mesh(fine)
        e0 = abs(inside_area(concentric_mesh) - math.pi / 4)
        e1 = abs(inside_area(fine) - math.pi / 4)
        assert 3.5 <= e0 / e1 <= 4.5

    def test_h_max_halves(self, concentric_mesh):
        fine = refine(concentric_mesh)
        ratio = concentric_mesh.h_max / fine.h_max
        assert abs(ratio - 2.0) <= 0.2

    @pytest.mark.parametrize("name", ["disk_mesh", "concentric_mesh", "ellipse_mesh"])
    def test_h_max_is_longest_side(self, name, request):
        # the longest edge of the edge table is the longest side of any
        # triangle, bit for bit, on a generated and on a refined mesh
        mesh = request.getfixturevalue(name)
        for m in (mesh, refine(mesh)):
            x, y = m.vertices[m.triangles].transpose(2, 1, 0)
            sides = np.hypot(np.roll(x, -1, axis=0) - x, np.roll(y, -1, axis=0) - y)
            assert m.h_max == float(sides.max())

    def test_tags_inherited(self, concentric_mesh):
        fine = refine(concentric_mesh)
        np.testing.assert_array_equal(fine.region,
                                      np.repeat(concentric_mesh.region, 4))

    @pytest.mark.parametrize("name", ["disk_mesh", "concentric_mesh", "ellipse_mesh",
                                      "star_inclusion_mesh", "square"])
    def test_matches_reference_refine(self, name, request):
        mesh = make_square_mesh() if name == "square" else request.getfixturevalue(name)
        fine = refine(mesh)
        validate_mesh(fine)
        got = (fine.vertices, fine.triangles, fine.region, fine.boundary_loop,
               fine.boundary_params, fine.interface_loop, fine.interface_params)
        for a, b in zip(got, reference_refine(mesh)):
            if b is None:
                assert a is None
            else:
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_records_parent(self, concentric_mesh):
        before = {k: v.copy() for k, v in vars(concentric_mesh).items()
                  if isinstance(v, np.ndarray)}
        fine = refine(concentric_mesh)
        assert fine.parent is concentric_mesh and concentric_mesh.parent is None
        assert refine(fine).parent is fine
        for k, v in before.items():
            np.testing.assert_array_equal(getattr(concentric_mesh, k), v)
        # the parent is no part of the repr
        orphan = replace(fine, parent=None)
        assert "parent" not in repr(fine)
        for k, v in vars(fine).items():
            if isinstance(v, np.ndarray):
                assert getattr(orphan, k) is v


def _undirected_edges(triangles):
    return {tuple(e) for e in np.sort(edge_table(triangles)[0], axis=1).tolist()}


def reference_edge_table(triangles):
    """edge_table numbered through np.unique's return_index, for comparison;
    the ids and counts are int32, the edges of the triangles' dtype."""
    sides = np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=-1).reshape(-1, 2)
    pairs = np.sort(sides, axis=1).astype(np.int64)
    _, first, inverse, counts = np.unique((pairs[:, 0] << 32) | pairs[:, 1],
                                          return_index=True, return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return (sides[first[order]], rank[inverse].reshape(-1, 3).astype(np.int32),
            counts[order].astype(np.int32))


def reference_loop_edge_ids(triangles, loop):
    """Edge id of each loop edge loop[i] -> loop[i+1] by a dict of vertex pairs."""
    ids = {frozenset(e): k for k, e in enumerate(edge_table(triangles)[0].tolist())}
    return [ids.get(frozenset((a, b)), -1) for a, b in zip(loop, loop[1:] + loop[:1])]


def reference_tag_check(mesh):
    """validate_mesh's region-tag checks on the margins of the three corners
    and the centroid of every triangle; the failing check's message or None."""
    p = mesh.vertices[mesh.triangles]
    p = np.concatenate([p, p.mean(axis=1, keepdims=True)], axis=1)
    m = mesh.inclusion.signed_radial_margin(p.reshape(-1, 2)).reshape(-1, 4)
    if np.any((mesh.region == 1) & np.any(m < -1e-9, axis=1)):
        return "inside-tagged triangle leaks outside D"
    if np.any((mesh.region == 0) & np.any(m > 1e-9, axis=1)
              & ~np.all(m[:, :3] <= 1e-9, axis=1)):
        return "outside-tagged triangle straddles D"
    return None


@st.composite
def triangle_arrays(draw):
    """int32 triangles, as generate makes them, with three distinct corners
    among a few vertices, so that edges repeat, in both orientations and on
    more than two triangles."""
    n = draw(st.integers(3, 10))
    corners = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    return np.array(draw(st.lists(corners, min_size=1, max_size=30)), dtype=np.int32)


class TestConnectivity:
    def test_edge_table_first_appearance(self):
        tris = np.array([[0, 1, 2], [2, 1, 3]])
        edges, tri_edges, counts = edge_table(tris)
        np.testing.assert_array_equal(edges, [[0, 1], [1, 2], [2, 0], [1, 3], [3, 2]])
        np.testing.assert_array_equal(tri_edges, [[0, 1, 2], [1, 3, 4]])
        np.testing.assert_array_equal(counts, [1, 2, 1, 1, 1])

    def test_missed_loop_edge_raises(self):
        # a rhombus whose Delaunay triangulation takes the short diagonal 1-3,
        # with the long diagonal 0-2 required as an interface loop edge
        points = np.array([[-1.0, 0.0], [0.0, -0.5], [1.0, 0.0], [0.0, 0.5]])
        tris = _orient_ccw(points, Delaunay(points).simplices.astype(np.int64))
        assert (0, 2) not in _undirected_edges(tris)
        mesh = Mesh(vertices=points, triangles=tris, region=np.zeros(2, dtype=np.int8),
                    boundary_loop=np.arange(4), boundary_params=np.zeros(4),
                    interface_loop=np.array([0, 2]), interface_params=np.zeros(2),
                    domain=None, inclusion=None, target_h=1.0)
        with pytest.raises(MeshQualityError, match="misses an edge of the sampled inclusion"):
            validate_mesh(mesh)
        validate_mesh(replace(mesh, interface_loop=None, interface_params=None))

    def test_topology_built_once_per_mesh(self, monkeypatch):
        from serrinlab.serrin_diagnostics import full_report

        attempts, tables = [], []
        generate_once, table = meshgen._generate_once, meshgen.edge_table
        monkeypatch.setattr(meshgen, "_generate_once",
                            lambda *a: attempts.append(a) or generate_once(*a))
        monkeypatch.setattr(meshgen, "edge_table",
                            lambda tris: tables.append(len(tris)) or table(tris))
        full_report(DomainSpec("ellipse", a=1.2, b=1.0), DomainSpec("disk", radius=0.3),
                    2.0, 0.1, refine_levels=1)
        # one table per triangulated attempt, one for the refined mesh
        assert len(attempts) >= 1 and len(tables) == len(attempts) + 1
        assert tables[-1] == 4 * tables[-2]

    def test_pickle_leaves_cached_topology_behind(self, concentric_mesh):
        # sweeps send meshes to pool workers; the cached topology stays home
        fine = refine(concentric_mesh)
        fine.adjacency, fine.interior
        copy = pickle.loads(pickle.dumps(fine))
        for mesh in (copy, copy.parent):
            assert not {"edge_table", "interior", "adjacency"} & set(vars(mesh))
        np.testing.assert_array_equal(copy.vertices, fine.vertices)
        np.testing.assert_array_equal(copy.interior, fine.interior)
        assert (scipy_csr(copy.adjacency) != scipy_csr(fine.adjacency)).nnz == 0
        for a, b in zip(copy.parent.edge_table, concentric_mesh.edge_table):
            np.testing.assert_array_equal(a, b)

    def test_topology_stays_int32_through_refine_and_pickle(self, ellipse_spec):
        # the CSR's index width, so no kernel or gather copies an index array down
        mesh = generate(ellipse_spec, DomainSpec("disk", radius=0.3), 0.1)
        fine = refine(mesh)
        copy = pickle.loads(pickle.dumps(fine))
        for m in (mesh, fine, copy, copy.parent):
            table = m.edge_table
            for a in (m.triangles, m.boundary_loop, m.interface_loop, *table, table.by_key,
                      m.interior, m.adjacency.indptr, m.adjacency.indices):
                assert a.dtype == np.int32
            assert m.adjacency.data.dtype == bool

    @given(triangle_arrays())
    @settings(max_examples=200, deadline=None)
    def test_edge_table_matches_unique_return_index(self, triangles):
        for got, want in zip(edge_table(triangles), reference_edge_table(triangles)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @given(triangle_arrays(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_loop_edge_ids_match_dict_lookup(self, triangles, data):
        table = edge_table(triangles)
        # vertex n is on no triangle, so its loop edges are missing
        n = int(triangles.max()) + 1
        loop = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=20))
        for walk in (loop, loop[::-1]):
            np.testing.assert_array_equal(
                meshgen._loop_edge_ids(table, np.array(walk, dtype=np.int64)),
                reference_loop_edge_ids(triangles, walk))
        # every edge, walked against its stored orientation
        edges = table[0]
        ids = meshgen._loop_edge_ids(table, edges[:, ::-1].ravel())
        np.testing.assert_array_equal(ids[::2], np.arange(len(edges)))
        np.testing.assert_array_equal(meshgen._loop_edge_ids(table, np.array([n, 0])),
                                      [-1, -1])

    @given(triangle_arrays(), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_drop_orphans_matches_unique(self, triangles, unused):
        V = int(triangles.max()) + 1 + unused
        points = np.arange(2.0 * V).reshape(V, 2)
        used = np.unique(triangles)
        remap = -np.ones(V, dtype=np.int32)
        remap[used] = np.arange(len(used))
        for got, want in zip(meshgen._drop_orphans(points, triangles),
                             (points[used], remap[triangles], remap)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @given(st.lists(st.integers(0, 24), min_size=1, max_size=25, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_interior_matches_setdiff(self, loop):
        square = make_square_mesh(n=4)
        mesh = replace(square, boundary_loop=np.array(loop, dtype=np.int64),
                       boundary_params=np.zeros(len(loop)))
        want = np.setdiff1d(np.arange(len(square.vertices)), mesh.boundary_loop).astype(np.int32)
        assert mesh.interior.dtype == want.dtype
        np.testing.assert_array_equal(mesh.interior, want)

    def test_validate_tag_checks_match_corner_and_centroid_margins(self, concentric_mesh):
        """Flip the tag of each triangle touching the interface in turn, and
        move interface vertices just off the curve (D is the disk 0.5)."""
        mesh = concentric_mesh
        touching = np.flatnonzero(np.isin(mesh.triangles, mesh.interface_loop).any(axis=1))
        cases = []
        for t in touching:
            region = mesh.region.copy()
            region[t] = 1 - region[t]
            cases.append(replace(mesh, region=region))
        for v in mesh.interface_loop[:8]:
            for scale in (1 - 1e-6, 1 + 1e-6):
                vertices = mesh.vertices.copy()
                vertices[v] *= scale
                cases.append(replace(mesh, vertices=vertices))
        outcomes = set()
        for mesh in cases:
            want = reference_tag_check(mesh)
            try:
                validate_mesh(mesh)
                got = None
            except MeshQualityError as exc:
                got = str(exc)
            assert got == want
            outcomes.add(got)
        assert outcomes == {"inside-tagged triangle leaks outside D",
                            "outside-tagged triangle straddles D"}

    def test_pickle_state_is_the_fields(self, concentric_mesh, monkeypatch):
        # a cache added to Mesh later stays out of pickles too
        extra = cached_property(lambda mesh: np.zeros(len(mesh.vertices)))
        extra.__set_name__(Mesh, "extra_cache")
        monkeypatch.setattr(Mesh, "extra_cache", extra, raising=False)
        cached = [k for k, v in vars(Mesh).items() if isinstance(v, cached_property)]
        refined_only = {"interior_prolongation"}
        assert {"edge_table", "interior", "adjacency", "element_geometry", "gradient_patches",
                "hessian_patches"} | refined_only \
            < set(cached)
        fine = refine(concentric_mesh)
        for mesh in (fine, concentric_mesh):
            for name in cached:
                if mesh.parent is not None or name not in refined_only:
                    getattr(mesh, name)
        copy = pickle.loads(pickle.dumps(fine))
        names = {f.name for f in fields(Mesh)}
        assert set(vars(copy)) == names and set(vars(copy.parent)) == names

    def test_validate_rejects_edge_on_three_triangles(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
        triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        loop = np.array([0, 3, 1, 4])
        mesh = Mesh(vertices=vertices, triangles=triangles,
                    region=np.zeros(3, dtype=np.int8), boundary_loop=loop,
                    boundary_params=np.zeros(4),
                    interface_loop=None, interface_params=None, domain=None,
                    inclusion=None, target_h=1.0)
        with pytest.raises(MeshQualityError, match="more than two"):
            validate_mesh(mesh)
