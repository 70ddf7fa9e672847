"""serrinlab.csr calls scipy's compiled sparse kernels as scipy.sparse does:
every operation the program runs gives scipy's arrays, in scipy's entry order
and dtypes, on the matrices the program builds."""

import numpy as np
import pytest
import scipy.sparse as sp

from serrinlab import fem_core
from serrinlab.csr import CSR
from serrinlab.fem_core import element_sigma, normal_derivative, solve_two_phase, stiffness
from serrinlab.geometry import DomainSpec
from serrinlab.meshgen import generate, refine

from conftest import make_square_mesh, scipy_csr


def assert_same(ours, ref):
    """The CSR ours has the arrays, dtypes and shape of the scipy matrix ref."""
    assert isinstance(ours, CSR) and ours.shape == ref.shape
    for part in ("indptr", "indices", "data"):
        mine, theirs = getattr(ours, part), getattr(ref, part)
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)


@pytest.fixture(scope="module")
def inclusion_mesh():
    """The refined ellipse 1.2/1 mesh with a disk of radius 0.3."""
    return refine(generate(DomainSpec("ellipse", a=1.2, b=1.0),
                           DomainSpec("disk", radius=0.3), 0.05))


@pytest.fixture(scope="module", params=["inclusion", "square"])
def mesh(request, inclusion_mesh):
    # the square's four corners lie on one triangle each: starved patches
    return inclusion_mesh if request.param == "inclusion" else make_square_mesh()


def coo(mesh, rng):
    """Element-by-element triplets with random values, duplicates and all."""
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    return rows, cols, rng.standard_normal(len(rows))


class TestKernels:
    def test_from_coo_sums_duplicates_as_tocsr(self, mesh):
        n = len(mesh.vertices)
        rows, cols, values = coo(mesh, np.random.default_rng(0))
        assert_same(CSR.from_coo(rows, cols, values, (n, n)),
                    sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr())

    def test_program_matrices_built_as_scipy_builds_them(self, mesh):
        n = len(mesh.vertices)
        edges = mesh.edge_table[0]
        rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
        cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
        assert_same(mesh.adjacency,
                    sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)))
        area = mesh.triangle_areas()
        local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
        rows, cols, _ = coo(mesh, np.random.default_rng(0))
        vals = (local[None, :, :] * area[:, None, None]).ravel()
        assert_same(fem_core.mass_matrix(mesh),
                    sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr())

    def test_row_and_column_indexing(self, mesh):
        K = stiffness(mesh, element_sigma(mesh, 2.0))
        ref = scipy_csr(K)
        bnd, interior = mesh.boundary_loop, mesh.interior
        assert_same(K.rows(bnd), ref[bnd])
        Ki, ref_i = K.rows(interior), ref[interior]
        assert_same(Ki, ref_i)
        assert_same(Ki.columns(bnd), ref_i[:, bnd])
        assert_same(Ki.columns(interior), ref_i[:, interior].tocsr())

    def test_products_with_vectors(self, mesh):
        K = stiffness(mesh, element_sigma(mesh, 2.0))
        x = np.random.default_rng(1).standard_normal((len(mesh.vertices), 2))
        for v in (x[:, 0], x):
            y = K @ v
            assert y.dtype == np.float64 and np.array_equal(y, scipy_csr(K) @ v)

    def test_diagonal(self, mesh):
        K = stiffness(mesh, element_sigma(mesh, 2.0))
        assert np.array_equal(K.diagonal(), scipy_csr(K).diagonal())

    def test_two_ring_keeps_matmat_order(self, mesh):
        # the rows come out unsorted, in csr_matmat's order, which the patch
        # moments' reduceat sums read
        A = mesh.adjacency
        ring = A @ A
        assert_same(ring, scipy_csr(A) @ scipy_csr(A))
        assert any(np.any(np.diff(ring.indices[a:b]) < 0)
                   for a, b in zip(ring.indptr[:-1], ring.indptr[1:]))
        lo, hi = 5, 23
        assert_same(A.rows(np.arange(lo, hi)) @ A, scipy_csr(A)[lo:hi] @ scipy_csr(A))

    def test_starved_patches_added_as_scipy_adds(self, mesh):
        n, nt = len(mesh.vertices), len(mesh.triangles)
        rows, cols = mesh.triangles.ravel(), np.repeat(np.arange(nt), 3)
        ref = sp.csr_matrix((np.ones(3 * nt), (rows, cols)), shape=(n, nt))
        starved = np.diff(ref.indptr) < 3
        ref = ref + sp.diags(starved * 1.0) @ scipy_csr(mesh.adjacency) @ ref
        patches = mesh.gradient_patches
        assert np.array_equal(patches.indptr, ref.indptr)
        assert np.array_equal(patches.indices, ref.indices)
        if np.any(starved):
            patches_csr = CSR.from_coo(rows, cols, np.ones(3 * nt), (n, nt))
            s = np.flatnonzero(starved)
            D = CSR.from_coo(s, s, np.ones(len(s)), (n, n))
            assert_same(patches_csr + D @ mesh.adjacency @ patches_csr, ref)


class TestRefinedOperators:
    def test_prolongation_and_its_transpose(self, inclusion_mesh):
        fine = inclusion_mesh
        ref = scipy_csr(fine.prolongation())[fine.interior][:, fine.parent.interior].tocsr()
        P, R = fine.interior_prolongation
        assert_same(P, ref)
        assert_same(R, ref.T.tocsr())

    def test_galerkin_operator(self, inclusion_mesh):
        fine = inclusion_mesh
        _, Kii, _, _, _ = fem_core._torsion_system(fine, 2.0)
        P, R = fine.interior_prolongation
        coarse = R @ Kii @ P
        ref = (scipy_csr(R) @ scipy_csr(Kii) @ scipy_csr(P)).tocsr()
        assert_same(coarse, ref)
        assert_same(coarse.transpose(), ref.tocsc())


def test_boundary_mass_matrix_is_scipys(monkeypatch):
    """normal_derivative's cyclic tridiagonal boundary mass matrix has the CSC
    arrays scipy.sparse.diags builds and splu sorts."""
    factored = []
    splu = fem_core.splu
    monkeypatch.setattr(fem_core, "splu", lambda A, spec: factored.append(A) or splu(A, spec))
    mesh = generate(DomainSpec("ellipse", a=1.2, b=1.0), None, 0.05)
    normal_derivative(mesh, solve_two_phase(mesh, 2.0))
    (M,) = factored
    ell = mesh.boundary_edge_lengths()
    nb = len(ell)
    lumped, upper = ell + np.roll(ell, 1), ell / 6.0
    ref = sp.diags([lumped / 3.0, upper, upper, upper[-1:], upper[-1:]],
                   [0, 1, -1, nb - 1, -(nb - 1)], shape=(nb, nb), format="csc")
    ref.sum_duplicates()
    assert_same(M.transpose(), ref)
    assert_same(M, ref.tocsr())
