import numpy as np
import pytest

from serrinlab.geometry import DomainSpec
from serrinlab.meshgen import Mesh, generate


@pytest.fixture(scope="session")
def disk_spec():
    return DomainSpec("disk", radius=1.0)


@pytest.fixture(scope="session")
def ellipse_spec():
    return DomainSpec("ellipse", a=1.2, b=1.0)


@pytest.fixture(scope="session")
def disk_mesh(disk_spec):
    return generate(disk_spec, None, 0.1)


@pytest.fixture(scope="session")
def concentric_mesh(disk_spec):
    return generate(disk_spec, DomainSpec("disk", radius=0.5), 0.1)


@pytest.fixture(scope="session")
def ellipse_mesh(ellipse_spec):
    return generate(ellipse_spec, None, 0.05)


@pytest.fixture(scope="session")
def star_inclusion_mesh(disk_spec):
    return generate(disk_spec, DomainSpec("star", r0=0.3, eps=0.1, k=3), 0.05)


def make_square_mesh(n=16, side=2.0):
    """Structured criss-cross mesh of the square [-s/2, s/2]^2 (disc topology)."""
    half = side / 2.0
    xs = np.linspace(-half, half, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.extend([(a, b, c), (a, c, d)])
    triangles = np.array(tris, dtype=np.int64)

    loop = []
    for i in range(n):
        loop.append(vid(i, 0))
    for j in range(n):
        loop.append(vid(n, j))
    for i in range(n, 0, -1):
        loop.append(vid(i, n))
    for j in range(n, 0, -1):
        loop.append(vid(0, j))
    loop = np.array(loop, dtype=np.int64)
    params = 2.0 * np.pi * np.arange(len(loop)) / len(loop)
    return Mesh(vertices=vertices, triangles=triangles,
                region=np.zeros(len(triangles), dtype=np.int8),
                boundary_loop=loop, boundary_params=params, interface_loop=None,
                interface_params=None, domain=None, inclusion=None,
                target_h=side / n)
