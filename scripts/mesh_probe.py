#!/usr/bin/env python3
"""Fingerprint the mesher over a fixed grid of 140 (domain, inclusion, h) cases.

Prints one line per case: its label, then either the MeshQualityError text of
generate or one sha1 over the generated mesh, its refinement and how they are
checked: the arrays of both meshes (vertices, triangles, region, both loops
and their curve parameters), both edge tables, and the outcome of
validate_mesh on the refined mesh.  Run it in two checkouts and `diff` the
outputs: equal output means generate, refine, edge_table and validate_mesh
give bit-identical results and fail identically.  Takes no options; runs in
about 13 s in one process.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from serrinlab.errors import MeshQualityError  # noqa: E402
from serrinlab.geometry import DomainSpec, InclusionSpec  # noqa: E402
from serrinlab.meshgen import generate, refine, validate_mesh  # noqa: E402

DOMAINS = [
    ("disk", DomainSpec("disk", radius=1.0)),
    *((f"ellipse-{a}", DomainSpec("ellipse", a=a, b=1.0)) for a in (1.1, 1.2, 1.3, 1.5)),
    ("star-0.1-3", DomainSpec("star", r0=1.0, eps=0.1, k=3)),
    ("star-0.2-5", DomainSpec("star", r0=1.0, eps=0.2, k=5)),
]
INCLUSIONS = [
    ("none", None),
    ("disk-0.3", InclusionSpec("disk", radius=0.3)),
    ("ellipse-0.4x0.3", InclusionSpec("ellipse", a=0.4, b=0.3)),
    ("disk-0.25@(0.3,0.2)", InclusionSpec("disk", center=(0.3, 0.2), radius=0.25)),
]
TARGET_H = (0.05, 0.04, 0.03, 0.025, 0.02)
CASES = [(f"{dname} {iname} h={h}", domain, inclusion, h)
         for dname, domain in DOMAINS for iname, inclusion in INCLUSIONS
         for h in TARGET_H]


def fingerprint(mesh):
    """sha1 over every array that defines the mesh and refine(mesh), the edge
    tables of both, and the outcome of validate_mesh(refine(mesh))."""
    fine = refine(mesh)
    try:
        validate_mesh(fine)
        outcome = "ok"
    except MeshQualityError as exc:
        outcome = str(exc)
    sha = hashlib.sha1()
    for m in (mesh, fine):
        for arr in (m.vertices, m.triangles, m.region, m.boundary_loop, m.boundary_params,
                    m.interface_loop, m.interface_params, *m.edge_table):
            if arr is not None:
                sha.update(np.ascontiguousarray(arr).tobytes())
    sha.update(outcome.encode())
    return sha.hexdigest()


def probe(domain, inclusion, target_h):
    try:
        return fingerprint(generate(domain, inclusion, target_h))
    except MeshQualityError as exc:
        return f"MeshQualityError: {exc}"


def main():
    for label, domain, inclusion, target_h in CASES:
        print(f"{label}: {probe(domain, inclusion, target_h)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
