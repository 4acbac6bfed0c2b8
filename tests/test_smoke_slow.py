"""Large-instance smoke benchmark: the Ehrhart polynomial of the bases
polytope of the uniform matroid with n = 20, r = 3, computed by the
exact pipeline and checked against the closed form.

All tangent cones of a uniform bases polytope are images of one another
under coordinate permutations, so the expensive triangulation and
half-open decomposition are done once at a base vertex and transported
to the remaining vertices. Marked slow (documented budget: 90 minutes;
typically far less); excluded from the default run, opt in with
`pytest -m slow`.
"""

import time
from itertools import combinations

import pytest

from ehrmat.cones import (
    HalfOpenSimplicialCone, TangentCone, facet_normals_unimodular,
    half_open_decompose, pick_generic_y, triangulate_cone,
)
from ehrmat.exactmath import vec_sub
from ehrmat.genfun import (
    GenFun, affine_lattice_basis, to_working, unimodular_term,
)
from ehrmat.hstar import uniform_ehrhart
from ehrmat.specialize import ehrhart_polynomial

N, R = 20, 3
BUDGET_SECONDS = 90 * 60


def _vertex(b):
    return tuple(1 if i in b else 0 for i in range(1, N + 1))


@pytest.mark.slow
def test_u3_20_smoke():
    t0 = time.monotonic()
    base = tuple(range(1, R + 1))
    v0 = _vertex(base)
    vertices = [_vertex(b) for b in combinations(range(1, N + 1), R)]

    # rays at the base vertex: all single-swap neighbor directions
    rays0 = []
    for w in vertices:
        d = vec_sub(w, v0)
        if sorted(d) == [-1] + [0] * (N - 2) + [1]:
            rays0.append(d)
    assert len(rays0) == R * (N - R)

    basis = affine_lattice_basis(vertices)
    rays_work = [to_working(basis, r) for r in rays0]
    pieces = triangulate_cone(TangentCone((0,) * (N - 1), rays_work))
    cones_work = []
    for piece in pieces:
        rays = [rays_work[j] for j in piece]
        cones_work.append((None, rays, facet_normals_unimodular(rays)))
    y = pick_generic_y(
        [nrm for _, _, normals in cones_work for nrm in normals],
        rays=rays_work)
    decomposed = half_open_decompose(cones_work, y)

    # intern the 380 possible swap directions so transported terms share
    # ray tuples
    ray_pool = {}

    def intern(ray):
        return ray_pool.setdefault(ray, ray)

    base_templates = []
    for piece, hoc in zip(pieces, decomposed):
        base_templates.append(([rays0[j] for j in piece], hoc.open_flags))

    terms = []
    complement0 = [i for i in range(1, N + 1) if i not in base]
    for b in combinations(range(1, N + 1), R):
        # coordinate permutation sending the base vertex's support to b
        perm = {}
        for src, dst in zip(base, sorted(b)):
            perm[src] = dst
        rest = [i for i in range(1, N + 1) if i not in b]
        for src, dst in zip(complement0, rest):
            perm[src] = dst
        pos = {i: perm[i] - 1 for i in range(1, N + 1)}

        def transport(vec):
            out = [0] * N
            for i in range(N):
                out[pos[i + 1]] = vec[i]
            return intern(tuple(out))

        apex = _vertex(b)
        for rays_amb, flags in base_templates:
            cone = HalfOpenSimplicialCone(
                apex, [transport(r) for r in rays_amb], flags)
            terms.append(unimodular_term(cone))

    g = GenFun(terms, N, N - 1)
    poly = ehrhart_polynomial(g)
    assert poly == uniform_ehrhart(N, R)
    elapsed = time.monotonic() - t0
    assert elapsed < BUDGET_SECONDS
