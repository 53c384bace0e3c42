"""Hom calculus that only the tests use: random closed maps, the vector of a
hom family or chain map, and the evaluation and composition maps, each held
to an independent computation by the tests that import it."""

import random
from functools import reduce
from typing import Dict

from dgkit.complexes import ChainMap, Complex, HomLayout, TensorLayout, hom_complex
from dgkit.errors import ShapeError
from dgkit.fields import Field
from dgkit.instances import random_cocycle
from dgkit.matrix import Mat, kron, kron_product


def random_chain_map(rng: random.Random, src: Complex, tgt: Complex, degree: int = 0) -> ChainMap:
    """Random closed map src -> tgt of the given degree (possibly zero)."""
    h = hom_complex(src, tgt)
    v = random_cocycle(rng, h.complex, degree)
    if v is None:
        return ChainMap.zero_map(src, tgt, degree)
    return h.chainmap_from_cocycle(degree, v)


def vector_from_family(h: HomLayout, n: int, fam: Dict[int, Mat]) -> Mat:
    """The element of hom^n with the per-degree matrices ``fam``: each block
    of the column, read row-major; the inverse of ``family_from_vector``."""
    rows = [(0,)] * h.tensor.dim(n)
    for i, off, size in h.blocks(n):
        mat = fam.get(i)
        if mat is not None:
            if (mat.rows, mat.cols) != (h.target.dim(i + n), h.source.dim(i)):
                raise ShapeError(f"hom block at source degree {i} has shape {mat.rows}x{mat.cols}")
            rows[off:off + size] = [(v,) for row in mat.entries for v in row]
    return Mat._wrap(h.field, len(rows), 1, tuple(rows))


def vector_from_chainmap(h: HomLayout, f: ChainMap) -> Mat:
    return vector_from_family(h, f.degree, dict(f.components))


def trace_row(field: Field, n: int) -> Mat:
    """vec(1_n) as a row: the pairing sum_t u_t v_t of two n-vectors on kron(u, v)."""
    return Mat(field, 1, n * n, [[1 if t == u else 0 for t in range(n) for u in range(n)]])


def slot(h: HomLayout, n: int, i: int) -> Mat:
    """The coordinate projection of degree n onto its block of source degree i."""
    off, size = h.block_offset(n, i)
    return Mat.identity(h.field, h.tensor.dim(n)).take_rows(range(off, off + size))


def evaluation_map(h: HomLayout) -> ChainMap:
    """ev: Hom(c,d) tensor c -> d, phi tensor x |-> phi(x): on the hom block
    of source degree i, vec(phi) (x) x |-> kron(1, vec(1)^t)."""
    lay = TensorLayout([h.complex, h.source])
    field = h.field

    def block(combo):
        n, i = combo
        sdim = h.source.dim(i)
        ev = kron(Mat.identity(field, h.target.dim(n + i)), trace_row(field, sdim))
        return kron_product(ev, slot(h, n, i), Mat.identity(field, sdim))

    return lay.map_from_blocks(h.target, 0, block)


def composition_map(x: Complex, y: Complex, z: Complex) -> ChainMap:
    """Hom(y,z) tensor Hom(x,y) -> Hom(x,z), psi tensor phi |-> psi o phi:
    per source degree i of phi, vec(psi_{i+n}) (x) vec(phi_i) |->
    vec(psi_{i+n} phi_i) is kron(1_z, vec(1_y)^t, 1_x)."""
    hyz = hom_complex(y, z)
    hxy = hom_complex(x, y)
    hxz = hom_complex(x, z)
    lay = TensorLayout([hyz.complex, hxy.complex])
    field = lay.field

    def block(combo):
        m, n = combo
        terms = []
        for i, _, _ in hxy.blocks(n):
            zdim = z.dim(i + n + m)
            if zdim:
                comp = kron(Mat.identity(field, zdim),
                            kron(trace_row(field, y.dim(i + n)), Mat.identity(field, x.dim(i))))
                terms.append(kron_product(slot(hxz, m + n, i).transpose() @ comp, slot(hyz, m, i + n), slot(hxy, n, i)))
        return reduce(Mat.__add__, terms) if terms else None

    return lay.map_from_blocks(hxz.complex, 0, block)
