"""Write the model files of this directory.

Run from the repository root:

    PYTHONPATH=src:tests python tests/golden/models/build.py

Two models start from the catalog pair iwasawa_j3 and the dense rational P
that ``_seeded_pairs`` in ``tests/test_shared_primitives.py`` draws for seed 2:

- ``iwasawa_j3_dense_p.json`` carries the whole pair by P: the bracket
  [x, y]' = P [P^-1 x, P^-1 y] and the structure P J P^-1.  It is isomorphic
  to iwasawa_j3, so every predicate holds, but J is dense;
- ``iwasawa_j3_conjugated.json`` is (g, P J P^-1), the pair "seed2-conjugated"
  of that test, on which both flatness predicates fail.

``dim4_model_dense_p.json`` carries the 8-dimensional pair dim4_model by a
dense P drawn the same way, so its dense J satisfies J^2 = -I.  Two more
files pin the rejection of a J with J^2 != -I (``error[j-square]``):

- ``heisenberg3_odd_j.json``: a 3 x 3 J over heisenberg3.  No rational J of
  odd size squares to -I, since det(J)^2 = (-1)^n;
- ``h3_plus_r_tampered_j.json``: the standard 4 x 4 J over heisenberg3 + R
  with one entry changed.  No real 4 x 4 J can miss -I in exactly one entry
  of J^2 (J commutes with J^2), so the pin changes one entry of J instead.
"""

import json
import pathlib
import random

from chernflat.acs import AlmostComplexStructure
from chernflat.constructions import catalog
from chernflat.fileio import dumps_model, model_object
from chernflat.lie import LieAlgebra
from chernflat.linalg import inverse, random_invertible
from oracles import bracket, matvec

HERE = pathlib.Path(__file__).resolve().parent
SEED = 2


def carried(g: LieAlgebra, p, p_inv) -> LieAlgebra:
    """The algebra with bracket [x, y]' = P [P^-1 x, P^-1 y]."""
    cols = [p_inv.column(i) for i in range(g.dim)]
    table = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            image = matvec(p, bracket(g, cols[i], cols[j]))
            table[(i, j)] = {k: c for k, c in enumerate(image) if c}
    return LieAlgebra(g.dim, table)


def dense_p(g: LieAlgebra):
    """The dense rational P of seed SEED in dimension g.dim, and its inverse."""
    p = random_invertible(g.dim, random.Random(1000 + SEED), complex_entries=False, span=1)
    return p, inverse(p)


def dump(name: str, g: LieAlgebra, j: AlmostComplexStructure) -> None:
    (HERE / name).write_text(dumps_model(g, j), encoding="utf-8")


def dump_raw_j(name: str, g: LieAlgebra, rows) -> None:
    """Write g with the J cells rows as they stand, unchecked."""
    obj = model_object(g)
    obj["J"] = rows
    (HERE / name).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    entry = catalog("iwasawa_j3")
    g, acs = entry.algebra, entry.acs
    p, p_inv = dense_p(g)
    j = AlmostComplexStructure(p * acs.j * p_inv)
    dump("iwasawa_j3_dense_p.json", carried(g, p, p_inv), j)
    dump("iwasawa_j3_conjugated.json", g, j)

    entry = catalog("dim4_model")
    p, p_inv = dense_p(entry.algebra)
    j = AlmostComplexStructure(p * entry.acs.j * p_inv)
    dump("dim4_model_dense_p.json", carried(entry.algebra, p, p_inv), j)

    odd_j = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]
    dump_raw_j("heisenberg3_odd_j.json", catalog("heisenberg3").algebra, odd_j)

    h3_plus_r = LieAlgebra(4, {(0, 1): {2: 1}})
    # the standard J (e_k -> e_{k+2}) with the entry J_01 = 1/2 added
    tampered = [["0", "1/2", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    dump_raw_j("h3_plus_r_tampered_j.json", h3_plus_r, tampered)
