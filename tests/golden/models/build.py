"""Write the model files of this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/models/build.py

Both models start from the catalog pair iwasawa_j3 and the dense rational P
that ``_seeded_pairs`` in ``tests/test_shared_primitives.py`` draws for seed 2:

- ``iwasawa_j3_dense_p.json`` carries the whole pair by P: the bracket
  [x, y]' = P [P^-1 x, P^-1 y] and the structure P J P^-1.  It is isomorphic
  to iwasawa_j3, so every predicate holds, but J is dense;
- ``iwasawa_j3_conjugated.json`` is (g, P J P^-1), the pair "seed2-conjugated"
  of that test, on which both flatness predicates fail.
"""

import pathlib
import random

from chernflat.acs import AlmostComplexStructure
from chernflat.constructions import catalog
from chernflat.fileio import dump_model
from chernflat.lie import LieAlgebra
from chernflat.linalg import inverse, random_invertible

HERE = pathlib.Path(__file__).resolve().parent
SEED = 2


def carried(g: LieAlgebra, p, p_inv) -> LieAlgebra:
    """The algebra with bracket [x, y]' = P [P^-1 x, P^-1 y]."""
    cols = [p_inv.column(i) for i in range(g.dim)]
    table = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            image = p.matvec(g.bracket(cols[i], cols[j]))
            table[(i, j)] = {k: c for k, c in enumerate(image) if c}
    return LieAlgebra(g.dim, table)


if __name__ == "__main__":
    entry = catalog("iwasawa_j3")
    g, acs = entry.algebra, entry.acs
    p = random_invertible(g.dim, random.Random(1000 + SEED), complex_entries=False, span=1)
    p_inv = inverse(p)
    j = AlmostComplexStructure(p * acs.j * p_inv)
    dump_model(str(HERE / "iwasawa_j3_dense_p.json"), carried(g, p, p_inv), j)
    dump_model(str(HERE / "iwasawa_j3_conjugated.json"), g, j)
