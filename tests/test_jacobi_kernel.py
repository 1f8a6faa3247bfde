"""Differential tests for the packed integer Jacobi kernel and the shared splittings.

``lie.jacobi_defect`` runs the Jacobi cyclic sum on Gaussian-integer
numerators over one common denominator, packed into one int per bracket
[e_r, e_c] with slots as wide as the bound 6 dim big^2 needs.  The
GaussianRational loop it replaced is kept below as the oracle; both must
return the same defect list: the same triples, in the same order, with the
same exact vectors.  The deterministic tests come first, so that a wrong
kernel fails one of them before a hypothesis test spends minutes shrinking.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from chernflat import cli, constructions
from chernflat.acs import ComplexSplitting, split
from chernflat.classify import _scrambled_copy, random_frame_scramble
from chernflat.constructions import catalog, from_holomorphic_constants
from chernflat.fileio import dumps_model
from chernflat.lie import JacobiError, LieAlgebra, _clean_brackets, _numerator_views, jacobi_defect
from chernflat.scalars import I, ONE, GaussianRational, SlotPacking, ZERO, clear_denominators
from oracles import random_two_step

CATALOG = [
    "abelian(4)",
    "centro1_model(1)",
    "centro1_model(2)",
    "complex_heisenberg_bicomplex",
    "dim4_model",
    "dim5_irreducible",
    "heisenberg(5)",
    "heisenberg3",
    "iwasawa_e_frame",
    "iwasawa_j3",
]


def _fraction_jacobi_defect(dim, brackets):
    """The GaussianRational (Fraction) loop the integer kernel replaced."""
    table = _clean_brackets(dim, brackets)

    def pair(i, j):
        if i < j:
            return table.get((i, j), {})
        return {k: -c for k, c in table.get((j, i), {}).items()}

    defects = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = {}
                for (a, b), c_idx in (((i, j), k), ((j, k), i), ((k, i), j)):
                    for r, c in pair(a, b).items():
                        for s, d in pair(r, c_idx).items():
                            cur = acc.get(s, ZERO) + c * d
                            if cur:
                                acc[s] = cur
                            else:
                                acc.pop(s, None)
                if acc:
                    vec = [ZERO] * dim
                    for s, v in acc.items():
                        vec[s] = v
                    defects.append(((i, j, k), tuple(vec)))
    return defects


def _max_bits(table) -> int:
    return max(
        max(abs(f.numerator).bit_length(), f.denominator.bit_length())
        for vec in table.values()
        for c in vec.values()
        for f in (c.re, c.im)
    )


def _complexified(g, acs) -> LieAlgebra:
    """The complexified algebra in the eigenframe of (g, J), over Q(i)."""
    s = split(g, acs)
    return LieAlgebra(s.dim, s.constants, field="Qi")


def _rescaled(g: LieAlgebra, scales) -> dict:
    """Brackets of g in the basis e'_i = scales[i] e_i: c_ij^k scales[i] scales[j] / scales[k]."""
    return {
        (i, j): {k: c * scales[i] * scales[j] / scales[k] for k, c in vec.items()}
        for (i, j), vec in g.brackets.items()
    }


def _tampered(table: dict, delta) -> dict:
    """A copy of table with delta added to the e_a coefficient of its first bracket [e_a, e_b]."""
    out = {key: dict(vec) for key, vec in table.items()}
    key = next(iter(out))
    out[key][key[0]] = out[key].get(key[0], ZERO) + delta
    return out


@lru_cache(maxsize=None)
def _small_algebras() -> tuple:
    out = [catalog(name).algebra for name in CATALOG]
    out += [random_two_step(random.Random(seed))[0] for seed in range(4)]
    for name in ("iwasawa_j3", "dim4_model"):
        entry = catalog(name)
        out.append(_complexified(entry.algebra, entry.acs))
    return tuple(out)


def _scrambled(name: str, seed: int) -> LieAlgebra:
    entry = catalog(name)
    g, _acs, _frame = random_frame_scramble(split(entry.algebra, entry.acs), random.Random(seed))
    return g


# center-one at m = 5 and dim4 at m = 4, the shapes the normal-form self-test rebuilds
SCRAMBLED = [("centro1_model(2)", 2), ("centro1_model(2)", 3), ("dim4_model", 0), ("dim4_model", 3)]


def _assert_same_report(dim, table, field):
    """The kernel and the oracle agree, and so does the constructor's error."""
    expected = _fraction_jacobi_defect(dim, table)
    assert jacobi_defect(dim, _numerator_views(dim, _clean_brackets(dim, table))) == expected
    if expected:
        with pytest.raises(JacobiError) as err:
            LieAlgebra(dim, table, field=field)
        assert err.value.defects == expected
        assert str(err.value) == str(JacobiError(expected))
    else:
        LieAlgebra(dim, table, field=field)
    return expected


def _table_at_the_width_bound(dim: int, big: int, s: int) -> tuple:
    """A Gaussian-integer table whose Jacobi sum at (0, 1, 2) is (2^(w-2) - i) e_s.

    w is the width of the stated bound, the least w with 2^(w-1) > 6 dim
    big^2, and every part of the table is at most big in absolute value.
    The t-th product p q goes to r = 3 + t // 3 and the (t mod 3)-th cyclic
    (a, b, c) of (0, 1, 2), as [e_a, e_b] += p e_r and [e_r, e_c] = q e_s,
    so the sum at (0, 1, 2) is the sum of the products, the target.
    Returns (table, w, target).
    """
    w = (6 * dim * big * big).bit_length() + 1
    target = 1 << (w - 2)
    n, rest = divmod(target, 2 * big * big)
    a, rest = divmod(rest, big)
    # (big + big i)(big - big i) = 2 big^2, then a big, then (rest - i) 1
    products = [(GaussianRational(big, big), GaussianRational(big, -big))] * n
    products += [(GaussianRational(a), GaussianRational(big)), (GaussianRational(rest, -1), ONE)]
    assert a <= big and len(products) <= 3 * (dim - 3)
    table: dict = {}
    # (a, b, c) = (0, 1, 2), (1, 2, 0) and (2, 0, 1), the last stored as -[e_0, e_2]
    cyclic = (((0, 1), 1, 2), ((1, 2), 1, 0), ((0, 2), -1, 1))
    for t, (p, q) in enumerate(products):
        pair, sign, c = cyclic[t % 3]
        r = 3 + t // 3
        table.setdefault(pair, {})[r] = sign * p
        table.setdefault((c, r), {})[s] = -q
    return table, w, target


def test_slots_next_to_the_width_bound_decode_exactly():
    # 48 big^2 lies just below 2^126, so the slot 2^(w-2) is half the bound;
    # two bits narrower, its slots 2^(w-2) and -1 would cancel to a packed 0
    dim, s = 8, 3
    big = isqrt((1 << 126) // 48)
    table, w, target = _table_at_the_width_bound(dim, big, s)
    defects = _assert_same_report(dim, table, "Qi")
    first = [ZERO] * dim
    first[s] = GaussianRational(target, -1)
    assert defects[0] == ((0, 1, 2), tuple(first))
    assert len(defects) > 1
    assert w == 127 and max(abs(f) for row in table.values() for c in row.values() for f in (c.re, c.im)) == big
    narrow = SlotPacking(1 << (w - 4))
    assert narrow.width == w - 2 and narrow.pack({s: (target, -1)}) == 0


@pytest.mark.parametrize("name, seed", SCRAMBLED, ids=[f"{n}-{s}" for n, s in SCRAMBLED])
def test_kernel_matches_the_oracle_on_scrambled_tables(name, seed):
    g = _scrambled(name, seed)
    assert 6 <= _max_bits(g.brackets) <= 19
    assert _assert_same_report(g.dim, g.brackets, "Q") == []
    defects = _assert_same_report(g.dim, _tampered(g.brackets, Fraction(1, 7)), "Q")
    assert defects


def test_rescaled_and_tampered_tables_cover_q_i_and_real_defects():
    g = catalog("centro1_model(1)").algebra
    scales = [GaussianRational(Fraction(1, 3), Fraction(2, 5))] * g.dim
    scales[0] = GaussianRational(Fraction(-3, 4), Fraction(1, 6))
    table = _rescaled(g, scales)
    values = [c for vec in table.values() for c in vec.values()]
    assert any(not c.is_real() for c in values)
    assert len({f.denominator for c in values for f in (c.re, c.im)}) > 2
    assert _assert_same_report(g.dim, table, "Qi") == []
    defects = _assert_same_report(g.dim, _tampered(table, GaussianRational(0, Fraction(1, 2))), "Qi")
    assert defects and any(not c.is_real() for _t, vec in defects for c in vec)


_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
_nonzero_gaussians = st.builds(GaussianRational, _rationals, _rationals).filter(bool)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_oracle_on_rescaled_q_i_tables(data):
    g = data.draw(st.sampled_from(_small_algebras()))
    scales = data.draw(st.lists(_nonzero_gaussians, min_size=g.dim, max_size=g.dim))
    table = _rescaled(g, scales)
    if data.draw(st.booleans()) and table:
        table = _tampered(table, data.draw(_nonzero_gaussians))
    _assert_same_report(g.dim, table, "Qi")


@st.composite
def _wide_ints(draw):
    """An int of 40 to 70 bits, of either sign."""
    bits = draw(st.integers(40, 70))
    return draw(st.sampled_from((-1, 1))) * draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


_wide_gaussians = st.one_of(
    st.builds(GaussianRational, _wide_ints()),
    st.builds(GaussianRational, _wide_ints(), _wide_ints()),
)
_basis_scales = st.sampled_from([ONE, -ONE, I, -I, GaussianRational(1, 1), GaussianRational(2, -1)])
_tamperings = st.one_of(_wide_gaussians, st.sampled_from([GaussianRational(Fraction(1, 3)), GaussianRational(0, Fraction(-1, 3))]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_oracle_on_wide_tables(data):
    # parts of 40 to 70 bits and more, times a Jacobi-preserving rescaling,
    # so the packed slots are as wide as the width bound makes them
    g = data.draw(st.sampled_from(_small_algebras()))
    factor = data.draw(_wide_gaussians)
    scales = data.draw(st.lists(_basis_scales, min_size=g.dim, max_size=g.dim))
    table = {key: {k: factor * c for k, c in vec.items()} for key, vec in _rescaled(g, scales).items()}
    if data.draw(st.booleans()) and table:
        table = _tampered(table, data.draw(_tamperings))
    _assert_same_report(g.dim, table, "Qi")


def test_raw_tables_are_still_validated():
    # a raw table reaches the kernel only through the constructor, which validates it first
    with pytest.raises(ValueError, match=r"out of range for dimension 3"):
        LieAlgebra(3, {(0, 3): {2: 1}})
    with pytest.raises(ValueError, match=r"must satisfy i < j"):
        LieAlgebra(3, {(1, 0): {2: 1}})
    with pytest.raises(ValueError, match=r"target index 3 out of range"):
        LieAlgebra(3, {(0, 1): {3: 1}})
    g = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 0}})
    assert jacobi_defect(3, g.numerators()) == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.builds(GaussianRational, _rationals, _rationals), max_size=8))
def test_clear_denominators_gives_the_least_common_denominator(values):
    d, re, im = clear_denominators(values)
    assert d >= 1
    assert [GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im)] == values
    # d is least: no prime dividing d divides every numerator as well
    assert gcd(d, *re, *im) == 1


# -- one splitting per algebra in the normal-form self-test -----------------------


def _count_splittings(monkeypatch) -> list:
    calls = []
    original = ComplexSplitting.__init__

    def counted(self, g, acs):
        calls.append(g.dim)
        original(self, g, acs)

    monkeypatch.setattr(ComplexSplitting, "__init__", counted)
    return calls


@pytest.mark.parametrize("trials", [1, 3])
def test_self_test_splits_each_algebra_once(tmp_path, monkeypatch, capsys, trials):
    entry = catalog("dim4_model")
    path = tmp_path / "dim4.json"
    path.write_text(dumps_model(entry.algebra, entry.acs))
    calls = _count_splittings(monkeypatch)
    code = cli.main(["normal-form", str(path), "--trials", str(trials), "--seed", "4"])
    assert code == 0
    assert f"{trials} trials, seed 4, all matched" in capsys.readouterr().out
    assert len(calls) == 1 + trials


def _corrupted(original):
    """from_holomorphic_constants that realizes every constant doubled."""

    def realize(m, constants, check=True):
        doubled = {key: {k: 2 * c for k, c in vec.items()} for key, vec in constants.items()}
        return original(m, doubled, check)

    return realize


def test_self_test_round_trip_assertion_catches_a_corrupted_reconstruction(monkeypatch, capsys):
    entry = catalog("dim4_model")
    s = split(entry.algebra, entry.acs)
    s2, frame = _scrambled_copy(s.holomorphic(), random.Random(5))
    assert (s2.g, s2.acs, frame) == random_frame_scramble(s, random.Random(5))

    monkeypatch.setattr(constructions, "from_holomorphic_constants", _corrupted(from_holomorphic_constants))
    with pytest.raises(AssertionError, match="does not reproduce the requested constants"):
        _scrambled_copy(s.holomorphic(), random.Random(5))
    # the CLI reports the internal inconsistency with exit code 3
    assert cli.main(["normal-form", "@dim4_model", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "error[internal]: splitting does not reproduce the requested constants\n"
