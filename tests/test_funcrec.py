import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catstats.errors import UsageError
from catstats.funcrec import (
    FuncRecSpec,
    RecTerm,
    builtin_families,
    builtin_spec,
    eval_full,
    eval_truncated,
    subst_matrix,
    verify_catalog,
)
from catstats import funcrec, truncated
from catstats.cli import EXIT_INTERNAL, main
from catstats.multipoly import IndexPoly, MultiPoly
from catstats.perms import catalan_list
from catstats.series import SeriesBasis
from taylor import taylor

CATALOG = [
    ("av123", "213"),
    ("av132", "12"),
    ("av132", "123"),
    ("av132", "132"),
    ("av132", "21"),
    ("av132", "213"),
    ("av132", "231"),
    ("av132", "312"),
    ("av132", "321"),
]


def test_catalog_contents():
    assert builtin_families() == CATALOG
    for family, statistic in CATALOG:
        spec = builtin_spec(family, statistic)
        assert spec.family == family
        assert spec.statistic == statistic
        assert spec.label == f"{family}:{statistic}"
        assert len(spec.variables) == len(spec.tracked) or spec.tracked


def test_unknown_spec_raises():
    with pytest.raises(UsageError):
        builtin_spec("av132", "999")
    with pytest.raises(UsageError):
        builtin_spec("av321", "21")


def test_masses_are_catalan_truncated():
    expected = catalan_list(30)
    for family, statistic in CATALOG:
        seq = eval_truncated(builtin_spec(family, statistic), 30, 1)
        assert [s.coeffs[0] for s in seq.values] == expected, f"{family}:{statistic}"
    with pytest.raises(UsageError):
        eval_truncated(builtin_spec("av132", "21"), 5, 0)


def test_masses_are_catalan_full():
    expected = catalan_list(8)
    for family, statistic in CATALOG:
        seq = eval_full(builtin_spec(family, statistic), 8)
        assert [sum(p.terms.values()) for p in seq.values] == expected, f"{family}:{statistic}"


def test_full_matches_brute_force_oracle():
    assert verify_catalog(7) == {f"{f}:{s}": None for f, s in CATALOG}


def test_verify_catalog_reports_first_mismatch(monkeypatch, capsys):
    honest = funcrec.brute_sigma_enum

    def plus_one(poly):
        one = (0,) * len(poly.variables)
        return MultiPoly(poly.variables, {**poly.terms, one: poly.terms.get(one, 0) + 1})

    def perturbed(n):
        poly = honest(n)
        return plus_one(poly) if n == 3 else poly

    monkeypatch.setattr(funcrec, "brute_sigma_enum", perturbed)
    checks = verify_catalog(5)
    n, engine, brute = checks["av123:213"]
    assert n == 3
    assert engine == eval_full(builtin_spec("av123", "213"), 3).values[3]
    assert brute == plus_one(engine)
    assert [label for label, bad in checks.items() if bad] == ["av123:213"]

    assert main(["oracle", "verify", "--max-n", "5"]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert "av123:213    MISMATCH at n = 3" in out
    assert "all 9 catalog specs" not in out
    assert "oracle mismatch" in err


def test_truncated_is_the_series_of_full():
    cap = 4
    for family, statistic in CATALOG:
        spec = builtin_spec(family, statistic)
        full = eval_full(spec, 7)
        trunc = eval_truncated(spec, 7, cap)
        for n in range(8):
            assert trunc.values[n] == taylor(full.values[n], cap), f"{family}:{statistic} n={n}"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG), st.integers(0, 9), st.integers(1, 8))
def test_truncated_is_the_series_of_full_at_every_cap(family_stat, n, cap):
    # up to cap 8, the width of the three-variable basis moment tables run at
    spec = builtin_spec(*family_stat)
    assert eval_truncated(spec, n, cap).values[n] == taylor(eval_full(spec, n).values[n], cap)


# exponent pool for synthetic specs: constant, k-only, (n-k)-only and mixed,
# all >= 0 on 1 <= k <= n
_K1 = IndexPoly({(0, 1): 1, (0, 0): -1})
_NK = IndexPoly({(1, 0): 1, (0, 1): -1})
_KNK = IndexPoly({(1, 1): 1, (0, 2): -1})
EXPONENTS = st.sampled_from([0, 1, _K1, _NK, _KNK])
# full mode's enumerators can grow past millions of terms by n = 9; the
# comparison stops at the first n whose enumerator has more terms than this
TERM_BUDGET = 800


@st.composite
def substitutions(draw, nv):
    """None, the identity, or (with a catalytic variable q) q -> t^e q^d
    with d 0 or 1; substitutions fix t, and a varying exponent of q itself
    multiplies degrees at every level, past what full mode can reach."""
    if nv == 1 or draw(st.booleans()):
        return draw(st.sampled_from([None, subst_matrix(("t", "q")[:nv], {})]))
    return subst_matrix(("t", "q"), {"q": {"t": draw(EXPONENTS), "q": draw(st.integers(0, 1))}})


@st.composite
def synthetic_specs(draw):
    nv = draw(st.integers(1, 2))

    def term(**bounds):
        return RecTerm(
            coef=tuple(draw(EXPONENTS) for _ in range(nv)),
            left=draw(substitutions(nv)),
            right=draw(substitutions(nv)),
            **bounds,
        )

    # either one term over k = 1..n, or k <= h and k > h in two terms
    h = draw(st.integers(0, 3))
    terms = [term()] if h == 0 else [term(k_low=1, k_high=h), term(k_low=h + 1)]
    return FuncRecSpec("av132", "synthetic", ("t", "q")[:nv], terms)


@settings(max_examples=40, deadline=None)
@given(synthetic_specs(), st.integers(0, 9), st.integers(1, 8))
def test_truncated_is_the_series_of_full_on_synthetic_specs(spec, n, cap):
    full = []
    for m in range(n + 1):
        value = eval_full(spec, m).values[m]
        if len(value.terms) > TERM_BUDGET:
            break
        full.append(value)
    trunc = eval_truncated(spec, len(full) - 1, cap)
    assert trunc.values == [taylor(value, cap) for value in full]


def _substitution_pool():
    """Every substitution matrix of the catalog, with its variables, and
    every one the synthetic specs draw: q -> t^e q^d, each as its
    TermExponents rows, of which the truncated walk keys its image stores.
    The identity (rows None) has no operator: its images are the values."""
    specs = [builtin_spec(family, statistic) for family, statistic in CATALOG]
    for e in (0, 1, _K1, _NK, _KNK):
        for d in (0, 1):
            left = subst_matrix(("t", "q"), {"q": {"t": e, "q": d}})
            term = RecTerm(coef=(0,) * 2, left=left)
            specs.append(FuncRecSpec("av132", "synthetic", ("t", "q"), [term]))
    pool = {}
    for spec in specs:
        for exps in spec.exponents:
            for rows in (exps.left, exps.right):
                if rows is not None:
                    pool[spec.variables, rows] = None
    return list(pool)


def test_substitution_differences_have_no_negative_entry():
    # the packed walk reads its slots back exactly only if nothing it packs
    # or multiplies is negative; the values and the weights C(a, d) are
    # non-negative, and so must be every operator Delta_d of every store
    entries = 0
    for variables, key in _substitution_pool():
        for cap in range(1, 9):
            images = truncated._Images(SeriesBasis(variables, cap), key, [])
            coefficients = [c for op in images.ops for col in op for _, c in col]
            assert min(coefficients) >= 0, (variables, key, cap)
            entries += len(coefficients)
    assert entries == 19346


@pytest.mark.parametrize("family,statistic,n_max,outgrown_by", [
    ("av123", "213", 9, {"add_into"}),
    ("av132", "123", 10, {"add_into"}),
    ("av132", "231", 10, {"_fill", "add_into"}),
    ("av132", "213", 10, {"add_into"}),
    ("av132", "312", 10, {"_fill", "add_into"}),
])
def test_tight_slots_are_repacked_mid_walk_and_stay_exact(
    monkeypatch, family, statistic, n_max, outgrown_by
):
    # widened without headroom, the slots are outgrown again and again: by
    # a product's guard slot, which makes the window be formed again after
    # every stored value is re-packed, and, where a store's entries outgrow
    # what the products needed so far, by a stored value
    widen, drops = truncated._Packed._widen, []

    def tight(self, bits, n):
        caller = sys._getframe(1).f_code.co_name
        drops.append((caller, len(self.cuts[0])))
        widen(self, bits, self.n_max)

    monkeypatch.setattr(truncated._Packed, "_widen", tight)
    spec = builtin_spec(family, statistic)
    full = eval_full(spec, n_max).values
    for cap in (1, 4, 8):
        assert eval_truncated(spec, n_max, cap).values == [taylor(value, cap) for value in full]
    assert {caller for caller, packed in drops if packed} == outgrown_by


# per catalog term, the side the truncated walk packs; None: it forms a
# product per in-cap pair.  One variable, or both sides varying, packs nothing
PACKED_SIDES = {
    ("av123", "213"): ["right", "right"],
    ("av132", "12"): [None],
    ("av132", "123"): ["right"],
    ("av132", "132"): [None],
    ("av132", "21"): [None],
    ("av132", "213"): ["right"],
    ("av132", "231"): ["right"],
    ("av132", "312"): ["left"],
    ("av132", "321"): [None],
}


@pytest.mark.parametrize("cap", [4, 8])
def test_each_catalog_term_takes_its_product(monkeypatch, cap):
    # the values are the same on either path, so only this sees a term fall
    # off the packed one: a packed term takes it at every window of more
    # than one summand, and no other term does
    terms, calls = [], []
    init, add_into = truncated._TermWalk.__init__, truncated._Packed.add_into

    def record_term(self, *args):
        init(self, *args)
        terms.append(self)

    def record_product(self, *args):
        calls.append(sys._getframe(1).f_locals["self"])
        add_into(self, *args)

    monkeypatch.setattr(truncated._TermWalk, "__init__", record_term)
    monkeypatch.setattr(truncated._Packed, "add_into", record_product)
    assert sorted(PACKED_SIDES) == CATALOG
    n_max = 12
    for (family, statistic), want in PACKED_SIDES.items():
        terms.clear()
        calls.clear()
        eval_truncated(builtin_spec(family, statistic), n_max, cap)
        sides = [None if t.packed is None else "left" if t.pack_left else "right" for t in terms]
        assert sides == want, f"{family}:{statistic}"
        for term in terms:
            wide = [n for n in range(1, n_max + 1) if len(term.exps.term.k_range(n)) > 1]
            assert calls.count(term) == (len(wide) if term.packed else 0), f"{family}:{statistic}"


# sha256 of the coefficient lists of all 9 catalog specs' truncated values,
# recorded from the per-(n, k) evaluator this walk replaced; (8, 40), the n at
# which moment tables run the av132 specs at cap 8, was recorded from the walk
# that formed one dot product per in-cap pair of monomials
DEEP_DIGESTS = {
    (4, 80): "cafb093d13428a44f8f9d8f223bbc141100e58187215921a56858f4d173db82f",
    (8, 24): "ac2bc8806b95bb76eb794300386d60b16ace8d85917affdd9c39637e8b216634",
    (8, 40): "ac35fbadce6798295e91ff94a73ab44d6ca1466e671a66e2d1b029d564c84512",
}


@pytest.mark.parametrize("cap,n_max", sorted(DEEP_DIGESTS))
def test_truncated_values_match_the_recorded_digest(cap, n_max):
    digest = hashlib.sha256()
    for family, statistic in CATALOG:
        seq = eval_truncated(builtin_spec(family, statistic), n_max, cap)
        digest.update(repr([s.coeffs for s in seq.values]).encode())
    assert digest.hexdigest() == DEEP_DIGESTS[cap, n_max]


# sha256 over str() of every full-mode value Q_0 .. Q_n, recorded from the
# MultiPoly-arithmetic walk the packed walk replaced: the univariate specs at
# their caps, the multi-variable ones at n = 16
FULL_DIGESTS = {
    ("av123", "213", 16): "6b15081883868164820fe2f37d045fa40847da10108e66491b207bf1aff6ec53",
    ("av132", "12", 42): "c0be9016482b3a42bfda26c7f561287b710497afe1566f049da8098036dbb4b6",
    ("av132", "123", 16): "4859587671c2fb9ef3e66e9414ffc8ff105e9b90c4fcf699ab0b2dde39d265f3",
    ("av132", "132", 64): "e53db79626fa5f2a2cd97b0aa21e0dde48a08ce1caef8dfb1000f572cf226edc",
    ("av132", "21", 42): "e7cca84da7c7d683f7373257447672c892ad658fcd0d83c18d19262101908e00",
    ("av132", "213", 16): "d4660733020d04c1c91511297824f5dd76c970f04f5b90d4c95a4cb7c23c72d1",
    ("av132", "231", 16): "50f09569c80a0e7cfdd404acf8ac7db3f5161bafad2a9ca569e1ccacca207214",
    ("av132", "312", 16): "50f09569c80a0e7cfdd404acf8ac7db3f5161bafad2a9ca569e1ccacca207214",
    ("av132", "321", 16): "d32ef6aa7434d15132be267fd1710ada349a1352cdb7957359f2fada05af95ce",
}


def test_full_values_match_the_recorded_digests():
    assert sorted((f, s) for f, s, _ in FULL_DIGESTS) == CATALOG
    for (family, statistic, n), want in FULL_DIGESTS.items():
        digest = hashlib.sha256()
        for p in eval_full(builtin_spec(family, statistic), n).values:
            digest.update(str(p).encode() + b"\n")
        assert digest.hexdigest() == want, f"{family}:{statistic}"


def test_negative_substitution_exponent_is_a_usage_error():
    # t^(20 - n), once in the right substitution q -> t^(20 - n) q and once
    # as the coefficient, passes the mass check (n <= 12) and first goes
    # negative at n = 21, k = 1; t^(20 - k) first goes negative at the last
    # summand of n = 21.  As a coefficient, t^(20 - k) depends on k alone, so
    # the truncated walk folds it into the left store at k = m + 1, and the
    # window check of n = 21 must still be what refuses it
    variables = ("t", "q")
    for e, where in (
        (IndexPoly({(0, 0): 20, (1, 0): -1}), r"\(n=21, k=1\)"),
        (IndexPoly({(0, 0): 20, (0, 1): -1}), r"\(n=21, k=21\)"),
    ):
        terms = [
            RecTerm(
                coef=(0, 0),
                right=subst_matrix(variables, {"q": {"t": e, "q": 1}}),
            ),
            RecTerm(coef=(e, 0)),
        ]
        for term in terms:
            spec = FuncRecSpec("av132", "synthetic", variables, [term])
            assert [s.coeffs[0] for s in eval_truncated(spec, 20, 2).values] == catalan_list(20)
            with pytest.raises(UsageError, match=where):
                eval_truncated(spec, 25, 2)
            with pytest.raises(UsageError, match=where):
                eval_full(spec, 25)


@pytest.mark.parametrize("where", ["coefficient", "substitution"])
def test_a_negative_constant_past_the_mass_check_is_refused_by_both_modes(where):
    # the term of k >= 13 has no summand at n <= 12, where construction
    # checks the exponents, so the spec builds; the constant -1 is then
    # refused at its first window, (n = 13, k = 13), in both modes alike
    variables = ("t", "q")
    zero = (0, 0)
    low = RecTerm(coef=zero, k_high=12)
    if where == "coefficient":
        high = RecTerm(coef=(-1, 0), k_low=13)
    else:
        high = RecTerm(coef=zero, k_low=13, left=subst_matrix(variables, {"q": {"t": -1, "q": 1}}))
    spec = FuncRecSpec("av132", "synthetic", variables, [low, high])
    full = eval_full(spec, 12).values
    assert eval_truncated(spec, 12, 3).values == [taylor(value, 3) for value in full]
    message = r"^av132:synthetic: negative exponent at \(n=13, k=13\)$"
    with pytest.raises(UsageError, match=message):
        eval_full(spec, 13)
    with pytest.raises(UsageError, match=message):
        eval_truncated(spec, 13, 3)


@pytest.mark.parametrize("swap", [False, True], ids=["coefficient-first", "substitution-first"])
def test_both_modes_name_the_smallest_k_at_which_any_exponent_is_negative(swap):
    # (12 - n) k + 5 and (12 - n) k + 2 are >= 0 for n <= 12; at n = 13 they
    # first go negative at k = 6 and k = 3, whichever of the coefficient and
    # the right substitution holds which
    variables = ("t", "q")
    late = IndexPoly({(0, 1): 12, (1, 1): -1, (0, 0): 5})
    early = IndexPoly({(0, 1): 12, (1, 1): -1, (0, 0): 2})
    coef, image = (early, late) if swap else (late, early)
    right = subst_matrix(variables, {"q": {"t": image, "q": 1}})
    term = RecTerm(coef=(coef, 0), right=right)
    spec = FuncRecSpec("av132", "synthetic", variables, [term])
    message = r"^av132:synthetic: negative exponent at \(n=13, k=3\)$"
    with pytest.raises(UsageError, match=message):
        eval_full(spec, 13)
    with pytest.raises(UsageError, match=message):
        eval_truncated(spec, 13, 2)


@pytest.mark.parametrize(
    "images",
    [None, {"q": {"t": 1, "q": 1}}, {"q": {"t": _NK, "q": 1}}, {"q": {"t": _NK}}],
    ids=["identity", "constant", "varying", "varying-without-q"],
)
def test_a_k_only_coefficient_is_folded_only_where_a_window_reads_it(images):
    # t^(3 - k) q^k on k <= 3 goes negative past k_high, where no window
    # reads it; the constant q of the k >= 4 term is folded from k = 4 on.
    # Under q -> t^(n - k) the differences of the left store reach only
    # powers of t, and the fold must widen them to the powers of q
    variables = ("t", "q")
    low = RecTerm(
        coef=(IndexPoly({(0, 0): 3, (0, 1): -1}), IndexPoly({(0, 1): 1})),
        k_high=3,
        left=None if images is None else subst_matrix(variables, images),
    )
    high = RecTerm(coef=(0, 1), k_low=4)
    spec = FuncRecSpec("av132", "synthetic", variables, [low, high])
    full = eval_full(spec, 8).values
    for cap in (1, 3, 6):
        assert eval_truncated(spec, 8, cap).values == [taylor(value, cap) for value in full]


def test_an_index_no_window_reads_is_packed_as_a_placeholder():
    # the k >= 2 term folds q^(k - 1) into its own left store, which holds a
    # placeholder for Q_0, since its windows never read it; its right side
    # varies, so that left store is the one packed, placeholder included
    variables = ("t", "q")
    k = IndexPoly({(0, 1): 1})
    spec = FuncRecSpec("av132", "synthetic", variables, [
        RecTerm(coef=(0, 0), k_high=1),
        RecTerm(coef=(0, _K1), k_low=2, right=subst_matrix(variables, {"q": {"t": k, "q": 1}})),
    ])
    full, trunc = _values_of_both_modes(spec)
    assert trunc == [taylor(value, 4) for value in full]


def _values_of_both_modes(spec, n_max=9, cap=4):
    return eval_full(spec, n_max).values, eval_truncated(spec, n_max, cap).values


@pytest.mark.parametrize("side", ["left", "right"])
def test_the_unit_matrix_is_the_missing_substitution(side):
    # both read as None in TermExponents, so both modes take the same path
    variables = ("t", "q")
    coef = (_KNK, _K1)
    specs = [
        FuncRecSpec("av132", "synthetic", variables, [RecTerm(coef=coef, **{side: mat})])
        for mat in (subst_matrix(variables, {}), None)
    ]
    explicit, missing = (spec.exponents[0] for spec in specs)
    assert (explicit.left, explicit.right) == (missing.left, missing.right) == (None, None)
    assert _values_of_both_modes(specs[0]) == _values_of_both_modes(specs[1])


@pytest.mark.parametrize("where", ["coefficient", "substitution"])
def test_a_constant_index_poly_gives_the_values_of_its_int(where):
    # the int is a constant entry and the IndexPoly a varying one, with no
    # k term: each mode evaluates both, and they must agree
    variables = ("t", "q")
    specs = []
    for two in (2, IndexPoly({(0, 0): 2})):
        if where == "coefficient":
            term = RecTerm(coef=(two, _K1))
        else:
            term = RecTerm(coef=(0, _K1), right=subst_matrix(variables, {"q": {"t": two, "q": 1}}))
        specs.append(FuncRecSpec("av132", "synthetic", variables, [term]))
    constant, varying = (spec.exponents[0].varying for spec in specs)
    assert IndexPoly({(0, 0): 2}) in varying and len(varying) == len(constant) + 1
    assert _values_of_both_modes(specs[0]) == _values_of_both_modes(specs[1])


def test_mass_check_rejects_a_wrong_recurrence():
    # two copies of Q_n = sum_k Q_(k-1) Q_(n-k) count 2^n C_n objects, not C_n
    term = RecTerm(coef=(0,))
    with pytest.raises(UsageError, match=r"av132:synthetic: mass check failed at n = 1: 2 != 1"):
        FuncRecSpec("av132", "synthetic", ("t",), [term, term])


@pytest.mark.parametrize(
    "variables,coef,images,message",
    [
        (("t",), (0,), {"t": {"t": 2}}, "must fix t"),
        (("t", "q"), (0,) * 2, {"t": {"t": 1, "q": 1}}, "must fix t"),
        (("t", "q"), (0,), None, "coefficient exponent arity"),
        (("t",), (0,) * 2, None, "coefficient exponent arity"),
    ],
)
def test_spec_refuses_a_moving_t_or_a_wrong_arity_at_construction(variables, coef, images, message):
    left = None if images is None else subst_matrix(variables, images)
    with pytest.raises(UsageError, match=message):
        FuncRecSpec("av132", "synthetic", variables, [RecTerm(coef=coef, left=left)])


def test_frozen_small_enumerators():
    seq21 = eval_full(builtin_spec("av132", "21"), 3)
    assert [str(p) for p in seq21.values] == ["1", "1", "1 + t", "1 + t + 2t^2 + t^3"]

    seq231 = eval_full(builtin_spec("av132", "231"), 3)
    assert str(seq231.values[3]) == "1 + q + q^2 + t*q + q^3"

    full = eval_full(builtin_spec("av123", "213"), 4)
    proj = [p.project(["t"]) for p in full.values]
    assert [str(p) for p in proj] == ["1", "1", "2", "4 + t", "8 + 4t + t^2 + t^3"]


def test_pattern_equal_to_forbidden_is_trivial():
    # no 132-avoider contains a 132, so the enumerator collapses to the count
    seq = eval_full(builtin_spec("av132", "132"), 9)
    cats = catalan_list(9)
    for n, p in enumerate(seq.values):
        assert p.terms == {(0,): cats[n]}


def test_full_specialize_all_ones_gives_masses():
    seq = eval_full(builtin_spec("av132", "213"), 6)
    ones = [p.project(()) for p in seq.values]
    assert [p.terms[()] for p in ones] == catalan_list(6)
