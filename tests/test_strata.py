import copy
import hashlib
import os
import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from limhodge.exactlin import ConsistencyError, Matrix
from limhodge.strata import (
    StrataDatum, StrataError, Ring, Report, validate, all_checks_pass,
    fixture_projective_space, fixture_cycle_of_p1, fixture_product_with_p1,
    p1_ring, point_ring, save, load, dumps, loads,
)


def test_projective_space_validates():
    for n in (1, 2, 3):
        d = fixture_projective_space(n)
        rep = validate(d)
        assert all_checks_pass(rep), [r for r in rep if not r["ok"]]


def test_projective_space_shape():
    d = fixture_projective_space(1)
    s = frozenset({"X"})
    assert d.ring(s).dims == [1, 0, 1]
    assert d.ample_op(s, 0) == Matrix.identity(1)


def test_cycle_fixture_shape():
    d = fixture_cycle_of_p1(3)

    def of_size(datum, k):
        return sorted((s for s in datum.nerve if len(s) == k),
                      key=datum.ix.subset_key)
    assert len(of_size(d, 1)) == 3
    assert len(of_size(d, 2)) == 3
    pair = of_size(d, 2)[0]
    assert d.ring(pair).dims == [1]
    d4 = fixture_cycle_of_p1(4)
    assert len(of_size(d4, 2)) == 4
    # opposite components are disjoint
    assert frozenset({"C0", "C2"}) not in d4.nerve


def test_cycle_too_small():
    with pytest.raises(ValueError):
        fixture_cycle_of_p1(2)


def test_cycle_validates():
    rep = validate(fixture_cycle_of_p1(3))
    assert all_checks_pass(rep), [r for r in rep if not r["ok"]]


def test_cycle_negated_gysin_fails_adjunction():
    d = fixture_cycle_of_p1(3)
    s = frozenset({"C0"})
    d.gysin[(s, "C1")] = {0: d.gysin[(s, "C1")][0].scale(-1)}
    rep = validate(d)
    bad = [r for r in rep if not r["ok"]]
    assert bad
    assert any(r["check"] == "gysin-trace-adjunction" and r["witness"]
               for r in bad)


def test_gysin_autoderivation_matches_fixture():
    d = fixture_cycle_of_p1(3)
    explicit = {k: {deg: m for deg, m in v.items()}
                for k, v in d.gysin.items()}
    d2 = StrataDatum(
        n=1, labels=list(d.ix.labels),
        nerve=[set(s) for s in d.nerve],
        rings=d.rings, restrictions=d.restrictions, gysin={},
        traces=d.traces, ample=d.ample)
    for key, mats in explicit.items():
        for deg, m in mats.items():
            assert d2.gysin[key][deg] == m, (key, deg)
    assert all_checks_pass(validate(d2))


def test_product_fixture():
    d = fixture_product_with_p1(fixture_cycle_of_p1(3))
    assert d.n == 2
    comp = frozenset({"C0"})
    assert d.ring(comp).dims == [1, 0, 2, 0, 1]
    rep = validate(d)
    assert all_checks_pass(rep), [r for r in rep if not r["ok"]]


def test_euler_open_strata():
    d = fixture_cycle_of_p1(3)
    # each open component is P^1 minus two points
    assert d.euler_open("C0") == 0
    total = sum(d.euler_open(x) for x in d.ix.labels)
    assert total == 0


def test_json_round_trip(tmp_path):
    for d in (fixture_projective_space(2), fixture_cycle_of_p1(3),
              fixture_product_with_p1(fixture_cycle_of_p1(3))):
        p = tmp_path / "fix.json"
        save(d, p)
        d2 = load(p)
        assert dumps(d) == dumps(d2)
        assert all_checks_pass(validate(d2))


def test_load_missing_trace_field():
    d = fixture_cycle_of_p1(3)
    import json
    data = json.loads(dumps(d))
    del data["strata"]["C0"]["trace"]
    with pytest.raises(StrataError) as err:
        loads(json.dumps(data))
    assert "strata/C0/trace" in str(err.value)


def test_load_unknown_label():
    d = fixture_projective_space(1)
    import json
    data = json.loads(dumps(d))
    data["strata"]["Z"] = data["strata"]["X"]
    with pytest.raises(StrataError):
        loads(json.dumps(data))


def _reversed(d):
    return dict(reversed(list(d.items())))


def test_dumps_does_not_depend_on_dict_order():
    """A datum built with every dict, and its nerve, in reverse order
    dumps to the same text: json's sort_keys orders every key."""
    d = fixture_product_with_p1(fixture_cycle_of_p1(3))
    rev = StrataDatum(
        d.n, d.ix.labels, reversed(d.strata),
        {s: Ring(r.dims, _reversed(r.mult))
         for s, r in _reversed(d.rings).items()},
        {k: _reversed(m) for k, m in _reversed(d.restrictions).items()},
        {k: _reversed(m) for k, m in _reversed(d.gysin).items()},
        _reversed(d.traces), _reversed(d.ample))
    assert list(rev.gysin) == list(reversed(list(d.gysin)))
    assert dumps(rev) == dumps(d)


def test_mutation_sensitivity():
    base = dumps(fixture_cycle_of_p1(3))
    import json
    # perturb each restriction matrix entry by +1
    data = json.loads(base)
    for key in list(data["gysin"]):
        d2 = loads(base)
        s = frozenset(key.split("|")[0].split(","))
        nu = key.split("|")[1]
        old = d2.gysin[(s, nu)][0]
        d2.gysin[(s, nu)] = {0: old + Matrix.identity(1)}
        assert not all_checks_pass(validate(d2)), key
    for key in list(data["strata"]):
        d2 = loads(base)
        s = frozenset(key.split(","))
        d2.traces[s] = [x + 1 for x in d2.traces[s]]
        assert not all_checks_pass(validate(d2)), key
    # perturb each product-table entry by +1, except the squares of
    # basis vectors (i == j and a == b), which commutativity cannot see
    base = dumps(fixture_product_with_p1(fixture_cycle_of_p1(3)))
    data = json.loads(base)
    mutations = 0
    for key, entry in data["strata"].items():
        dims = entry["dims"]
        for ij, rows in entry["products"].items():
            i, j = (int(x) for x in ij.split(","))
            for r, row in enumerate(rows):
                for col in range(len(row)):
                    if i == j and col // dims[j] == col % dims[j]:
                        continue
                    d2 = copy.deepcopy(data)
                    cell = d2["strata"][key]["products"][ij][r]
                    cell[col] = str(Q(cell[col]) + 1)
                    rep = validate(loads(json.dumps(d2)))
                    assert any(c["check"] == "ring-axioms" and not c["ok"]
                               for c in rep), (key, ij, r, col)
                    mutations += 1
    assert mutations == 42


def dense_mul(ring, i, j, x, y):
    """The product of the vectors x and y as a dense vector of all pairs
    times the whole table. Reference for Ring.mul."""
    if ring.dim(i + j) == 0:
        return []
    t = ring.table(i, j)
    v = [Q(0)] * (ring.dim(i) * ring.dim(j))
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            if xa != 0 and yb != 0:
                v[a * ring.dim(j) + b] = xa * yb
    return [sum((t.a[r][c] * Q(v[c]) for c in range(t.cols)), Q(0))
            for r in range(t.rows)]


rationals = st.builds(Q, st.integers(-8, 8), st.integers(1, 4))
# Mixes int and Fraction entries; about a third of them are 0.
mixed_entries = st.one_of(st.just(0), st.integers(-5, 5), rationals)


def vectors(n):
    return st.lists(mixed_entries, min_size=n, max_size=n).filter(
        lambda v: sum(x != 0 for x in v) >= min(n, 2))


def col(v):
    """The vector v as a one-column matrix."""
    return Matrix(len(v), 1, [[x] for x in v])


def column(m, c):
    return [m[r, c] for r in range(m.rows)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_sparse_ring_mul_matches_dense(di, dj, dk, data):
    n = di * dj
    entries = data.draw(st.lists(rationals, min_size=dk * n,
                                 max_size=dk * n))
    zeros = data.draw(st.sets(st.integers(0, dk * n - 1),
                              min_size=(dk * n + 1) // 2))
    table = Matrix(dk, n, [[Q(0) if r * n + c in zeros else entries[r * n + c]
                            for c in range(n)] for r in range(dk)])
    ring = Ring([1, di, dj, dk], {(1, 2): table})
    xs = data.draw(st.lists(vectors(di), min_size=1, max_size=3))
    ys = data.draw(st.lists(vectors(dj), min_size=1, max_size=3))
    out = ring.mul(1, 2, Matrix(di, len(xs), [list(r) for r in zip(*xs)]),
                   Matrix(dj, len(ys), [list(r) for r in zip(*ys)]))
    assert (out.rows, out.cols) == (dk, len(xs) * len(ys))
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            assert column(out, a * len(ys) + b) == dense_mul(ring, 1, 2, x, y)
    assert all(type(v) is Q for row in out.to_lists() for v in row)
    # the operator of xs[0], built column by column from the products
    # with the basis vectors
    e = Matrix.identity(dj)
    assert ring.mult_operator(xs[0], 1, 2) == Matrix(dj, dk, [
        dense_mul(ring, 1, 2, xs[0], e.row(b)) for b in range(dj)]).transpose()


def test_ring_mul_rejects_mismatched_shapes():
    ring = Ring([1, 2, 2, 1], {(1, 2): Matrix.zero(1, 3)})
    with pytest.raises(ConsistencyError):
        ring.mul(1, 2, col([1, 0]), col([0, 1]))
    ring = Ring([1, 2, 2, 1], {(1, 2): Matrix.zero(1, 4)})
    for x, y in (([1], [0, 1]), ([1, 0], [0, 1, 1])):
        with pytest.raises(ConsistencyError):
            ring.mul(1, 2, col(x), col(y))


def test_load_rejects_misshaped_tables():
    data = json.loads(dumps(fixture_product_with_p1(fixture_cycle_of_p1(3))))
    cases = [
        (("strata", "C0", "products", "2,2"), lambda m: [m[0][:-1]],
         "strata/C0/products/2,2: expected 1x4, got 1x3"),
        (("strata", "C0", "products", "2,2"), lambda m: [m[0] + ["0"]],
         "strata/C0/products/2,2: expected 1x4, got 1x5"),
        (("strata", "C0", "products", "2,0"), lambda m: m + [["0"]],
         "strata/C0/products/2,0: expected 2x2, got ragged rows"),
        (("strata", "C0", "products", "9,9"), lambda m: [["1"]],
         "strata/C0/products/9,9: expected 0x0, got 1x1"),
        (("restrictions", "C0|C0,C1", "2"), lambda m: m[:-1],
         "restrictions/C0|C0,C1/2: expected 1x2, got 0x2"),
        (("gysin", "C0|C1", "0"), lambda m: [r + ["0"] for r in m],
         "gysin/C0|C1/0: expected 2x1, got 2x2"),
        (("strata", "C0,C1", "products"),
         lambda m: {ij: t for ij, t in m.items() if ij != "0,2"},
         "strata/C0,C1/products/0,2: missing"),
    ]
    for path, mutate, message in cases:
        d2 = copy.deepcopy(data)
        parent = d2
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = mutate(parent.get(path[-1]))
        with pytest.raises(StrataError) as err:
            loads(json.dumps(d2))
        assert str(err.value) == message


def test_kunneth_of_valid_is_valid():
    d = fixture_product_with_p1(fixture_projective_space(1))
    rep = validate(d)
    assert all_checks_pass(rep), [r for r in rep if not r["ok"]]


# sha256 of `dumps` of fixtures and of their Künneth products, recorded
# from the entry-by-entry product construction that the block
# construction replaced, and from cycle fixtures whose Gysin maps were
# written out by hand before the datum derived them.
PRODUCT_DUMPS = {
    ("cycle", 0): "fb6fc3a841da98e79ccceb571305f52d"
                  "07836e02bda4a6e147efcb81aef0df11",
    ("cycle4", 0): "1d5816b609a156056da5befcdf6d09ce"
                   "eb3405f045dcbfbaeac8474433c2fc6c",
    ("cycle5", 0): "5d8e4db794e20fb2b0ce7b6bca16cebc"
                   "c95e7cc0871d3c961f5fa1e9a673f392",
    ("projective", 0): "e6f7fceadf577b0a5bd28a778d173472"
                       "9f0104309fc679548f5fbf048f120cb2",
    ("projective2", 0): "b8469c1e1f6480f08fa4947fc1a0cf15"
                        "8a424a136f9930e6112ebf295f73b591",
    ("projective3", 0): "905b17ae291c1cc98a1e907fa848dc61"
                        "9429f00f47d000265598c4b6f78bdf4c",
    ("cycle", 1): "991c82b6c2ad37c7ab70a9c5e588ce66"
                  "e6d8642b7b12754c2c531400c51f9ad1",
    ("cycle", 2): "6473396e5a50de4a4271c61d7bc1b95c"
                  "5244de5d660dea0bfde1b277dfb09ada",
    ("cycle", 3): "3e059dd8313be7dbf1a7dc38fd5d59c4"
                  "f98b34fd7fae8854ad57f0d6c266f635",
    ("projective", 1): "ca7af256f3e955d5fa232a784eca4dce"
                       "d5523c17f0217ae7eda802605d601131",
}


DUMP_BASES = {
    "cycle": lambda: fixture_cycle_of_p1(3),
    "cycle4": lambda: fixture_cycle_of_p1(4),
    "cycle5": lambda: fixture_cycle_of_p1(5),
    "projective": lambda: fixture_projective_space(1),
    "projective2": lambda: fixture_projective_space(2),
    "projective3": lambda: fixture_projective_space(3),
}


@pytest.mark.parametrize("base, products", sorted(PRODUCT_DUMPS))
def test_product_with_p1_dumps_are_pinned(base, products):
    """cycle(3) times P^1 zero to three times, P^1 and P^1 x P^1, and
    the cycles of 4 and 5 lines, P^2 and P^3 themselves."""
    d = DUMP_BASES[base]()
    for _ in range(products):
        d = fixture_product_with_p1(d)
    text = dumps(d)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PRODUCT_DUMPS[(base, products)]


# Single-entry mutations of fixture JSON and every failure `validate`
# must report for each, in report order. The witness of a check names
# the last failing degree tuple; the adjunction's names the values at
# its last failing basis pair.
WITNESS_FIXTURES = {
    "cycle3": lambda: fixture_cycle_of_p1(3),
    "cycle3xp1": lambda: fixture_product_with_p1(fixture_cycle_of_p1(3)),
}
PINNED_WITNESSES = {
    "unit": ("cycle3", ("strata", "C0,C1", "products", "0,0", 0, 0), "2", [
        ("ring-axioms", "C0,C1", "unit fails in degree 0"),
        ("restriction-ring-map", "C0->C0,C1",
         "not a ring map at degrees (0,0)"),
        ("restriction-ring-map", "C1->C0,C1",
         "not a ring map at degrees (0,0)"),
        ("projection-formula", "C0|C1", "projection formula fails at (0,0)"),
        ("gysin-trace-adjunction", "C0|C1",
         "adjunction fails at (0,0): -1 != -2"),
        ("projection-formula", "C1|C0", "projection formula fails at (0,0)"),
        ("gysin-trace-adjunction", "C1|C0",
         "adjunction fails at (0,0): -1 != -2")]),
    "commutativity": (
        "cycle3xp1", ("strata", "C0", "products", "2,2", 0, 2), "2", [
            ("ring-axioms", "C0", "commutativity fails at (2,2)")]),
    "associativity": (
        "cycle3", ("strata", "C0", "products", "0,2", 0, 0), "2", [
            ("ring-axioms", "C0", "associativity fails at (0,0,2)")]),
    "degenerate-pairing": ("cycle3", ("strata", "C0,C1", "trace", 0), "0", [
        ("poincare-duality", "C0,C1", "degenerate pairing in degree 0"),
        ("hodge-riemann", "C0,C1", "primitive form not positive in degree 0"),
        ("gysin-trace-adjunction", "C0|C1",
         "adjunction fails at (0,0): -1 != 0"),
        ("gysin-trace-adjunction", "C1|C0",
         "adjunction fails at (0,0): -1 != 0")]),
    "hard-lefschetz": (
        "cycle3xp1", ("strata", "C0", "products", "2,2", 0, 3), "-2", [
            ("hard-lefschetz", "C0", "l^2 not an isomorphism"),
            ("hodge-riemann", "C0",
             "primitive form not positive in degree 2")]),
    "primitive-form": ("cycle3", ("strata", "C0", "ample", 0), "-1", [
        ("hodge-riemann", "C0", "primitive form not positive in degree 0")]),
    "ring-map": ("cycle3", ("strata", "C0", "products", "0,0", 0, 0), "0", [
        ("ring-axioms", "C0", "associativity fails at (2,0,0)"),
        ("restriction-ring-map", "C0->C0,C1",
         "not a ring map at degrees (0,0)"),
        ("restriction-ring-map", "C0->C0,C2",
         "not a ring map at degrees (0,0)")]),
    "unit-not-preserved": (
        "cycle3", ("restrictions", "C0|C0,C1", "0", 0, 0), "0", [
            ("restriction-ring-map", "C0->C0,C1", "unit not preserved"),
            ("projection-formula", "C0|C1",
             "projection formula fails at (0,0)"),
            ("gysin-trace-adjunction", "C0|C1",
             "adjunction fails at (0,0): -1 != 0")]),
    "ample-restriction": ("cycle3xp1", ("strata", "C0", "ample", 1), "2", [
        ("ample-restriction", "C0->C0,C1", "restricted ample class differs"),
        ("ample-restriction", "C0->C0,C2", "restricted ample class differs")]),
    "projection-formula": (
        "cycle3xp1", ("gysin", "C0|C1", "0", 0, 0), "0", [
            ("projection-formula", "C0|C1",
             "projection formula fails at (0,2)"),
            ("gysin-trace-adjunction", "C0|C1",
             "adjunction fails at (0,2): 0 != -1")]),
    "adjunction-second-row": (
        "cycle3xp1", ("gysin", "C0|C1", "0", 1, 0), "3", [
            ("projection-formula", "C0|C1",
             "projection formula fails at (0,2)"),
            ("gysin-trace-adjunction", "C0|C1",
             "adjunction fails at (0,2): 3 != 0")]),
    "adjunction-top-degree": (
        "cycle3xp1", ("gysin", "C0|C1", "2", 0, 0), "1/2", [
            ("projection-formula", "C0|C1",
             "projection formula fails at (0,2)"),
            ("gysin-trace-adjunction", "C0|C1",
             "adjunction fails at (2,0): 1/2 != -1")]),
}


@pytest.mark.parametrize("case", sorted(PINNED_WITNESSES))
def test_validate_witnesses_are_pinned(case):
    fixture, path, value, expected = PINNED_WITNESSES[case]
    data = json.loads(dumps(WITNESS_FIXTURES[fixture]()))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    rep = validate(loads(json.dumps(data)))
    assert [(c["check"], c["where"], c["witness"])
            for c in rep if not c["ok"]] == expected


def test_readme_input_example_validates():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    d = loads(block)
    rep = validate(d)
    assert len(rep) == 20 and all_checks_pass(rep), rep


def test_missing_hodge_tate_means_true():
    text = dumps(fixture_cycle_of_p1(3))
    data = json.loads(text)
    del data["hodge_tate"]
    assert dumps(loads(json.dumps(data))) == text


def test_gram_is_the_trace_of_products():
    d = fixture_product_with_p1(fixture_product_with_p1(
        fixture_cycle_of_p1(3)))
    for s in d.nerve:
        ring, tr = d.ring(s), d.trace_vec(s)
        for i in range(ring.top + 1):
            j = ring.top - i
            unit = Matrix.identity
            expected = [[sum(t * v for t, v in zip(
                tr, column(ring.mul(i, j, col(x), col(y)), 0)))
                for y in unit(ring.dim(j)).a]
                for x in unit(ring.dim(i)).a]
            g = ring.gram(i, j, tr)
            assert (g.rows, g.cols, g.to_lists()) == (
                ring.dim(i), ring.dim(j), expected)


def test_add_zero_names_the_first_entry_in_row_major_order():
    """The witness is the first nonzero entry by (row, column), also
    when a row's entries were written out of column order."""
    defect = Matrix.zero(3, 8)
    defect.add_block(1, 5, Matrix(1, 1, [[3]]))
    defect.add_block(1, 2, Matrix(1, 2, [[Q(-1, 2), 4]]))
    defect.add_block(2, 0, Matrix(1, 1, [[9]]))
    assert list(defect.nz[1]) == [5, 2, 3]
    report = Report()
    report.add_zero("defect", "here", defect)
    report.add_zero("cancelled", "here", defect - defect)
    assert report == [
        {"check": "defect", "where": "here", "ok": False,
         "witness": "entry (1,2) = -1/2"},
        {"check": "cancelled", "where": "here", "ok": True, "witness": ""}]


def three_planes():
    """Three planes X0, X1, X2 (n = 2), each two meeting in a line and
    all three in one point: the smallest datum with a triple point."""
    labels = ["X0", "X1", "X2"]
    plane = fixture_projective_space(2).ring({"X"})
    pairs = [frozenset(p) for p in (("X0", "X1"), ("X0", "X2"),
                                    ("X1", "X2"))]
    triple = frozenset(labels)
    rings, traces, ample, restrictions = {}, {}, {}, {}
    for x in labels:
        s = frozenset({x})
        rings[s], traces[s], ample[s] = plane, [Q(1)], [Q(1)]
        for p in pairs:
            if x in p:
                # the line class restricts to the point class of the line
                restrictions[(s, p)] = {0: Matrix.identity(1),
                                        2: Matrix.identity(1),
                                        4: Matrix.zero(0, 1)}
    for p in pairs:
        rings[p], traces[p], ample[p] = p1_ring(), [Q(1)], [Q(1)]
        restrictions[(p, triple)] = {0: Matrix.identity(1),
                                     2: Matrix.zero(0, 1)}
    rings[triple], traces[triple], ample[triple] = point_ring(), [Q(1)], []
    return StrataDatum(
        n=2, labels=labels, nerve=[{x} for x in labels] + pairs + [triple],
        rings=rings, restrictions=restrictions, gysin={}, traces=traces,
        ample=ample)


def test_restriction_functoriality_runs_on_a_triple_point():
    rep = validate(three_planes())
    func = [c for c in rep if c["check"] == "restriction-functoriality"]
    assert [c["where"] for c in func] == [
        "X0->X0,X1,X2", "X1->X0,X1,X2", "X2->X0,X1,X2"]
    assert all_checks_pass(rep), [c for c in rep if not c["ok"]]


def test_restriction_functoriality_catches_a_scaled_restriction():
    d = three_planes()
    key = (frozenset({"X0", "X1"}), frozenset({"X0", "X1", "X2"}))
    d.restrictions[key][0] = Matrix(1, 1, [[2]])
    failed = {c["check"] for c in validate(d) if not c["ok"]}
    assert "restriction-functoriality" in failed


def test_code_built_odd_cohomology_is_rejected():
    ring = Ring([1, 1, 1], {})
    with pytest.raises(StrataError) as exc:
        StrataDatum(n=1, labels=["X"], nerve=[{"X"}],
                    rings={frozenset({"X"}): ring}, restrictions={},
                    gysin={}, traces={frozenset({"X"}): [Q(1)]},
                    ample={frozenset({"X"}): [Q(1)]})
    assert str(exc.value) == ("strata/X/dims: degree 1 has dimension 1; "
                              "Hodge-Tate data has no odd cohomology")
