import os
from fractions import Fraction as Q

import pytest

from limhodge import limitpage
from limhodge.cli import main
from limhodge.exactlin import Matrix, rank
from limhodge.strata import (
    StrataDatum, fixture_projective_space, fixture_cycle_of_p1,
    fixture_product_with_p1, all_checks_pass, save, dumps,
)
from limhodge.limitpage import (
    eps, build_e1_A, build_e1_K, phi_e1, compute_limit,
    pairing, verify_polarized, compare_pages, pairing_descent_defect,
)


def cycle3():
    return fixture_cycle_of_p1(3)


def fixtures():
    return [
        fixture_projective_space(1),
        fixture_projective_space(2),
        cycle3(),
        fixture_cycle_of_p1(4),
        fixture_product_with_p1(cycle3()),
    ]


def test_eps_values():
    assert [eps(a) for a in range(-2, 5)] == [-1, -1, 1, 1, -1, -1, 1]


# E1 page shapes

def test_cycle3_a_page_cell_dims():
    page = build_e1_A(cycle3())
    dims = {cell: page.dim(*cell) for cell in page.cell_keys()}
    assert dims == {(-1, 1): 3, (0, 0): 3, (0, 2): 3, (1, 1): 3}


def test_cycle3_d1_rank_oracle():
    page = build_e1_A(cycle3())
    # restriction 3x3 incidence of the triangle has rank 2
    assert rank(page.d1(0, 0)) == 2
    # Gysin 3x3 difference matrix has rank 2 as well
    assert rank(page.d1(1, 1)) == 2


def test_cycle3_gysin_d1_matrix():
    # the pair stratum {C_a, C_b} maps to [pt]_b - [pt]_a
    page = build_e1_A(cycle3())
    mat = page.d1(1, 1)
    assert mat.to_lists() == [
        [Q(-1), Q(-1), Q(0)],
        [Q(1), Q(0), Q(-1)],
        [Q(0), Q(1), Q(1)],
    ]


def test_p2_a_page_single_column():
    page = build_e1_A(fixture_projective_space(2))
    dims = {cell: page.dim(*cell) for cell in page.cell_keys()}
    assert dims == {(0, 0): 1, (0, 2): 1, (0, 4): 1}


def test_cycle3_k_page_top_cell_regression():
    # 3 single-component summands (sigma empty) plus 6 pair summands
    # with sigma inside the Cech subset
    page = build_e1_K(cycle3())
    assert page.dim(0, 2) == 9


def test_d1_squared_and_summand_twists():
    for datum in fixtures():
        for page in (build_e1_A(datum), build_e1_K(datum)):
            for (m, q) in page.cell_keys():
                prod = page.d1(m - 1, q + 1) * page.d1(m, q)
                assert prod.is_zero(), (page.variant, m, q)


def test_operators_commute_with_d1():
    for datum in fixtures():
        for page in (build_e1_A(datum), build_e1_K(datum)):
            nmats = {c: page.n_mat(*c) for c in page.cell_keys()}
            lmats = {c: page.l_mat(*c) for c in page.cell_keys()}
            for (m, q) in page.cell_keys():
                lhs = page.n_mat(m - 1, q + 1) * page.d1(m, q)
                rhs = page.d1(m - 2, q) * nmats[(m, q)]
                assert lhs == rhs, ("N d1", page.variant, m, q)
                lhs = page.l_mat(m - 1, q + 1) * page.d1(m, q)
                rhs = page.d1(m, q + 2) * lmats[(m, q)]
                assert lhs == rhs, ("l d1", page.variant, m, q)
                lhs = page.l_mat(m - 2, q) * nmats[(m, q)]
                rhs = page.n_mat(m, q + 2) * lmats[(m, q)]
                assert lhs == rhs, ("N l", page.variant, m, q)


def test_cached_restrictions_stay_unchanged():
    """Each page composes a restriction once and shares the matrix
    between the d1 blocks it builds; building every d1, N and l of
    both pages must leave each cached matrix equal to a fresh one."""
    datum = fixture_product_with_p1(cycle3())
    for page in (build_e1_A(datum), build_e1_K(datum)):
        for (m, q) in page.cell_keys():
            page.d1(m, q)
            page.n_mat(m, q)
            page.l_mat(m, q)
        assert page._restrict
        for (sigma, tau, deg), mat in page._restrict.items():
            assert mat == datum.restrict_mat(sigma, tau, deg)
    # the K page also shares its self-intersection operators
    assert page._selfop
    for (nu, tau, c), mat in page._selfop.items():
        assert mat == datum.ring(tau).mult_operator(
            page._self_class(nu, tau), 2, c)


def test_k_page_d1_does_not_depend_on_build_order():
    """Every K-page d1 is the same whether the cells are built in
    forward order, in reverse order or alone, each way on fresh pages;
    every cell lists its summands in (Cech subset, u-degree, residue
    subset) order; and building and comparing both pages leaves the
    datum unchanged."""
    c3 = cycle3()
    for datum in (fixture_projective_space(1), fixture_projective_space(3),
                  c3, fixture_cycle_of_p1(4), fixture_product_with_p1(c3)):
        forward = build_e1_K(datum)
        mats = {cell: forward.d1(*cell) for cell in forward.cell_keys()}
        backward = build_e1_K(datum)
        for cell in reversed(backward.cell_keys()):
            assert backward.d1(*cell) == mats[cell], cell
            assert build_e1_K(datum).d1(*cell) == mats[cell], cell
        key = datum.ix.subset_key
        for cell, lst in forward.cells.items():
            keys = [(key(s.cech), s.r, key(s.sigma)) for s in lst]
            assert all(a < b for a, b in zip(keys, keys[1:])), cell
        text = dumps(datum)
        compare_pages(datum)
        assert dumps(datum) == text


def test_e2_dims_by_rank_equal_cohomology():
    """E1Page.betti, from the ranks of d1, equals the dimension of the
    quotient cohomology on every cell of both pages."""
    for datum in fixtures()[1:] + [fixture_projective_space(3)]:
        for page in (build_e1_A(datum), build_e1_K(datum)):
            for (m, q) in page.cell_keys():
                assert page.betti(m, q) == page.cohomology(m, q)[0], \
                    (page.variant, m, q)


def test_cell_off_every_line_is_zero():
    """A cell on a line m + q = s that holds no E1 cell has E2 zero:
    its line is the zero complex."""
    datum = fixture_projective_space(2)
    empty = (0, Matrix.zero(0, 0), Matrix.zero(0, 0))
    for page in (build_e1_A(datum), build_e1_K(datum)):
        for (m, q) in ((0, 40), (-30, 3)):
            assert not any(mm + qq == m + q for (mm, qq) in page.cells)
            assert page.betti(m, q) == 0
            assert page.cohomology(m, q) == empty


# comparison map

def test_compare_pages_all_fixtures():
    for datum in fixtures():
        report, _ = compare_pages(datum)
        assert all_checks_pass(report), [r for r in report if not r["ok"]]


def test_cycle3_e2_cell_dims_both_pages():
    report, dims = compare_pages(cycle3())
    assert all_checks_pass(report)
    assert dims == {(0, 0): (1, 1), (-1, 1): (1, 1),
                    (1, 1): (1, 1), (0, 2): (1, 1)}


def test_phi_kills_nothing_on_p1():
    datum = fixture_projective_space(1)
    page_a = build_e1_A(datum)
    phi = phi_e1(page_a, build_e1_K(datum))
    for (m, q) in page_a.cell_keys():
        assert rank(phi[(m, q)]) == page_a.dim(m, q)


# traces

def test_theta_kills_d1():
    for datum in fixtures():
        page = build_e1_K(datum)
        theta = page.trace_row()
        n = datum.n
        assert (theta * page.d1(1, 2 * n - 1)).is_zero()


def test_trace_of_point_class():
    for n in (1, 2):
        lim = compute_limit(fixture_projective_space(n))
        tr = lim.tr
        # H^{2n} is one-dimensional; the point class generates it
        v = lim.e2[(0, 2 * n)][1].matvec([Q(1)])
        assert sum(a * b for a, b in zip(tr.row(0), v)) == 1


def test_cycle3_trace_identifies_components():
    lim = compute_limit(cycle3())
    proj = lim.e2[(0, 2)][1]
    one_first = proj.matvec([Q(1), Q(0), Q(0)])
    one_second = proj.matvec([Q(0), Q(1), Q(0)])
    assert one_first == one_second  # equal modulo d1
    tr = lim.tr
    assert sum(a * b for a, b in zip(tr.row(0), one_first)) == 1


# the limit mixed Hodge structure

def test_cycle3_weight_table():
    lim = compute_limit(cycle3())
    assert lim.weights == {0: {0: 1}, 1: {0: 1, 2: 1}, 2: {2: 1}}
    assert all(r["ok"] for r in lim.verdicts), lim.verdicts


def test_projective_space_is_pure():
    for n in (1, 2):
        lim = compute_limit(fixture_projective_space(n))
        assert lim.weights == {q: {q: 1} for q in range(0, 2 * n + 1, 2)}
        for cell in lim.e2:
            assert lim.n_block(*cell).is_zero()


def test_product_fixture_weight_table():
    lim = compute_limit(fixture_product_with_p1(cycle3()))
    assert lim.weights == {
        0: {0: 1}, 1: {0: 1, 2: 1}, 2: {2: 2},
        3: {2: 1, 4: 1}, 4: {4: 1}}
    assert all(r["ok"] for r in lim.verdicts), lim.verdicts


def test_cycle3_monodromy_string():
    lim = compute_limit(cycle3())
    blk = lim.n_block(1, 1)
    assert blk.rows == blk.cols == 1 and blk.a[0][0] != 0
    assert lim.n_power(1, 1, 2).is_zero()


def test_hodge_types_are_half_weights():
    lim = compute_limit(fixture_product_with_p1(cycle3()))
    for q, table in lim.hodge.items():
        for p, dim in table.items():
            assert 2 * p in lim.weights[q]
            assert lim.weights[q][2 * p] == dim


def test_weight_bounds_on_fixtures():
    for datum in fixtures():
        lim = compute_limit(datum)
        n = datum.n
        for (m, q) in lim.e2:
            assert -q <= m <= q
            assert -2 * n + q <= m <= 2 * n - q


def test_euler_oracle():
    for datum in fixtures():
        lim = compute_limit(datum)
        euler = sum((-1) ** q * lim.h(q) for q in range(2 * datum.n + 1))
        oracle = sum(datum.euler_open(x) for x in datum.ix.labels)
        assert euler == oracle


# pairing

def test_pairing_descends():
    for datum in fixtures():
        page = build_e1_A(datum)
        lim = compute_limit(datum)
        for (m, q) in lim.e2:
            assert pairing_descent_defect(page, m, q).is_zero(), (m, q)


def test_pairing_checks_all_fixtures():
    for datum in fixtures():
        report = pairing(compute_limit(datum))
        assert all(c["ok"] for c in report), \
            [c for c in report if not c["ok"]]


def test_cycle3_pairing_values():
    lim = compute_limit(cycle3())
    up = lim.q_block(1, 1)
    down = lim.q_block(-1, 1)
    assert up.rows == up.cols == 1 and up.a[0][0] != 0
    # odd-degree symmetry: Q(y, x) = -Q(x, y)
    assert down == up.transpose().scale(-1)


# polarization

def test_polarization_verdicts_all_fixtures():
    for datum in fixtures():
        rep = verify_polarized(compute_limit(datum))
        assert rep and all(r["ok"] for r in rep), \
            [r for r in rep if not r["ok"]]


def test_cycle3_primitive_piece():
    lim = compute_limit(cycle3())
    prim, form = lim.primitive_form(1, 1)
    assert prim.dim == 1
    assert form.rows == 1 and form.a[0][0] > 0


def test_p2_primitive_reduces_to_classical():
    lim = compute_limit(fixture_projective_space(2))
    prim, form = lim.primitive_form(0, 0)
    assert prim.dim == 1 and form.a[0][0] > 0
    # middle degree: H^2 is spanned by the ample class, no primitives
    prim, _ = lim.primitive_form(2, 0)
    assert prim.dim == 0


def test_negated_trace_fails_positivity():
    datum = cycle3()
    for s in datum.traces:
        datum.traces[s] = [-x for x in datum.traces[s]]
    rep = verify_polarized(compute_limit(datum))
    bad = [r for r in rep if not r["ok"]]
    assert bad
    assert any(r["check"] == "HL-positivity" and r["witness"]
               for r in bad)


def test_ample_rescaling_invariance():
    datum = cycle3()
    for s in datum.ample:
        datum.ample[s] = [2 * x for x in datum.ample[s]]
    lim = compute_limit(datum)
    assert lim.weights == {0: {0: 1}, 1: {0: 1, 2: 1}, 2: {2: 1}}
    assert all(r["ok"] for r in verify_polarized(lim))


def test_relabeling_invariance():
    d0 = cycle3()
    datum = StrataDatum(
        n=1, labels=list(d0.ix.labels)[::-1],
        nerve=[set(s) for s in d0.nerve], rings=d0.rings,
        restrictions=d0.restrictions, gysin=d0.gysin,
        traces=d0.traces, ample=d0.ample)
    lim = compute_limit(datum)
    assert lim.weights == {0: {0: 1}, 1: {0: 1, 2: 1}, 2: {2: 1}}
    assert all(r["ok"] for r in verify_polarized(lim))
    report, _ = compare_pages(datum)
    assert all_checks_pass(report)


def test_every_e1_cell_has_q_congruent_to_m():
    # Hodge-Tate data has no odd cohomology; the signs (-1)^(m(q+1)) of
    # PageA.pairing and (-1)^(ij) of graded commutativity rest on this
    c3 = cycle3()
    for d in [fixture_projective_space(1), fixture_projective_space(2),
              fixture_projective_space(3), c3, fixture_cycle_of_p1(4),
              fixture_product_with_p1(c3),
              fixture_product_with_p1(fixture_product_with_p1(c3))]:
        for page in (build_e1_A(d), build_e1_K(d)):
            cells = page.cell_keys()
            assert cells
            assert all((q - m) % 2 == 0 for m, q in cells), cells


def every_fixture():
    c3 = cycle3()
    return [fixture_projective_space(1), fixture_projective_space(2),
            fixture_projective_space(3), c3, fixture_cycle_of_p1(4),
            fixture_product_with_p1(c3),
            fixture_product_with_p1(fixture_product_with_p1(c3))]


def test_each_e1_line_has_the_euler_characteristic_of_its_e2_cells():
    """On every line m + q = s of either page, the alternating sum of
    the E1 dimensions equals that of the E2 dimensions E1Page.betti
    gives: an oracle for betti that reads no report."""
    for datum in every_fixture():
        for page in (build_e1_A(datum), build_e1_K(datum)):
            e1, e2 = {}, {}
            for (m, q) in page.cell_keys():
                sign = -1 if m % 2 else 1
                e1[m + q] = e1.get(m + q, 0) + sign * page.dim(m, q)
                e2[m + q] = e2.get(m + q, 0) + sign * page.betti(m, q)
            assert e1 == e2, page.variant


def test_primitive_pieces_have_the_dimensions_of_the_e2_table():
    """With e(i, q) = dim E2(i, q), the primitive piece P_i of H^q has
    dimension e(i, q) - e(i+2, q) - e(i, q-2) + e(i+2, q-2): by the
    Lefschetz decomposition under N and l, E2(i, q) is P_i plus the
    images of N from E2(i+2, q) and of l from E2(i, q-2), which meet
    in the image of E2(i+2, q-2)."""
    for datum in every_fixture():
        lim = compute_limit(datum)
        e = lim.dim
        for q in range(datum.n + 1):
            for i in range(q + 1):
                if e(i, q) == 0:
                    continue
                expected = e(i, q) - e(i + 2, q) - e(i, q - 2) \
                    + e(i + 2, q - 2)
                assert lim.primitive(q, i).dim == expected, (q, i)


def _zero_phi_at(monkeypatch, cell):
    """Make limitpage.phi_e1 return the zero map on the cell (m, q)."""
    phi_e1 = limitpage.phi_e1

    def faulty(page_a, page_k):
        comps = phi_e1(page_a, page_k)
        comps[cell] = Matrix.zero(comps[cell].rows, comps[cell].cols)
        return comps
    monkeypatch.setattr(limitpage, "phi_e1", faulty)


@pytest.mark.parametrize("cell, names, first", [
    ((0, 2), {"E2-iso", "phi-chain-map", "phi-l-commute",
              "theta-phi-trace"}, ("phi-l-commute", "m=0,q=0")),
    ((1, 1), {"E2-iso", "phi-N-commute", "phi-chain-map"},
     ("phi-chain-map", "m=1,q=1")),
])
def test_a_fault_in_phi_fails_the_phi_checks(monkeypatch, cell, names,
                                             first):
    """No mutation of an input fails the checks on phi, so the fault is
    put into phi itself: one component zeroed."""
    _zero_phi_at(monkeypatch, cell)
    report, _ = compare_pages(cycle3())
    bad = [r for r in report if not r["ok"]]
    assert {r["check"] for r in bad} == names
    assert (bad[0]["check"], bad[0]["where"], bad[0]["witness"]) \
        == first + ("entry (0,0) = 1",)


def test_compare_exits_2_on_a_fault_in_phi(tmp_path, monkeypatch):
    path = str(tmp_path / "cycle3.json")
    save(cycle3(), path)
    _zero_phi_at(monkeypatch, (0, 2))
    assert main(["compare", path, "-o", os.devnull]) == 2
