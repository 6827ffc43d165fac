"""Acceptance suite: one test per criterion, each printing a PASS or
FAIL line (run with pytest -s to see them live)."""

import json
import random
import time
from fractions import Fraction as Q

from limhodge.exactlin import Matrix, rank
from limhodge.homalg import (
    shift, shift_map, tensor, cone, zeta, connecting,
)
from limhodge.cubical import IndexSet, tensor_cocubical, CechComplex, tau
from limhodge import strata
from limhodge.strata import (
    fixture_projective_space, fixture_cycle_of_p1,
    fixture_product_with_p1, validate, all_checks_pass, dumps, loads,
)
from limhodge.limitpage import (
    build_e1_A, build_e1_K, compute_limit, pairing, verify_polarized,
    compare_pages,
)
from limhodge.cli import build_parser, run, report_render

from test_homalg import random_complex, random_chain_map, \
    random_extension
from test_cubical import (
    diag_cocubical,
    test_tau_associativity as check_tau_associativity,
    test_tau_filtration_bounds as check_tau_filtration_bounds,
)


def _criterion(num, desc, fn, limit_s):
    t0 = time.time()
    try:
        fn()
    except BaseException:
        print("[acceptance] criterion %d: FAIL - %s" % (num, desc))
        raise
    dt = time.time() - t0
    assert dt < limit_s, "criterion %d exceeded %ds (%.1fs)" \
        % (num, limit_s, dt)
    print("[acceptance] criterion %d: PASS (%.1fs) - %s"
          % (num, dt, desc))


def all_fixtures():
    return [
        fixture_projective_space(1),
        fixture_projective_space(2),
        fixture_cycle_of_p1(3),
        fixture_cycle_of_p1(4),
        fixture_product_with_p1(fixture_cycle_of_p1(3)),
    ]


def test_criterion_1_homological_identities():
    def body():
        instances = 0
        rng = random.Random(20260823)
        # cone, shift and tensor keep d^2 = 0 (constructors assert)
        for _ in range(40):
            k = random_complex(rng, lo=0, hi=2, maxdim=3)
            l = random_complex(rng, lo=-1, hi=1, maxdim=3)
            f = random_chain_map(rng, k, l)
            cone(f)
            shift(k, rng.randint(-2, 2))
            tensor(k, l)
            instances += 1
        # the zeta comparison square commutes with the (-1)^m twist
        for _ in range(5):
            k = random_complex(rng, lo=0, hi=2, maxdim=2)
            l = random_complex(rng, lo=0, hi=2, maxdim=2)
            f = random_chain_map(rng, k, l)
            c, alpha, beta = cone(f)
            for m in (-2, -1, 0, 1, 2):
                z = zeta(f, m)
                cm = shift(c, m)
                cfm, alpha_m, beta_m = cone(shift_map(f, m))
                sgn = Q(-1) ** (m % 2)
                for p in cm.degrees():
                    assert rank(z.comp(p)) == cm.dim(p) == cfm.dim(p)
                    assert z.comp(p) * alpha.comp(p + m) \
                        == alpha_m.comp(p)
                    assert beta_m.comp(p) * z.comp(p) \
                        == beta.comp(p + m).scale(sgn)
                instances += 1
        # connecting maps: gamma(f,g)[m] = (-1)^m gamma(f[m], g[m])
        for _ in range(5):
            k = random_complex(rng, lo=0, hi=2, maxdim=2)
            l, f, g, m_ = random_extension(rng, k)
            gam = connecting(f, g)
            for m in (-2, -1, 0, 1, 2):
                gam_m = connecting(shift_map(f, m), shift_map(g, m))
                sgn = Q(-1) ** (m % 2)
                for p, mat in gam.items():
                    assert mat == gam_m[p - m].scale(sgn)
                instances += 1
        # tau is a chain map (constructor asserts)
        for labels in (["a", "b"], ["a", "b", "c"]):
            ix = IndexSet(labels)
            for _ in range(6):
                K = diag_cocubical(ix, rng, maxdeg=1)
                L = diag_cocubical(ix, rng, maxdeg=1)
                KL = tensor_cocubical(K, L)
                tau(CechComplex(K), CechComplex(L), CechComplex(KL))
                instances += 1
        # tau associativity and filtration bounds
        check_tau_associativity()
        check_tau_filtration_bounds()
        instances += 2
        assert instances >= 100, instances
    _criterion(1, "homological identity suite (>=100 instances)",
               body, 30)


def test_criterion_2_tate_curve():
    def body():
        datum = fixture_cycle_of_p1(3)
        lim = compute_limit(datum)
        assert lim.weights == {0: {0: 1}, 1: {0: 1, 2: 1}, 2: {2: 1}}
        blk = lim.n_block(1, 1)
        assert blk.rows == blk.cols == 1 and blk.a[0][0] != 0
        assert lim.n_power(1, 1, 2).is_zero()
        assert all(r["ok"] for r in verify_polarized(lim))
        assert all(c["ok"] for c in pairing(lim))
        # independent oracle: both 3x3 d1 blocks are (co)boundary
        # matrices of the triangle and have rank 2
        labels = list(datum.ix.labels)
        pairs = [(i, (i + 1) % 3) for i in range(3)]
        inc = Matrix.zero(3, 3)
        for col, (i, j) in enumerate(pairs):
            inc[i, col] = Q(-1)
            inc[j, col] = Q(1)
        assert rank(inc) == 2
        assert rank(inc.transpose()) == 2
        page = build_e1_A(datum)
        assert rank(page.d1(1, 1)) == 2
        assert rank(page.d1(0, 0)) == 2
        # Euler oracle: 1 - 2 + 1 = 0 = sum of open-stratum chi
        euler = lim.h(0) - lim.h(1) + lim.h(2)
        assert euler == 0 == sum(datum.euler_open(x) for x in labels)
    _criterion(2, "Tate-curve fixture (cycle of three lines)", body, 5)


def test_criterion_3_smooth_projective_space():
    def body():
        for n in (1, 2):
            lim = compute_limit(fixture_projective_space(n))
            assert lim.weights == {q: {q: 1}
                                   for q in range(0, 2 * n + 1, 2)}
            for cell in lim.e2:
                assert lim.n_block(*cell).is_zero()
            for q in range(0, n + 1):
                for (m, qq) in lim.e2:
                    if qq != q:
                        continue
                    lp = lim.l_power(m, q, n - q)
                    assert rank(lp) == lim.dim(m, q) \
                        == lim.dim(m, 2 * n - q)
            rep = verify_polarized(lim)
            assert all(r["ok"] for r in rep)
            # classical Hodge-Riemann signs on primitive pieces
            for q in range(0, n + 1, 2):
                prim, form = lim.primitive_form(q, 0)
                for a in range(prim.dim):
                    assert form.a[a][a] > 0
    _criterion(3, "smooth projective space P^1 and P^2", body, 5)


def test_criterion_4_product_fixture():
    def body():
        datum = fixture_product_with_p1(fixture_cycle_of_p1(3))
        lim = compute_limit(datum)
        assert lim.weights == {
            0: {0: 1}, 1: {0: 1, 2: 1}, 2: {2: 2},
            3: {2: 1, 4: 1}, 4: {4: 1}}
        euler = sum((-1) ** q * lim.h(q) for q in range(5))
        assert euler == 0
        assert all(r["ok"] for r in lim.verdicts)
        assert all(r["ok"] for r in verify_polarized(lim))
    _criterion(4, "product fixture (cycle x P^1, n=2)", body, 30)


def test_criterion_5_trace_and_pairing():
    def body():
        for datum in all_fixtures():
            n = datum.n
            page_k = build_e1_K(datum)
            theta = page_k.trace_row()
            assert (theta * page_k.d1(1, 2 * n - 1)).is_zero()
            lim = compute_limit(datum)
            report = pairing(lim)
            # twist balance is asserted inside the pairing assembly;
            # symmetry, N-antisymmetry and the orthogonality checks
            # are verdicts
            assert all(c["ok"] for c in report), \
                [c for c in report if not c["ok"]]
            # the trace is rational with tr(point class) = 1
            tr = lim.tr
            point = [Q(0)] * lim.page.dim(0, 2 * n)
            point[0] = Q(1)
            v = lim.e2[(0, 2 * n)][1].matvec(point)
            assert sum(a * b for a, b in zip(tr.row(0), v)) == 1
    _criterion(5, "trace and pairing suite on all fixtures", body, 30)


def test_criterion_6_comparison():
    def body():
        for datum in all_fixtures():
            report, dims = compare_pages(datum)
            assert all_checks_pass(report), [r for r in report if not r["ok"]]
            for (m, q), (da, dk) in dims.items():
                assert da == dk, (m, q, da, dk)
    _criterion(6, "comparison map: E2(A) = E2(K) cellwise", body, 30)


def test_criterion_7_weight_bounds():
    def body():
        rng = random.Random(7)
        data = all_fixtures() + [fixture_cycle_of_p1(5),
                                 fixture_cycle_of_p1(6)]
        # randomized valid data: random positive ample rescalings
        for _ in range(5):
            d = fixture_cycle_of_p1(rng.randint(3, 6))
            scale = rng.randint(1, 5)
            for s in d.ample:
                d.ample[s] = [scale * x for x in d.ample[s]]
            data.append(d)
        for datum in data:
            lim = compute_limit(datum)
            n = datum.n
            for (m, q) in lim.e2:
                assert -q <= m <= q, (m, q)
                assert -2 * n + q <= m <= 2 * n - q, (m, q)
    _criterion(7, "weight-support bounds", body, 30)


def _first_failure(datum):
    """Name of the first failing check in the mutation cascade, or
    None if everything passes."""
    rep = validate(datum)
    if not all_checks_pass(rep):
        return next(r["check"] for r in rep if not r["ok"])
    for page in (build_e1_A(datum), build_e1_K(datum)):
        for (m, q) in page.cell_keys():
            if not (page.d1(m - 1, q + 1) * page.d1(m, q)).is_zero():
                return "d1-squared-%s" % page.variant
    page_k = build_e1_K(datum)
    theta = page_k.trace_row()
    if not (theta * page_k.d1(1, 2 * datum.n - 1)).is_zero():
        return "theta-d1"
    for r in verify_polarized(compute_limit(datum)):
        if not r["ok"]:
            return r["check"]
    return None


def test_criterion_8_mutation_sensitivity():
    def body():
        base = dumps(fixture_cycle_of_p1(3))
        data = json.loads(base)
        # negate every stored Gysin block in turn
        for key in sorted(data["gysin"]):
            d2 = loads(base)
            s = frozenset(key.split("|")[0].split(","))
            nu = key.split("|")[1]
            d2.gysin[(s, nu)] = {deg: m.scale(-1) for deg, m
                                 in d2.gysin[(s, nu)].items()}
            assert _first_failure(d2) is not None, key
        # negate every stratum trace in turn
        for key in sorted(data["strata"]):
            d2 = loads(base)
            s = frozenset(key.split(","))
            d2.traces[s] = [-x for x in d2.traces[s]]
            assert _first_failure(d2) is not None, key
        # the unmutated fixture passes the whole cascade
        assert _first_failure(loads(base)) is None
    _criterion(8, "mutation sensitivity (Gysin blocks and traces)",
               body, 60)


def test_criterion_9_determinism(tmp_path):
    def body():
        paths = []
        for i, datum in enumerate(all_fixtures()):
            p = str(tmp_path / ("f%d.json" % i))
            strata.save(datum, p)
            paths.append(p)
        outputs = []
        for _ in range(2):
            blob = []
            for p in paths:
                for command in ("validate", "e1", "e2", "mhs",
                                "polarize", "compare"):
                    page = ["--page", "both"] if command[0] == "e" else []
                    _, result = run(build_parser().parse_args(
                        [command, p] + page))
                    blob.append(report_render(result, "json"))
                    blob.append(report_render(result, "table"))
            outputs.append("".join(blob))
        assert outputs[0] == outputs[1]
    _criterion(9, "byte-identical reports across runs", body, 120)
