import numpy as np
import pytest

from natcone.bench import (
    CSV_HEADER,
    EF_FORM_OPTIONS,
    InstanceSpec,
    build_instance,
    gen_expdesign,
    gen_matcompletion,
    gen_matregression,
    gen_polymin,
    gen_portfolio,
    run_matrix,
    write_csv,
)
from natcone.bridges import extend
from natcone.interp import build_interp
from natcone.model import ConicProblem
from natcone.solver import SolveOptions, solve
from natcone.sym import sdim

# pattern seeds whose draw reproduces the recorded equality counts
MATCOMPLETION_SEEDS = {(10, 5): 28, (10, 10): 98}


class TestPortfolio:
    def test_dims_formulas(self):
        for k in (4, 16, 1000):
            prob = gen_portfolio(k, 0)
            assert (prob.nu, prob.n, prob.p, prob.q) == (2 * k + 2, k, k // 2 + 1, 2 * k + 2)

    def test_ef_dims(self):
        for k in (4, 16, 64):
            prob = gen_portfolio(k, 0)
            ef, _ = extend(prob, EF_FORM_OPTIONS["ef-exp"])
            assert (ef.nu, ef.n, ef.p, ef.q) == (4 * k + 1, 2 * k, k // 2 + 1, 4 * k + 1)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            gen_portfolio(5, 0)
        with pytest.raises(ValueError):
            gen_portfolio(2, 0)

    def test_small_nf_ef_agree(self):
        from natcone.model import objective_rel_diff

        prob = gen_portfolio(4, 7)
        nf = solve(prob)
        ef, _ = extend(prob, EF_FORM_OPTIONS["ef-exp"])
        efres = solve(ef)
        assert objective_rel_diff(nf.primal_obj, efres.primal_obj) < 1e-5

    @pytest.mark.parametrize("k", [4, 8])
    def test_nf_matches_independent_lp_solve_of_ef(self, k):
        # the extended portfolio form is a plain LP; scipy's simplex-free
        # linprog is an independent route to the same optimal value
        from scipy.optimize import linprog

        from natcone.model import objective_rel_diff

        prob = gen_portfolio(k, 11)
        nf = solve(prob)
        ef, _ = extend(prob, EF_FORM_OPTIONS["ef-exp"])
        assert all(K.tag == "nonneg" for K in ef.cones)
        lp = linprog(
            ef.c,
            A_ub=ef.G,
            b_ub=ef.h,
            A_eq=ef.A,
            b_eq=ef.b,
            bounds=(None, None),
            method="highs",
        )
        assert lp.status == 0
        assert objective_rel_diff(nf.primal_obj, float(lp.fun)) < 1e-5


class TestMatCompletion:
    def test_recorded_rows(self):
        prob = gen_matcompletion(5, 10, MATCOMPLETION_SEEDS[(10, 5)])
        assert (prob.nu, prob.n, prob.p, prob.q) == (57, 251, 200, 302)
        prob = gen_matcompletion(10, 10, MATCOMPLETION_SEEDS[(10, 10)])
        assert (prob.nu, prob.n, prob.p, prob.q) == (218, 1001, 794, 1208)

    def test_pattern_size_distribution(self):
        k, m = 5, 10
        sizes = np.array([gen_matcompletion(k, m, seed).p for seed in range(30)])
        mean, sd = 0.8 * k * m * k, np.sqrt(k * m * k * 0.8 * 0.2)
        assert np.all(np.abs(sizes - mean) <= 3 * sd)

    def test_dims_track_pattern(self):
        prob = gen_matcompletion(3, 2, 0)
        k, l = 3, 6
        unknown = k * l - prob.p
        assert prob.n == 1 + k * l
        assert prob.q == prob.n + 1 + unknown
        assert prob.nu == (1 + k) + (1 + unknown)


class TestMatRegression:
    def test_printed_row(self):
        prob = gen_matregression(50, 15, 0)
        assert (prob.nu, prob.n, prob.p, prob.q) == (18, 227, 0, 977)
        ef, _ = extend(prob, EF_FORM_OPTIONS["ef-exp"])
        assert ef.n == 1622
        assert ef.q == ef.n + 15 * 50
        assert ef.nu == prob.nu + 50

    def test_pre(self):
        with pytest.raises(ValueError):
            gen_matregression(10, 15, 0)


class TestExpDesign:
    def test_logdet_printed_row(self):
        prob = gen_expdesign(50, "log", 0)
        assert (prob.nu, prob.n, prob.p, prob.q) == (153, 101, 1, 1378)
        ef, _ = extend(prob, EF_FORM_OPTIONS["ef-exp"])
        assert (ef.n, ef.q, ef.nu) == (1426, 5401, 1 + 9 * 50)

    def test_logdet_formulas(self):
        for k in (3, 8):
            prob = gen_expdesign(k, "log", 1)
            assert (prob.nu, prob.n, prob.p) == (3 + 3 * k, 1 + 2 * k, 1)

    def test_rt_dims(self):
        k = 4
        prob = gen_expdesign(k, "rt", 1)
        assert prob.nu == 2 + 3 * k
        assert prob.q == (1 + 2 * k) + (1 + sdim(k))

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            gen_expdesign(3, "qq", 0)


class TestPolymin:
    def test_printed_rows(self):
        prob = gen_polymin(1, 100, 0)
        assert (prob.nu, prob.n, prob.p, prob.q) == (201, 201, 1, 201)
        ef, _ = extend(prob, EF_FORM_OPTIONS["ef-exp"])
        assert ef.q == 10201
        prob = gen_polymin(3, 6, 0)
        assert (prob.nu, prob.n) == (252, 455)
        ef, _ = extend(prob, EF_FORM_OPTIONS["ef-exp"])
        assert ef.q == 8358

    def test_square_polynomial_lower_bound_zero(self):
        # f(x) = x^2 on [-1, 1]: the bound is tight at zero
        ip = build_interp(1, 1)
        fbar = ip.points[:, 0] ** 2
        from natcone.cones import WsosDual

        prob = ConicProblem(
            fbar, np.ones((1, ip.U)), [1.0], -np.eye(ip.U), np.zeros(ip.U), [WsosDual(ip.P)]
        )
        res = solve(prob)
        assert res.primal_obj == pytest.approx(0.0, abs=1e-6)


class TestReproducibility:
    @pytest.mark.parametrize(
        "gen,args",
        [
            (gen_portfolio, (6,)),
            (gen_matcompletion, (3, 2)),
            (gen_matregression, (5, 3)),
            (gen_expdesign, (3, "rt")),
            (gen_polymin, (1, 2)),
        ],
    )
    def test_same_seed_same_data(self, gen, args):
        p1 = gen(*args, 42)
        p2 = gen(*args, 42)
        np.testing.assert_array_equal(p1.c, p2.c)
        np.testing.assert_array_equal(p1.A, p2.A)
        np.testing.assert_array_equal(p1.G, p2.G)
        np.testing.assert_array_equal(p1.h, p2.h)

    def test_different_seed_different_data(self):
        p1 = gen_portfolio(6, 1)
        p2 = gen_portfolio(6, 2)
        assert not np.array_equal(p1.c, p2.c)


class TestRunMatrix:
    def test_records_and_pairing(self, tmp_path):
        specs = [
            InstanceSpec("portfolio", k=4, seed=3, form=form) for form in ("nf", "ef-exp")
        ] + [InstanceSpec("expdesign", k=3, variant="rt", seed=3, form="nf")]
        records = run_matrix(specs, SolveOptions(max_iters=200))
        assert [r.status for r in records] == ["co", "co", "co"]
        assert all(r.converged for r in records)
        nf, ef, _ = records
        assert np.isnan(nf.eps_tilde)
        assert ef.eps_tilde < 1e-5
        out = tmp_path / "res.csv"
        write_csv(records, out)
        lines = out.read_text().strip().splitlines()
        assert lines[2] == CSV_HEADER
        assert lines[3].startswith("portfolio,4,,,nf,3,")
        # missing eps_tilde on the natural-form row serializes as empty
        assert lines[3].endswith(",")

    def test_time_limit_records_tl(self):
        specs = [InstanceSpec("portfolio", k=16, seed=0, form="nf")]
        (rec,) = run_matrix(specs, SolveOptions(time_limit=0.0))
        assert rec.status == "tl"
        assert not rec.converged
        assert rec.q == 34  # instance data still recorded

    def test_instance_spec_validation(self):
        with pytest.raises(ValueError):
            InstanceSpec("mystery", k=2)
        with pytest.raises(ValueError):
            InstanceSpec("portfolio", k=4, form="dual")
        with pytest.raises(ValueError):
            InstanceSpec("expdesign", k=4)
        for family in ("matcompletion", "matregression", "polymin"):
            with pytest.raises(ValueError, match="requires m"):
                InstanceSpec(family, k=3)
        spec = InstanceSpec("expdesign-log", k=4)
        assert spec.family == "expdesign" and spec.variant == "log"

    def test_build_instance_forms(self):
        nf, mapping = build_instance(InstanceSpec("portfolio", k=4, seed=0, form="nf"))
        assert mapping is None
        ef, mapping = build_instance(InstanceSpec("portfolio", k=4, seed=0, form="ef-exp"))
        assert mapping is not None and ef.n == 8


class TestCli:
    def test_portfolio_smoke(self, capsys, tmp_path):
        from natcone.cli import main

        out = tmp_path / "cli.csv"
        code = main(
            ["portfolio", "--k", "4", "--form", "ef-exp", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out.splitlines()
        assert captured[0] == CSV_HEADER
        assert captured[1].startswith("portfolio,4,,,ef-exp,1,")
        assert out.exists()

    def test_polymin_requires_m(self):
        from natcone.cli import main

        code = main(["polymin", "--k", "2", "--m", "1", "--seed", "0"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["matcompletion", "--k", "3"], "requires m"),
            (["expdesign", "--k", "3"], "variant"),
            (["portfolio", "--k", "8", "--tol", "0"], "tol must be positive"),
            (["portfolio", "--k", "8", "--max-iters", "0"], "max_iters must be >= 1"),
            (["portfolio", "--k", "8", "--time-limit", "-1"], "time_limit must be >= 0"),
            (["portfolio", "--k", "8", "--tol", "inf"], "tol must be finite"),
        ],
    )
    def test_invalid_instance_is_usage_error(self, capsys, argv, message):
        from natcone.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err
