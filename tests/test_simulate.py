"""Monte Carlo harness: reproducibility, CSV shape, and rate calibration."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from compnull import simulate
from compnull.closed_form import build_extended_region, build_js_region, build_minimax_region
from compnull.regions import analytic_power, rejection_prob_at_points
from compnull.simulate import (
    DensityTable,
    EcdfTable,
    SimSpec,
    sample_product_statistic,
    sample_sobel_density,
    simulate_power,
    simulate_pvalue_ecdf,
    worker_count,
)

# refused by every seeded entry point: bool, non-integer, negative, >= 2**64
BAD_SEEDS = (True, 1.5, "3", -1, 2 ** 64)


# -- per-observation oracles ---------------------------------------------------
# The samplers the library used before it drew sufficient statistics: every
# replicate draws its n observation pairs and averages them.

def _per_observation_power_block(spec, evals, point_index, block_index, size):
    delta = spec.delta_grid[point_index]
    ss = np.random.SeedSequence(spec.seed, spawn_key=(point_index, block_index))
    gen = np.random.Generator(np.random.Philox(ss))
    draws = gen.standard_normal((size, spec.n, 2))
    means = draws.mean(axis=1)
    means[:, 0] += delta[0]
    means[:, 1] += delta[1]
    root_n = math.sqrt(spec.n)
    zx = root_n * means[:, 0]
    zy = root_n * means[:, 1]
    aux = None
    counts = {}
    for name, (kind, obj, randomized) in evals.items():
        if kind == "region":
            probs = rejection_prob_at_points(obj, zx, zy)
            if randomized:
                if aux is None:
                    aux = gen.uniform(size=size)
                rej = aux < probs
            else:
                rej = probs >= simulate._DEGENERATE
        elif kind == "js":
            rej = (np.abs(zx) > obj) & (np.abs(zy) > obj)
        else:
            rej = np.abs(_mean_form_sobel(root_n, means[:, 0], means[:, 1])) > obj
        counts[name] = int(rej.sum())
    return counts


def _mean_form_sobel(root_n, mx, my):
    denom = np.hypot(my, mx)
    stat = np.zeros(len(mx))
    ok = denom > 0.0
    stat[ok] = root_n * mx[ok] * my[ok] / denom[ok]
    return stat


def _per_observation_rates(spec):
    """Rejection rates per (point, method) from the per-observation oracle."""
    evals = simulate._method_evaluators(spec)
    rates = {}
    for pi in range(len(spec.delta_grid)):
        totals = dict.fromkeys(spec.methods, 0)
        for bi, start in enumerate(range(0, spec.reps, simulate._BLOCK)):
            size = min(simulate._BLOCK, spec.reps - start)
            counts = _per_observation_power_block(spec, evals, pi, bi, size)
            for name, c in counts.items():
                totals[name] += c
        for name, c in totals.items():
            rates[pi, name] = c / spec.reps
    return rates


def _per_observation_estimates(delta_x, n, reps, gen):
    draws = gen.standard_normal((reps, n, 2))
    draws[:, :, 0] += delta_x
    dxh = draws[:, :, 0].mean(axis=1)
    dyh = draws[:, :, 1].mean(axis=1)
    sx = draws[:, :, 0].std(axis=1, ddof=1)
    sy = draws[:, :, 1].std(axis=1, ddof=1)
    return dxh, dyh, sx, sy


def _oracle_sobel_and_product(delta_x, n, reps, seed):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    dxh, dyh, sx, sy = _per_observation_estimates(delta_x, n, reps, gen)
    sobel = math.sqrt(n) * dxh * dyh / np.hypot(dyh * sx, dxh * sy)
    return sobel, n * dxh * dyh / (sx * sy)


# z-scale shifts: the double null, each null axis, one alternative
_Z_SHIFTS = ((0.0, 0.0), (2.0, 0.0), (0.0, -1.5), (1.5, 2.0))


@pytest.mark.parametrize("n", [2, 50])
def test_rates_match_per_observation_oracle(n, shipped_bayes_region):
    grid = tuple((zx / math.sqrt(n), zy / math.sqrt(n)) for zx, zy in _Z_SHIFTS)
    methods = ("minimax", "extended", "bayes", "js", "sobel")
    reps = 20_000
    new = simulate_power(SimSpec(methods, grid, n, reps, 7100 + n,
                                 bayes_region=shipped_bayes_region))
    old = _per_observation_rates(SimSpec(methods, grid, n, reps, 7200 + n,
                                         bayes_region=shipped_bayes_region))
    regions = {"minimax": build_minimax_region(0.05), "extended": build_extended_region(0.05),
               "bayes": shipped_bayes_region, "js": build_js_region(0.05)}
    for i, row in enumerate(new.rows):
        pi = i // len(methods)
        r_old = old[pi, row.method]
        se_old = math.sqrt(r_old * (1.0 - r_old) / reps)
        assert abs(row.reject_rate - r_old) <= 4.0 * math.hypot(row.mc_se, se_old), row
        if row.method in regions:
            want = analytic_power(regions[row.method], _Z_SHIFTS[pi])
            assert abs(row.reject_rate - want) <= 4.0 * math.sqrt(want * (1.0 - want) / reps), row


def test_sobel_formula_matches_mean_form():
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(7300)))
    means = gen.standard_normal((2, 10_000)) * np.logspace(-6, 1, 10_000)
    means[:, :3] = [[0.0, 0.0, 1e-3], [0.0, -2.0, 0.0]]
    for n in (2, 50):
        root_n = math.sqrt(n)
        old = _mean_form_sobel(root_n, means[0], means[1])
        new = simulate._sobel(root_n * means[0], root_n * means[1])
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0)
    # the same formula of t-statistics is the sample-SD form of the density harness
    dxh, dyh, sx, sy = _per_observation_estimates(0.3, 20, 5000, gen)
    old = math.sqrt(20) * dxh * dyh / np.hypot(dyh * sx, dxh * sy)
    new = simulate._sobel(math.sqrt(20) * dxh / sx, math.sqrt(20) * dyh / sy)
    np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [2, 100])
def test_density_samplers_match_per_observation_oracle(n):
    reps = 4000
    table = sample_sobel_density([0.0, 0.3], n, reps, seed=7400 + n)
    for dx in (0.0, 0.3):
        oracle_sobel, oracle_product = _oracle_sobel_and_product(dx, n, reps, 7500 + n)
        assert stats.ks_2samp(table.samples(dx), oracle_sobel).pvalue > 0.01
        product = sample_product_statistic(dx, n, reps, seed=7600 + n)
        assert stats.ks_2samp(product, oracle_product).pvalue > 0.01


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("COMPOSITE_NULL_THREADS", "5")
    assert worker_count() == 5
    monkeypatch.setenv("COMPOSITE_NULL_THREADS", "0")
    with pytest.raises(ValueError, match="COMPOSITE_NULL_THREADS"):
        worker_count()
    monkeypatch.setenv("COMPOSITE_NULL_THREADS", "x")
    with pytest.raises(ValueError, match="integer"):
        worker_count()
    monkeypatch.delenv("COMPOSITE_NULL_THREADS")
    assert worker_count() >= 1


def test_spec_validation(shipped_bayes_region):
    good = dict(methods=("js",), delta_grid=((0.0, 0.0),), n=10, reps=10, seed=1)
    SimSpec(**good)
    with pytest.raises(ValueError, match="unknown method"):
        SimSpec(**{**good, "methods": ("wald",)})
    with pytest.raises(ValueError, match="non-empty"):
        SimSpec(**{**good, "methods": ()})
    with pytest.raises(ValueError, match="delta_grid"):
        SimSpec(**{**good, "delta_grid": ()})
    with pytest.raises(ValueError, match="n must be"):
        SimSpec(**{**good, "n": 0})
    with pytest.raises(ValueError, match="reps"):
        SimSpec(**{**good, "reps": 0})
    with pytest.raises(ValueError, match="seed"):
        SimSpec(**{**good, "seed": -1})
    with pytest.raises(ValueError, match="seed"):
        SimSpec(**{**good, "seed": 2 ** 64})
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimSpec(**{**good, "seed": bad})
    with pytest.raises(ValueError, match="alpha"):
        SimSpec(**{**good, "alpha": 1.0})
    with pytest.raises(ValueError, match="bayes_region"):
        SimSpec(**{**good, "methods": ("bayes",)})
    SimSpec(**{**good, "methods": ("bayes",), "bayes_region": shipped_bayes_region})
    for grid, field in ((((math.nan, 0.0),), r"delta_grid\[0\]"),
                        (((0.0, 0.0), (0.0, -math.inf)), r"delta_grid\[1\]")):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SimSpec(**{**good, "delta_grid": grid})
    with pytest.raises(ValueError, match=r"^delta_grid\[1\] must hold 2 values, got 3$"):
        SimSpec(**{**good, "delta_grid": ((0.0, 0.0), (0.0, 0.0, 1.0))})
    for field in ("n", "reps"):
        for bad in (2.5, 10.0, True, "10"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SimSpec(**{**good, field: bad})
    spec = SimSpec(**{**good, "n": np.int64(10), "reps": np.int32(10)})
    assert type(spec.n) is int and type(spec.reps) is int


def test_power_runs_are_reproducible():
    spec = SimSpec(("minimax", "js"), ((0.0, 0.0), (0.2, 0.1)), 20, 5000, 3)
    assert simulate_power(spec).to_csv() == simulate_power(spec).to_csv()


# two full tasks of 8 blocks per point, then one block of 5 draws
_MULTI_TASK_REPS = 2 * 8 * simulate._BLOCK + 5


def test_worker_count_does_not_change_results(monkeypatch):
    # two points x three tasks, merged by block index
    spec = SimSpec(("minimax", "sobel"), ((0.0, 0.0), (0.3, 0.3)), 10, _MULTI_TASK_REPS, 9)
    monkeypatch.setenv("COMPOSITE_NULL_THREADS", "1")
    serial = simulate_power(spec).to_csv()
    monkeypatch.setenv("COMPOSITE_NULL_THREADS", "3")
    threaded = simulate_power(spec).to_csv()
    assert serial == threaded


def test_seeded_power_output_is_pinned(shipped_bayes_region, monkeypatch):
    # sha256 of the CSVs written when every 4096-draw block was its own task;
    # the first spec draws the uniform too, the second does not
    grid = ((0.0, 0.0), (0.3, 0.0), (0.25, -0.35))
    cases = [
        (SimSpec(simulate._METHODS, grid, 40, _MULTI_TASK_REPS, 2024, bayes_region=shipped_bayes_region),
         "563a411470eaf48414702bf49a4b5b7472363f508fee36c771489f45e6448982"),
        (SimSpec(("bayes", "js"), grid[1:], 40, _MULTI_TASK_REPS, 2025,
                 bayes_region=shipped_bayes_region, bayes_randomized=False),
         "cb5f7e486828d0a0428a611fc44726544bc2e5c1acb02d05d3f212a714f48b02"),
    ]
    for threads in ("1", "2"):
        monkeypatch.setenv("COMPOSITE_NULL_THREADS", threads)
        for spec, want in cases:
            csv = simulate_power(spec).to_csv()
            assert hashlib.sha256(csv.encode()).hexdigest() == want, (threads, spec.seed)


def test_equal_grids_share_one_lookup(shipped_bayes_region):
    # at 1/K the minimax and extended grids are bit-identical; a Bayes region
    # with the same grid shares too, though its kind differs
    twin = build_extended_region(0.05)
    evals = simulate._method_evaluators(SimSpec(("minimax", "extended", "bayes"), ((0.0, 0.0),),
                                                10, 10, 1, bayes_region=twin))
    assert evals["extended"][1] is evals["minimax"][1] and evals["bayes"][1] is evals["minimax"][1]
    evals = simulate._method_evaluators(SimSpec(("extended", "bayes"), ((0.0, 0.0),), 10, 10, 1,
                                                alpha=0.07, bayes_region=shipped_bayes_region))
    assert evals["bayes"][1] is shipped_bayes_region and evals["extended"][1].kind == "extended"


def test_methods_share_draws():
    # adding a method leaves the other methods' counts untouched
    kw = dict(delta_grid=((0.25, 0.25),), n=30, reps=5000, seed=17)
    combined = simulate_power(SimSpec(("minimax", "js"), **kw))
    js_only = simulate_power(SimSpec(("js",), **kw))
    mm_only = simulate_power(SimSpec(("minimax",), **kw))
    by_method = {r.method: r.reject_rate for r in combined.rows}
    assert by_method["js"] == js_only.rows[0].reject_rate
    assert by_method["minimax"] == mm_only.rows[0].reject_rate


def test_power_csv_shape():
    spec = SimSpec(("js",), ((0.1, 0.2),), 15, 500, 4)
    text = simulate_power(spec).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "delta_x,delta_y,method,alpha,n,reps,reject_rate,mc_se,seed"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 9
    assert fields[2] == "js"
    assert float(fields[0]) == 0.1 and int(fields[4]) == 15
    assert 0.0 <= float(fields[6]) <= 1.0


def test_minimax_rate_matches_analytic_power():
    spec = SimSpec(("minimax",), ((0.3, 0.3),), 50, 20000, 424242)
    row = simulate_power(spec).rows[0]
    rn = math.sqrt(50)
    want = analytic_power(build_minimax_region(0.05), (rn * 0.3, rn * 0.3))
    assert abs(row.reject_rate - want) <= 4.0 * row.mc_se


def test_null_rates():
    spec = SimSpec(("minimax", "js", "sobel"), ((0.0, 0.0),), 50, 20000, 424242)
    rows = {r.method: r for r in simulate_power(spec).rows}
    mm = rows["minimax"]
    assert abs(mm.reject_rate - 0.05) <= 4.0 * max(mm.mc_se, 1e-4)
    js = rows["js"]
    assert abs(js.reject_rate - 0.05 ** 2) <= 4.0 * max(js.mc_se, 1e-4)
    # the product-ratio test is severely conservative at the double null
    assert rows["sobel"].reject_rate < 0.01


def test_bayes_method_with_shipped_region(shipped_bayes_region):
    spec = SimSpec(("bayes",), ((0.0, 0.0),), 50, 20000, 77,
                   bayes_region=shipped_bayes_region)
    row = simulate_power(spec).rows[0]
    assert abs(row.reject_rate - 0.05) <= 4.0 * row.mc_se

    derand = SimSpec(("bayes",), ((0.0, 0.0),), 50, 20000, 77,
                     bayes_region=shipped_bayes_region, bayes_randomized=False)
    row_d = simulate_power(derand).rows[0]
    # same draws: dropping the randomized cells can only remove rejections
    assert row_d.reject_rate <= row.reject_rate
    assert row_d.reject_rate > 0.03


def test_pvalue_ecdf_table():
    table = simulate_pvalue_ecdf(2000, seed=11)
    assert isinstance(table, EcdfTable)
    assert [name for name, _ in table.entries] == ["extended_minimax", "js"]
    phat = table.pvalues("extended_minimax")
    pjs = table.pvalues("js")
    assert len(phat) == len(pjs) == 2000
    assert np.all(np.diff(phat) >= 0.0) and np.all(np.diff(pjs) >= 0.0)
    # sorting preserves the per-draw dominance
    assert np.all(phat <= pjs)
    # one-sided 99% DKW band against the uniform law under the null
    levels = np.arange(1, 2001) / 2000
    eps = math.sqrt(math.log(100.0) / (2 * 2000))
    assert float(np.max(levels - phat)) <= eps
    with pytest.raises(KeyError):
        table.pvalues("sobel")
    with pytest.raises(ValueError, match="reps"):
        simulate_pvalue_ecdf(0)
    with pytest.raises(ValueError, match="reps must be an integer"):
        simulate_pvalue_ecdf(5.0)
    with pytest.raises(ValueError, match="delta_star must be finite"):
        simulate_pvalue_ecdf(5, (math.nan, 0.0))
    with pytest.raises(ValueError, match="^delta_star must hold 2 values, got 1$"):
        simulate_pvalue_ecdf(5, (0.0,))
    for bad in BAD_SEEDS:
        with pytest.raises(ValueError, match="seed must"):
            simulate_pvalue_ecdf(5, seed=bad)


def test_pvalue_ecdf_under_strong_alternative():
    table = simulate_pvalue_ecdf(2000, (5.0, 5.0), seed=12)
    assert float(np.median(table.pvalues("extended_minimax"))) < 0.01


def test_ecdf_csv_shape():
    table = simulate_pvalue_ecdf(50, seed=2)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "method,p_value,ecdf"
    assert len(lines) == 1 + 2 * 50
    method, p, level = lines[1].split(",")
    assert method == "extended_minimax"
    assert 0.0 <= float(p) <= 1.0
    assert float(level) == 1 / 50


def test_sobel_density_table():
    table = sample_sobel_density([0.0, 0.3], 100, 500, seed=5)
    assert isinstance(table, DensityTable)
    assert [dx for dx, _ in table.entries] == [0.0, 0.3]
    assert table.samples(0.3).shape == (500,)
    # at the double null the statistic is deflated relative to N(0, 1)
    assert float(np.var(table.samples(0.0))) < 0.5
    again = sample_sobel_density([0.0, 0.3], 100, 500, seed=5)
    assert np.array_equal(table.samples(0.0), again.samples(0.0))
    with pytest.raises(KeyError):
        table.samples(0.7)
    with pytest.raises(ValueError, match="n must be"):
        sample_sobel_density([0.0], 1, 10)
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_sobel_density([0.0], 2.5, 10)
    with pytest.raises(ValueError, match="reps must be an integer"):
        sample_sobel_density([0.0], 10, True)
    with pytest.raises(ValueError, match="delta_x_list must be finite"):
        sample_sobel_density([0.0, math.inf], 10, 10)
    for bad in BAD_SEEDS:
        with pytest.raises(ValueError, match="seed must"):
            sample_sobel_density([0.0], 10, 10, seed=bad)


def test_sobel_density_output_is_pinned():
    # sha256 of the CSV written when the statistic was one signed quotient
    csv = sample_sobel_density([0.0, 0.3], 100, 500, seed=5).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "25f677d658c674b8543dceca48f5da9b3ee817b142a193273fb27a9e1657249f")


def test_sobel_density_csv_shape():
    table = sample_sobel_density([0.2], 50, 10, seed=1)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "delta_x,sample"
    assert len(lines) == 11
    dx, sample = lines[1].split(",")
    assert float(dx) == 0.2
    float(sample)


def test_an_n_whose_root_overflows_is_refused():
    huge = 10 ** 400  # sqrt(n) would raise OverflowError
    message = "n must be at most 1.7976931348623157e+308, got a 1329-bit integer"
    for call in (lambda: SimSpec(("js",), ((0.0, 0.0),), huge, 10, 1),
                 lambda: sample_sobel_density([0.0], huge, 10),
                 lambda: sample_product_statistic(0.0, huge, 10)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_shifts_past_the_float_range_reject_surely(shipped_bayes_region):
    # sqrt(n)*1e308 is inf at n = 50 and 1.4e308 at n = 2: every method rejects,
    # the Sobel rule included (it used to be NaN there and never reject), with
    # no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 50):
            spec = SimSpec(simulate._METHODS, ((1e308, 1e308), (-1e308, 1e308)), n, 300, 5,
                           bayes_region=shipped_bayes_region)
            assert {row.reject_rate for row in simulate_power(spec).rows} == {1.0}, n
        table = sample_sobel_density([1e308], 2, 50, seed=3)
        assert np.isfinite(table.samples(1e308)).all()


def test_sample_product_statistic():
    stat = sample_product_statistic(0.0, 100, 2000, seed=6)
    assert stat.shape == (2000,)
    assert np.array_equal(stat, sample_product_statistic(0.0, 100, 2000, seed=6))
    # product of two near-standard-normal ratios
    assert 0.8 < float(np.var(stat)) < 1.3
    with pytest.raises(ValueError, match="n must be"):
        sample_product_statistic(0.0, 1, 10)
    with pytest.raises(ValueError, match="reps"):
        sample_product_statistic(0.0, 10, 0)
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_product_statistic(0.0, 2.5, 10)
    with pytest.raises(ValueError, match="reps must be an integer"):
        sample_product_statistic(0.0, 10, True)
    with pytest.raises(ValueError, match="delta_x must be finite"):
        sample_product_statistic(math.nan, 10, 10)
    for bad in BAD_SEEDS:
        with pytest.raises(ValueError, match="seed must"):
            sample_product_statistic(0.0, 10, 10, seed=bad)
