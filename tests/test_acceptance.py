"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Criteria 4-6 share one set of benchmark runs (4 variants plus a
labeled-only control, 5 seeds each) on the default synthetic benchmark in
configs/benchmark.json; everything is seeded, so the numbers reproduce
bit-for-bit across reruns.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from semireg.cli import ExperimentConfig, _fix_malloc_thresholds, build_split, main
from semireg.data import SyntheticSpec, generate_synthetic, split_semi_supervised
from semireg.ensemble import generate_pseudo_labels, predict, variance_reduction_check
from semireg.errors import UsageError
from semireg.evaluation import mae
from semireg.losses import (
    consistency_loss_labeled,
    consistency_loss_unlabeled,
    hetero_loss,
)
from semireg.mlp import (
    MlpConfig,
    backward,
    forward,
    init_model,
    load_model,
    save_model,
    stack_models,
)
from semireg.rng import Rng, sample_dropout_mask
from semireg.training import run_experiment

BENCHMARK = json.loads(
    (Path(__file__).parent.parent / "configs" / "benchmark.json").read_text()
)
SEEDS = BENCHMARK["seeds"]


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------- criterion 1


def _randomize_biases(model, np_rng):
    # central differences are invalid exactly on a relu kink; zero biases can
    # put pre-activations there when a dropout mask zeroes an entire row
    params = dict(model.params)
    for name, p in params.items():
        if name.endswith(".bias"):
            vals = np_rng.uniform(0.05, 0.2, size=p.shape) * np_rng.choice(
                [-1, 1], size=p.shape
            )
            params[name] = vals
    model.params = params


def _full_loss(model_a, model_b, x_lab, y_lab, x_ulb, targets, masks, w):
    y_a, lv_a, _ = forward(model_a, x_lab, masks=masks["a_lab"])
    y_b, lv_b, _ = forward(model_b, x_lab, masks=masks["b_lab"])
    reg_a, _, _ = hetero_loss(y_a, lv_a, y_lab)
    reg_b, _, _ = hetero_loss(y_b, lv_b, y_lab)
    con, _, _ = consistency_loss_labeled(lv_a, lv_b)
    yu_a, lvu_a, _ = forward(model_a, x_ulb, masks=masks["a_ulb"])
    yu_b, lvu_b, _ = forward(model_b, x_ulb, masks=masks["b_ulb"])
    ureg_a, _, _ = hetero_loss(yu_a, targets.log_var, targets.y)
    ureg_b, _, _ = hetero_loss(yu_b, targets.log_var, targets.y)
    ucon_a, _ = consistency_loss_unlabeled(lvu_a, targets.log_var)
    ucon_b, _ = consistency_loss_unlabeled(lvu_b, targets.log_var)
    return reg_a + reg_b + con + w * (ureg_a + ureg_b + ucon_a + ucon_b)


def _full_loss_grads(model_a, model_b, x_lab, y_lab, x_ulb, targets, masks, w):
    grads = {}
    for key, model, lab_masks, ulb_masks in (
        ("a", model_a, masks["a_lab"], masks["a_ulb"]),
        ("b", model_b, masks["b_lab"], masks["b_ulb"]),
    ):
        y, lv, trace = forward(model, x_lab, masks=lab_masks)
        other = model_b if key == "a" else model_a
        _, lv_other, _ = forward(
            other, x_lab, masks=masks["b_lab" if key == "a" else "a_lab"]
        )
        _, d_y, d_lv = hetero_loss(y, lv, y_lab)
        if key == "a":
            _, d_con, _ = consistency_loss_labeled(lv, lv_other)
        else:
            _, _, d_con = consistency_loss_labeled(lv_other, lv)
        lab_grads = backward(model, trace, d_y, d_lv + d_con)

        yu, lvu, trace_u = forward(model, x_ulb, masks=ulb_masks)
        _, d_yu, _ = hetero_loss(yu, targets.log_var, targets.y)
        _, d_lvu = consistency_loss_unlabeled(lvu, targets.log_var)
        ulb_grads = backward(model, trace_u, w * d_yu, w * d_lvu)
        grads[key] = {
            name: lab_grads[name] + ulb_grads[name] for name in lab_grads
        }
    return grads


def test_criterion_1_gradient_correctness():
    started = time.time()
    worst = 0.0
    n_configs = 20
    w = 10.0
    for case in range(n_configs):
        np_rng = np.random.default_rng(case)
        hidden = tuple(int(v) for v in np_rng.integers(1, 9, size=np_rng.integers(1, 4)))
        cfg = MlpConfig(
            input_dim=2,
            hidden_dims=hidden,
            dropout_p=0.25,
            activation="relu" if case % 2 == 0 else "tanh",
        )
        model_a = init_model(cfg, Rng(case))
        model_b = init_model(cfg, Rng(case + 1000))
        _randomize_biases(model_a, np_rng)
        _randomize_biases(model_b, np_rng)
        x_lab = np_rng.normal(size=(3, 2))
        y_lab = np_rng.normal(size=3)
        x_ulb = np_rng.normal(size=(4, 2))

        mask_rng = Rng(5000 + case)
        masks = {}
        for tag, x in (("a_lab", x_lab), ("b_lab", x_lab), ("a_ulb", x_ulb), ("b_ulb", x_ulb)):
            masks[tag] = [
                sample_dropout_mask(mask_rng, x.shape[0], width, cfg.dropout_p)
                for width in hidden
            ]
        targets = generate_pseudo_labels(
            stack_models(model_a, model_b), x_ulb, 2, Rng(9000 + case)
        )

        grads = _full_loss_grads(model_a, model_b, x_lab, y_lab, x_ulb, targets, masks, w)
        h = 1e-6
        for key, model in (("a", model_a), ("b", model_b)):
            for name, base in model.params.items():
                for idx in np.ndindex(base.shape):
                    values = {}
                    for sign in (1.0, -1.0):
                        perturbed = base.copy()
                        perturbed[idx] += sign * h
                        model.params = {**model.params, name: perturbed}
                        values[sign] = _full_loss(
                            model_a, model_b, x_lab, y_lab, x_ulb, targets, masks, w
                        )
                    model.params = {**model.params, name: base}
                    fd = (values[1.0] - values[-1.0]) / (2 * h)
                    analytic = grads[key][name][idx]
                    err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
                    worst = max(worst, err)
    elapsed = time.time() - started
    report(
        1,
        "gradient correctness",
        worst < 1e-5 and elapsed < 60,
        f"{n_configs} configs, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_loss_kernel_oracles():
    import math

    checks = []
    loss, _, _ = hetero_loss(np.array([2.0]), np.array([0.0]), np.array([2.0]))
    checks.append(abs(loss - 0.0) < 1e-12)
    loss, _, _ = hetero_loss(np.array([0.0]), np.array([0.0]), np.array([1.0]))
    checks.append(abs(loss - 0.5) < 1e-12)
    loss, _, _ = hetero_loss(np.array([0.0]), np.array([math.log(4)]), np.array([1.0]))
    checks.append(abs(loss - (0.125 + math.log(4) / 2)) < 1e-12)

    np_rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        n = int(np_rng.integers(1, 8))
        y_hat = np_rng.normal(size=n)
        log_var = np_rng.uniform(-3, 3, size=n)
        y = np_rng.normal(size=n)
        loss, _, _ = hetero_loss(y_hat, log_var, y)
        var = np.exp(log_var)
        nll = -np.mean(-0.5 * np.log(2 * np.pi * var) - (y - y_hat) ** 2 / (2 * var))
        worst = max(worst, abs(loss - (nll - 0.5 * math.log(2 * math.pi))))
    checks.append(worst < 1e-12)
    report(
        2,
        "loss-kernel oracles",
        all(checks),
        f"hand values ok, NLL equivalence worst dev {worst:.2e}",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_variance_reduction():
    started = time.time()
    config_values = dict(BENCHMARK)
    config_values.update({"dropout_p": 0.25, "epochs": 100})
    config = ExperimentConfig.from_dict(
        {k: v for k, v in config_values.items() if k != "seeds"} | {"seeds": SEEDS}
    )
    _, split = build_split(config)
    result = run_experiment(config, split)
    test_normalized = result.normalizer.transform_dataset(split.test)
    rep = variance_reduction_check(
        result.pair, test_normalized, draws=5, reruns=200, rng=Rng(77)
    )
    mse_ok = rep.mse_ensemble <= rep.mse_single + 2 * rep.mse_gap_se
    bias_ok = abs(rep.bias_gap) <= 2 * rep.bias_gap_se
    var_ok = rep.var_ensemble < rep.var_single
    elapsed = time.time() - started
    report(
        3,
        "variance reduction",
        mse_ok and bias_ok and var_ok and elapsed < 300,
        f"mse {rep.mse_single:.4f}->{rep.mse_ensemble:.4f} (se {rep.mse_gap_se:.1e}), "
        f"bias gap {rep.bias_gap:.2e} (se {rep.bias_gap_se:.1e}), "
        f"var {rep.var_single:.2e}->{rep.var_ensemble:.2e}, {elapsed:.0f}s",
    )


# ------------------------------------------------------- criteria 4-6 fixture


def _pin_worker(counter):
    # Pin this pool worker to a CPU of its own. The workers fill every core,
    # so none is left for a mask helper, and one usable CPU starts none (a
    # helper needs Linux, where affinity can be set).
    with counter.get_lock():
        index = counter.value
        counter.value += 1
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    _fix_malloc_thresholds()


@pytest.fixture(scope="module")
def benchmark_runs():
    """All ablation cells plus the labeled-only control, 5 seeds each.

    Each run is a pure function of its config and split, so the runs are
    spread over one spawned worker process per core, each pinned to its core.
    """
    started = time.time()
    jobs = {}
    for seed in SEEDS:
        seeded = ExperimentConfig.from_dict({**BENCHMARK, "seed": seed})
        _, split = build_split(seeded)
        for variant in ("baseline", "baseline_con", "baseline_ens", "full"):
            cfg = ExperimentConfig.from_dict({**BENCHMARK, "seed": seed, "variant": variant})
            jobs[(variant, seed)] = (cfg, split)
        w0 = ExperimentConfig.from_dict(
            {**BENCHMARK, "seed": seed, "variant": "full", "unlabeled_weight": 0.0}
        )
        jobs[("labeled_only", seed)] = (w0, split)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        min(os.cpu_count() or 1, len(jobs)),
        mp_context=context,
        initializer=_pin_worker,
        initargs=(context.Value("i", 0),),
    ) as pool:
        results = pool.map(run_experiment, *zip(*jobs.values()), timeout=1800)
        runs = dict(zip(jobs, results))
    runs["elapsed"] = time.time() - started
    return runs


def _maes(runs, variant):
    return np.array([runs[(variant, seed)].test_mae for seed in SEEDS])


def test_criterion_4_ablation_ordering(benchmark_runs):
    base = _maes(benchmark_runs, "baseline")
    con = _maes(benchmark_runs, "baseline_con")
    ens = _maes(benchmark_runs, "baseline_ens")
    full = _maes(benchmark_runs, "full")
    paired = base - full
    paired_se = paired.std(ddof=1) / np.sqrt(len(SEEDS))
    gap_ratio = paired.mean() / paired_se
    ok = (
        full.mean() < base.mean()
        and con.mean() < base.mean()
        and ens.mean() < base.mean()
        and gap_ratio > 1.0
        and benchmark_runs["elapsed"] < 1800
    )
    report(
        4,
        "ablation ordering",
        ok,
        f"mae base={base.mean():.4f} con={con.mean():.4f} ens={ens.mean():.4f} "
        f"full={full.mean():.4f}; full-vs-base gap {paired.mean():.4f} = "
        f"{gap_ratio:.2f} paired SE; {benchmark_runs['elapsed']:.0f}s for all runs",
    )


def test_criterion_5_uncertainty_quality(benchmark_runs):
    wins = 0
    bins_ok = True
    all_positive = True
    details = []
    for seed in SEEDS:
        rho_base = benchmark_runs[("baseline", seed)].uncertainty_error_spearman
        rho_con = benchmark_runs[("baseline_con", seed)].uncertainty_error_spearman
        wins += rho_con > rho_base
        all_positive = all_positive and rho_con > 0
        br = benchmark_runs[("baseline_con", seed)].bin_report
        increasing = br.pseudo_label_mse[0] < br.pseudo_label_mse[-1]
        bins_ok = bins_ok and increasing
        details.append(f"s{seed}: {rho_base:.2f}->{rho_con:.2f}{'' if increasing else ' bins!'}")
    report(
        5,
        "uncertainty-quality effect",
        wins >= 4 and bins_ok and all_positive,
        f"spearman wins {wins}/5 (all positive: {all_positive}); "
        f"first<last bin in all seeds: {bins_ok}; " + " ".join(details),
    )


def test_criterion_6_semi_supervised_gain(benchmark_runs):
    full = _maes(benchmark_runs, "full")
    labeled_only = _maes(benchmark_runs, "labeled_only")
    ok = full.mean() < labeled_only.mean()
    report(
        6,
        "semi-supervised gain",
        ok,
        f"full(w=10) mae {full.mean():.4f} vs labeled-only {labeled_only.mean():.4f} "
        f"({(labeled_only > full).sum()}/5 seeds)",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_reproducibility(tmp_path):
    quick = json.loads((Path(__file__).parent.parent / "configs" / "quick.json").read_text())
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(quick))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["train", "--config", str(config_path), "--out", str(out1)])
    rc2 = main(["train", "--config", str(config_path), "--out", str(out2)])
    metrics_same = (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    model = load_model(out1 / "model_a.json")
    save_model(model, tmp_path / "resaved.json")
    reloaded = load_model(tmp_path / "resaved.json")
    save_model(reloaded, tmp_path / "resaved2.json")
    roundtrip_same = (tmp_path / "resaved.json").read_bytes() == (
        tmp_path / "resaved2.json"
    ).read_bytes()
    params_same = all(
        np.array_equal(model.params[n], reloaded.params[n]) for n in model.params
    )
    ok = rc1 == 0 and rc2 == 0 and metrics_same and roundtrip_same and params_same
    report(
        7,
        "reproducibility",
        ok,
        f"metrics byte-identical: {metrics_same}; checkpoint round-trip exact: "
        f"{roundtrip_same and params_same}",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_degenerate_cases():
    checks = {}

    # dropout 0 collapses ensembling to the deterministic average
    cfg = MlpConfig(input_dim=1, hidden_dims=(6,), dropout_p=0.0)
    model_a = init_model(cfg, Rng(1))
    model_b = init_model(cfg, Rng(2))
    x = np.linspace(-1, 1, 8).reshape(-1, 1)
    det = 0.5 * (forward(model_a, x)[0] + forward(model_b, x)[0])
    for draws in (1, 7):
        y, _ = predict(stack_models(model_a, model_b), x=x, draws=draws, rng=Rng(3))
        checks[f"vme collapse T={draws}"] = bool(np.allclose(y, det, atol=1e-14))

    # all-zero log variance reduces the loss to MSE/2 exactly
    np_rng = np.random.default_rng(4)
    y_hat, y = np_rng.normal(size=30), np_rng.normal(size=30)
    loss, _, _ = hetero_loss(y_hat, np.zeros(30), y)
    checks["hetero==MSE/2"] = loss == np.mean((y_hat - y) ** 2) / 2

    # label_fraction=1 leaves an empty unlabeled set; training then requires w=0
    data = generate_synthetic(SyntheticSpec(n_samples=80, input_dim=1, seed=5))
    split = split_semi_supervised(data, 1.0, 0.1, 0.2, Rng(6))
    checks["boundary split empty unlabeled"] = split.unlabeled.n == 0
    small = ExperimentConfig(epochs=1, hidden_dims=(4,), batch_labeled=8, batch_unlabeled=8)
    try:
        run_experiment(small, split)
        checks["w>0 empty unlabeled rejected"] = False
    except UsageError:
        checks["w>0 empty unlabeled rejected"] = True
    w0 = ExperimentConfig(
        epochs=1, hidden_dims=(4,), batch_labeled=8, batch_unlabeled=8, unlabeled_weight=0.0
    )
    result = run_experiment(w0, split)
    checks["w=0 empty unlabeled trains"] = bool(np.isfinite(result.test_mae))

    # p=0 dropout mask is all ones
    mask = sample_dropout_mask(Rng(7), 5, 5, 0.0)
    checks["p=0 mask all ones"] = bool(np.all(mask == 1.0))

    failed = [name for name, ok in checks.items() if not ok]
    report(
        8,
        "degenerate-case suite",
        not failed,
        f"{len(checks)} checks" + (f"; failed: {failed}" if failed else ""),
    )
