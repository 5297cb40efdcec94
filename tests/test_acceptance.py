"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The synthetic-scenario
criteria (1-3) share two module-scoped sweeps at desk scale: the leaf
cells use one seed with 5 repeats x 5 folds; the core cells average 5
seeds. Expect the full module to take about two minutes on a 2-core
machine (123 s in one run).
"""

import time

import numpy as np
import pytest

from stmkernels.decomp import (
    KruskalTensor,
    TuckerTensor,
    tt_svd,
    tt_to_cp,
    kruskal_reconstruct,
    tt_reconstruct,
    tucker_reconstruct,
    tucker_to_cp,
    weighted_hosvd,
)
from stmkernels.harness import ExperimentConfig, run_experiment
from stmkernels.kernels import KernelSpec, dusk_kernel, gram_matrix, wsek_kernel
from stmkernels.svm import TrainingSet, decision_from_gram, train
from stmkernels.synth import SynthConfig

from oracles import qp_decision, qp_reference

DESK = dict(mode_size=50, r_exact=3, r_approx=3, samples_per_class=20)
KERNELS = ("gaussian", "dusk", "subspace", "wsek")
NOISES = (0.01, 0.1)
CORE_SEEDS = (0, 1, 2, 3, 4)


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _desk_experiment(scenario, theta2, seed, repeats):
    return ExperimentConfig(
        synth=SynthConfig(scenario=scenario, seed=seed, **DESK),
        noise_grid=(theta2,),
        kernels=KERNELS,
        rank_grid=(3,),
        repeats=repeats,
        folds=5,
        seed=seed,
        threads=1,
        measure_time=False,
    )


@pytest.fixture(scope="module")
def leaf_cells():
    """{theta2: {kernel: mean_acc}} plus the wall-clock seconds of the
    whole leaf sweep (generation + experiments, single-threaded)."""
    t0 = time.perf_counter()
    cells = {}
    for theta2 in NOISES:
        rep = run_experiment(_desk_experiment("leaf", theta2, seed=0, repeats=5))
        cells[theta2] = {r.kernel: r.mean_acc for r in rep.rows}
    return cells, time.perf_counter() - t0


@pytest.fixture(scope="module")
def core_cells():
    """{theta2: {kernel: accuracy averaged over 5 seeds}}."""
    sums = {t: {k: [] for k in KERNELS} for t in NOISES}
    for theta2 in NOISES:
        for seed in CORE_SEEDS:
            rep = run_experiment(
                _desk_experiment("core", theta2, seed=seed, repeats=5))
            for r in rep.rows:
                sums[theta2][r.kernel].append(r.mean_acc)
    return {t: {k: float(np.mean(v)) for k, v in d.items()}
            for t, d in sums.items()}


def test_criterion_1_leaf_fidelity(leaf_cells):
    cells, elapsed = leaf_cells
    detail = []
    ok = True
    for theta2 in NOISES:
        acc = cells[theta2]
        detail.append(
            f"theta2={theta2}: subspace={acc['subspace']:.3f} "
            f"wsek={acc['wsek']:.3f} dusk={acc['dusk']:.3f}")
        ok &= acc["subspace"] >= 0.98
        ok &= acc["wsek"] >= 0.90
        ok &= acc["dusk"] >= 0.90
    ok &= elapsed < 600.0
    detail.append(f"runtime={elapsed:.0f}s (< 600s required)")
    assert _report(1, ok, "leaf-scenario fidelity | " + "; ".join(detail))


def test_criterion_2_core_ordering(core_cells):
    wsek = np.mean([core_cells[t]["wsek"] for t in NOISES])
    gauss = np.mean([core_cells[t]["gaussian"] for t in NOISES])
    sub = np.mean([core_cells[t]["subspace"] for t in NOISES])
    ok = (wsek >= sub + 0.10) and (gauss >= sub + 0.10)
    assert _report(
        2, ok,
        f"core-scenario ordering | mean over 5 seeds x noises: "
        f"wsek={wsek:.3f} gaussian={gauss:.3f} subspace={sub:.3f} "
        f"(both must exceed subspace by 0.10)")


def test_criterion_3_robustness(leaf_cells, core_cells):
    leaf, _ = leaf_cells
    all_cells = {("leaf", t): leaf[t] for t in NOISES}
    all_cells.update({("core", t): core_cells[t] for t in NOISES})
    ok = True
    detail = []
    for cell, accs in sorted(all_cells.items()):
        best = max(accs.values())
        gap = best - accs["wsek"]
        ok &= gap <= 0.05
        detail.append(f"{cell[0]}/theta2={cell[1]}: wsek={accs['wsek']:.3f} "
                      f"best={best:.3f} gap={gap:.3f}")
    assert _report(3, ok, "wsek robustness (gap <= 0.05 per cell) | "
                   + "; ".join(detail))


def test_criterion_4_smo_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    worst_obj = 0.0
    mismatches = 0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        pts = rng.standard_normal((n + 4, 3))
        y = rng.choice([-1.0, 1.0], size=n)
        if np.all(y > 0) or np.all(y < 0):
            y[0] = -y[0]
        g = float(rng.uniform(0.6, 2.5))
        c = float(rng.choice([0.1, 1.0, 10.0]))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        k_full = np.exp(-d2 / (2 * g * g))
        k = k_full[:n, :n]
        model = train(TrainingSet(list(range(n)), y), k, c, tol=1e-10)
        alpha_ref, bias_ref, obj_ref = qp_reference(k, y, c)
        worst_obj = max(worst_obj, abs(model.dual_objective - obj_ref))
        for t in range(n, n + 4):
            d_ref = qp_decision(k_full[:n, t], alpha_ref, y, bias_ref)
            if abs(d_ref) < 1e-8:
                continue
            checked += 1
            d_smo = float(decision_from_gram(model, k_full[:n, t]))
            pred_smo = 1.0 if d_smo >= 0 else -1.0
            if pred_smo != np.sign(d_ref):
                mismatches += 1
    ok = worst_obj <= 1e-6 and mismatches == 0
    assert _report(
        4, ok,
        f"SMO vs QP oracle on 200 instances | worst objective gap "
        f"{worst_obj:.2e} (<= 1e-6), {mismatches} prediction mismatches "
        f"out of {checked}")


def test_criterion_5_kernel_psd_suite():
    rng = np.random.default_rng(7)
    n = 30
    tucker = [weighted_hosvd(rng.standard_normal((15, 18, 12)), (3, 2, 3),
                             p=1 / 3) for _ in range(n)]
    kruskal = [KruskalTensor([rng.standard_normal((i, 3))
                              for i in (15, 18, 12)]) for _ in range(n)]
    ok = True
    detail = []
    for kind in KERNELS:
        samples = kruskal if kind == "dusk" else tucker
        k = gram_matrix(samples, KernelSpec(kind, g=1.5))
        eig = np.linalg.eigvalsh(k)
        bound = -1e-8 * eig.max()
        ok &= eig.min() >= bound
        detail.append(f"{kind}: min_eig={eig.min():.2e} (>= {bound:.2e})")
    assert _report(5, ok, "Gram PSD suite (30 samples each) | "
                   + "; ".join(detail))


def test_criterion_6_decomposition_exactness():
    rng = np.random.default_rng(11)
    ok = True
    detail = []

    errs = []
    for shape in ((6, 6, 6), (5, 7, 4), (4, 4, 4, 4)):
        t = rng.standard_normal(shape)
        tt = weighted_hosvd(t, shape, p=1 / len(shape))
        errs.append(np.linalg.norm(tucker_reconstruct(tt) - t)
                    / np.linalg.norm(t))
    ok &= max(errs) <= 1e-10
    detail.append(f"full-rank reconstruction max rel err {max(errs):.2e}")

    t = rng.standard_normal((6, 6, 6))
    tk = weighted_hosvd(t, (3, 3, 3), p=1 / 3)
    rec = tucker_reconstruct(tk)
    e1 = np.linalg.norm(kruskal_reconstruct(tucker_to_cp(tk)) - rec) \
        / np.linalg.norm(rec)
    tt = tt_svd(t, (3, 3))
    rec2 = tt_reconstruct(tt)
    e2 = np.linalg.norm(kruskal_reconstruct(tt_to_cp(tt)) - rec2) \
        / np.linalg.norm(rec2)
    ok &= e1 <= 1e-10 and e2 <= 1e-10
    detail.append(f"tucker_to_cp err {e1:.2e}, tt_to_cp err {e2:.2e}")

    a = weighted_hosvd(t, (2, 2, 2), p=1 / 3)
    b = weighted_hosvd(t.copy(), (2, 2, 2), p=1 / 3)
    bitwise = np.array_equal(a.core, b.core) and all(
        np.array_equal(fa, fb) for fa, fb in zip(a.factors, b.factors))
    ok &= bitwise
    detail.append(f"sign-fix rerun bitwise identical: {bitwise}")
    assert _report(6, ok, "decomposition exactness | " + "; ".join(detail))


def _median_entry_seconds(fn, pairs, reps):
    times = []
    for _ in range(reps):
        for a, b in pairs:
            t0 = time.perf_counter()
            fn(a, b)
            times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _synthetic_tucker(rng, mode_size, rank, p):
    factors = []
    sigmas = []
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((mode_size, rank)))
        s = np.sort(rng.uniform(0.5, 3.0, rank))[::-1]
        factors.append(q * (s ** p)[None, :])
        sigmas.append(s)
    core = rng.standard_normal((rank,) * 3)
    return TuckerTensor(core=core, factors=factors, sigmas=sigmas, p=p)


def test_criterion_7_complexity_scaling():
    rng = np.random.default_rng(13)
    g = 1.0

    # wsek: linear in the mode size at fixed rank
    med = {}
    for size in (100, 200):
        pairs = [( _synthetic_tucker(rng, size, 3, 1 / 3),
                   _synthetic_tucker(rng, size, 3, 1 / 3)) for _ in range(4)]
        wsek_kernel(*pairs[0], g)  # warm up
        med[size] = _median_entry_seconds(lambda a, b: wsek_kernel(a, b, g),
                                          pairs, reps=60)
    wsek_ratio = med[200] / med[100]

    # dusk on Tucker-converted inputs: rank blow-up R -> R^(2M)
    dmed = {}
    for rank in (2, 4):
        pairs = []
        for _ in range(4):
            a = tucker_to_cp(_synthetic_tucker(rng, 50, rank, 0.0))
            b = tucker_to_cp(_synthetic_tucker(rng, 50, rank, 0.0))
            pairs.append((a, b))
        dusk_kernel(*pairs[0], g)
        dmed[rank] = _median_entry_seconds(lambda a, b: dusk_kernel(a, b, g),
                                           pairs, reps=40)
    dusk_ratio = dmed[4] / dmed[2]

    ok = wsek_ratio <= 3.0 and dusk_ratio >= 10.0
    assert _report(
        7, ok,
        f"complexity scaling | wsek I=100->200 time ratio {wsek_ratio:.2f} "
        f"(<= 3), dusk R=2->4 time ratio {dusk_ratio:.1f} (>= 10)")


def test_criterion_8_end_to_end_determinism(tmp_path):
    cfg_text = (
        "scenario = leaf\n"
        "mode_size = 16\n"
        "r_exact = 2\n"
        "r_approx = 2\n"
        "samples_per_class = 6\n"
        "noise_grid = 0.01, 0.1\n"
        "kernels = gaussian, subspace, wsek\n"
        "rank_grid = 2\n"
        "c_grid_log2 = -2:2\n"
        "g_grid_log2 = -1:2\n"
        "repeats = 2\n"
        "folds = 3\n"
        "seed = 9\n"
        "measure_time = false\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text)

    from stmkernels.cli import main
    outs = []
    for name in ("r1", "r2"):
        rc = main(["run", "--config", str(cfg_path), "--threads", "1",
                   "--output", str(tmp_path / name)])
        assert rc == 0
        outs.append((tmp_path / name / "report.csv").read_bytes())
    byte_identical = outs[0] == outs[1]

    rc = main(["run", "--config", str(cfg_path), "--threads", "4",
               "--output", str(tmp_path / "r4")])
    assert rc == 0
    base = (tmp_path / "r1" / "report.csv").read_text().strip().splitlines()
    threaded = (tmp_path / "r4" / "report.csv").read_text().strip().splitlines()
    max_dev = 0.0
    assert base[0] == threaded[0]
    for row_a, row_b in zip(base[1:], threaded[1:]):
        fa, fb = row_a.split(","), row_b.split(",")
        assert fa[0] == fb[0]
        for va, vb in zip(fa[1:], fb[1:]):
            max_dev = max(max_dev, abs(float(va) - float(vb)))
    ok = byte_identical and max_dev <= 1e-12
    assert _report(
        8, ok,
        f"end-to-end determinism | threads=1 reruns byte-identical: "
        f"{byte_identical}; threads=4 max field deviation {max_dev:.1e} "
        f"(<= 1e-12)")
