"""End-to-end acceptance checks for the sketch-and-recover pipeline.

Every test prints one `acceptance NN PASS|FAIL ...` line on the real stdout
(outside pytest's capture) so the whole verdict is readable at a glance, then
asserts its clauses. The docstrings of test_03 (super-diagonal tail baseline)
and test_runtime (sketch outweighs recovery) describe why both failed while
one-pass recovery truncated each mode on its own and took full thin SVDs of
the sketches; they pass since recovery truncates all modes jointly and
computes only the left singular vectors it needs. Heavy trial batches live in
session fixtures so the envelope test can reuse them.
"""

import csv
import json
import sys
import time
from functools import reduce

import numpy as np
import pytest

from tsketch import (
    SketchAccumulator,
    SlabChunk,
    add_noise_snr,
    bound_rhs,
    derive_seed,
    gen_lowrank,
    gen_superdiag_exp,
    make_plan,
    materialize,
    norm,
    one_pass,
    read_bundle,
    reconstruct,
    recover_core_onepass,
    recover_factors,
    relative_error,
    sketch,
    tail_baseline,
    tail_energy,
    two_pass,
    unfold,
    vec,
    write_bundle,
)
from tsketch.cli import main

SHAPE = (100, 100, 100)


@pytest.fixture(scope="session")
def report(request):
    """Emit one `acceptance NN PASS|FAIL ...` line outside pytest's capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(tag, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        line = f"acceptance {tag} {verdict} {detail}"
        if capman is None:
            print(line, file=sys.__stdout__, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)

    return emit


def noisy_trial(crit, vidx, trial, kind="kronecker", m=50, m_c=100, family="gaussian"):
    """One instance of the shared noisy protocol: n=100, r=10, 30 dB."""
    x0, _ = gen_lowrank(100, 3, 10, derive_seed(0, "accept-gen", crit, vidx, trial))
    x = add_noise_snr(x0, 30.0, derive_seed(0, "accept-noise", crit, vidx, trial))
    plan = make_plan(SHAPE, kind, m, m_c, loo_family=family,
                     seed=derive_seed(0, "accept", crit, vidx, trial))
    return x0, x, sketch(x, plan)


@pytest.fixture(scope="session")
def c2_runs():
    t0 = time.perf_counter()
    rows = []
    for trial in range(50):
        x0, x, b = noisy_trial(2, 0, trial)
        x1 = reconstruct(one_pass(b, 10))
        x2 = reconstruct(two_pass(b, x, 10))
        deltas = [tail_energy(x, 10, j) for j in (1, 2, 3)]
        rows.append({
            "e1": relative_error(x1, x, x0),
            "e2": relative_error(x2, x, x0),
            "resid": norm(x1 - x),
            "bound": bound_rhs(0.99, deltas),
        })
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def c3_runs():
    t0 = time.perf_counter()
    x = gen_superdiag_exp(100, 3, 10)
    deltas = [tail_energy(x, 10, j) for j in (1, 2, 3)]
    bound = bound_rhs(0.99, deltas)
    xnorm = norm(x)
    rows, medians = [], []
    witness = 0
    for m in (20, 40, 80):
        errs = []
        for trial in range(40):
            plan = make_plan(SHAPE, "kronecker", m, 2 * m,
                             seed=derive_seed(0, "accept", 3, m, trial))
            b = sketch(x, plan)
            resid = norm(reconstruct(one_pass(b, 10)) - x)
            errs.append(resid / xnorm)
            rows.append({"resid": resid, "bound": bound})
            if m == 80:
                x2 = reconstruct(two_pass(b, x, 10))
                witness += norm(x - x2) ** 2 <= 3.0 * sum(deltas)
        medians.append(float(np.median(errs)))
    return {
        "rows": rows,
        "medians": medians,
        "baseline": tail_baseline(x, 10),
        "witness": witness,
        "elapsed": time.perf_counter() - t0,
    }


def test_01_perfect_recovery(report):
    t0 = time.perf_counter()
    hits = 0
    for trial in range(50):
        x0, _ = gen_lowrank(40, 3, 5, derive_seed(0, "accept-gen", 1, 0, trial))
        plan = make_plan((40, 40, 40), "kronecker", 15, 15,
                         seed=derive_seed(0, "accept", 1, 0, trial))
        f = one_pass(sketch(x0, plan), 5)
        hits += relative_error(reconstruct(f), x0) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = hits >= 48 and elapsed < 10.0
    report("01", ok, f"exact low-rank inputs: {hits}/50 trials at 1e-8 ({elapsed:.1f}s)")
    assert hits >= 48  # 95% of 50
    assert elapsed < 10.0


def test_02_noise_floor(c2_runs, report):
    med1 = float(np.median([r["e1"] for r in c2_runs["rows"]]))
    med2 = float(np.median([r["e2"] for r in c2_runs["rows"]]))
    ok = med1 <= 5e-3 and med2 <= med1 and c2_runs["elapsed"] < 120.0
    report("02", ok, f"noise floor at 30 dB: one-pass median {med1:.2e}, "
                     f"two-pass {med2:.2e} ({c2_runs['elapsed']:.0f}s)")
    assert med1 <= 5e-3
    assert med2 <= med1
    assert c2_runs["elapsed"] < 120.0


def test_03_superdiag_convergence(c3_runs, report):
    """Exp-decay diagonal tensors, truncated at r below the flat leading block.

    The leading r+1 diagonal entries are all 1, so every mode unfolding has an
    (r+1)-fold tie at its r-th singular value. Each sketched factor picks an
    essentially arbitrary r-dimensional slice of that block, the three modes
    pick inconsistently, and the recovered tensor loses close to one unit of
    energy per mode instead of one unit total: the error settles near sqrt(3)
    times the tail norm. A deterministic full SVD hits the tail norm only
    because it breaks the tie the same way in all modes. The final clause
    asserts the 1.10x target anyway and is expected red; the printed line
    carries the measured ratio.
    """
    meds = c3_runs["medians"]
    base = c3_runs["baseline"]
    mono = meds[0] >= meds[1] >= meds[2]
    near = meds[2] <= 1.10 * base
    ok = mono and near and c3_runs["elapsed"] < 120.0
    report("03", ok, f"superdiag medians {meds[0]:.3f}/{meds[1]:.3f}/{meds[2]:.3f} "
                     f"vs tail baseline {base:.3f} ({meds[2] / base:.2f}x at m=80, "
                     f"target 1.10x)")
    assert mono
    assert c3_runs["elapsed"] < 120.0
    assert near


def test_04_error_bound_envelope(c2_runs, c3_runs, report):
    rows = c2_runs["rows"] + c3_runs["rows"]
    violations = sum(r["resid"] > r["bound"] for r in rows)
    witness = c3_runs["witness"]
    ok = violations == 0 and witness >= 38
    report("04", ok, f"residual under the envelope in {len(rows) - violations}/{len(rows)} "
                     f"trials; two-pass witness {witness}/40 at m=80")
    assert violations == 0
    assert witness >= 38  # 95% of 40


def test_05_storage_accounting(tmp_path, report):
    x = np.random.default_rng(derive_seed(0, "accept", 5, 0, 0)).standard_normal((6, 6, 6))
    for kind in ("kronecker", "khatri_rao"):
        for m in (2, 3):
            for m_c in (2, 4):
                plan = make_plan(x.shape, kind, m, m_c,
                                 seed=derive_seed(0, "accept", 5, m, m_c))
                path = tmp_path / f"{kind}-{m}-{m_c}.tskb"
                write_bundle(path, sketch(x, plan))
                back = read_bundle(path)
                stored = sum(arr.size for arr in back.loo) + back.core.size
                if kind == "kronecker":
                    assert stored == 6 * 3 * m ** 2 + m_c ** 3
                else:
                    assert stored == 3 * m * 6 + m_c ** 3

    # The experiment CSV must report the same numbers across its sweep grid.
    cfg = {
        "generator": "lowrank", "n": 8, "d": 3, "r_true": 2, "r_fit": 2,
        "m": [3, 4], "m_c": [3, 4], "trials": 1, "seed": 5,
        "variants": [{"loo_kind": "kronecker"}, {"loo_kind": "khatri_rao"}],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert main(["experiment", "--config", str(cfg_path), "--output", str(out)]) == 0
    with out.open() as f:
        assert f.readline().startswith("# tsketch-csv v")
        rows = list(csv.DictReader(f))
    assert len(rows) == 8
    for row in rows:
        n, m, m_c = int(row["n"]), int(row["m"]), int(row["m_c"])
        if row["loo_kind"] == "kronecker":
            expect = n * 3 * m ** 2 + m_c ** 3
        else:
            expect = 3 * m * n + m_c ** 3
        assert int(row["storage_total_entries"]) == expect
    report("05", True, "stored entry counts match the closed forms on bundles and CSV rows")


def test_06_structured_tradeoff(report):
    t0 = time.perf_counter()
    meds, shapes = {}, {}
    for vidx, (kind, m) in enumerate([("kronecker", 25), ("khatri_rao", 225)]):
        errs = []
        for trial in range(50):
            x0, x, b = noisy_trial(6, vidx, trial, kind=kind, m=m, m_c=50)
            if trial == 0:
                shapes[kind] = {bj.shape for bj in b.loo}
            errs.append(relative_error(reconstruct(one_pass(b, 10)), x, x0))
        meds[kind] = float(np.median(errs))
    spread = max(meds.values()) / min(meds.values())
    ok = (shapes["kronecker"] == {(100, 625)} and shapes["khatri_rao"] == {(100, 225)}
          and spread <= 2.0)
    report("06", ok, f"kron 100x625 median {meds['kronecker']:.2e} vs khatri-rao 100x225 "
                     f"median {meds['khatri_rao']:.2e} ({time.perf_counter() - t0:.0f}s)")
    assert shapes["kronecker"] == {(100, 625)}
    assert shapes["khatri_rao"] == {(100, 225)}
    assert spread <= 2.0


def test_07_streaming_equals_batch(report):
    worst = 0.0
    for inst in range(20):
        x = np.random.default_rng(derive_seed(0, "accept-gen", 7, 0, inst)).standard_normal((30, 30, 30))
        for kidx, (kind, m) in enumerate([("kronecker", 4), ("khatri_rao", 10), ("unstructured", 10)]):
            plan = make_plan(x.shape, kind, m, 5, seed=derive_seed(0, "accept", 7, kidx, inst))
            ref = sketch(x, plan)
            for slabs in (1, 2, 7):
                acc = SketchAccumulator(plan)
                for part in np.array_split(np.arange(30), slabs):
                    lo = int(part[0])
                    acc.update(SlabChunk(lo, len(part), x[..., lo:lo + len(part)]))
                got = acc.finalize()
                for a, b in zip(list(ref.loo) + [ref.core], list(got.loo) + [got.core]):
                    worst = max(worst, float(np.linalg.norm(a - b) / np.linalg.norm(a)))
    ok = worst <= 1e-10
    report("07", ok, f"chunked vs batch over 20 instances x 3 kinds x {{1,2,7}} slabs: "
                     f"worst relative gap {worst:.1e}")
    assert worst <= 1e-10


def test_08_small_instance_oracles(report):
    # Modewise core sketch against the one big explicit operator.
    x = np.random.default_rng(derive_seed(0, "accept", 8, 0, 0)).standard_normal((4, 3, 2))
    plan = make_plan(x.shape, "kronecker", 2, 2, seed=derive_seed(0, "accept", 8, 0, 1))
    b = sketch(x, plan)
    phis = [materialize(plan.core_spec(i)) for i in (1, 2, 3)]
    oracle = reduce(np.kron, phis[::-1]) @ vec(x)
    err_core = float(np.linalg.norm(vec(b.core) - oracle) / np.linalg.norm(oracle))

    err_loo = 0.0
    for j in (1, 2, 3):
        others = [materialize(plan.loo_spec(i)) for i in (3, 2, 1) if i != j]
        expect = unfold(x, j) @ reduce(np.kron, others).T
        err_loo = max(err_loo, float(np.linalg.norm(b.loo[j - 1] - expect) / np.linalg.norm(expect)))

    # Khatri-Rao sketch against the row-by-row fiber loop.
    kplan = make_plan(x.shape, "khatri_rao", 5, 2, seed=derive_seed(0, "accept", 8, 0, 2))
    kb = sketch(x, kplan)
    err_khat = 0.0
    for j in (1, 2, 3):
        others = [materialize(kplan.loo_spec(i)) for i in (3, 2, 1) if i != j]
        rows = [np.kron(others[0][p], others[1][p]) for p in range(kplan.m)]
        expect = unfold(x, j) @ (np.asarray(rows) * kplan.khat_scale()).T
        err_khat = max(err_khat, float(np.linalg.norm(kb.loo[j - 1] - expect) / np.linalg.norm(expect)))

    # One-pass core solve against the direct pseudo-inverse of the full system.
    x0, _ = gen_lowrank(12, 3, 3, derive_seed(0, "accept-gen", 8, 0, 3))
    plan2 = make_plan((12, 12, 12), "kronecker", 6, 6, seed=derive_seed(0, "accept", 8, 0, 4))
    b2 = sketch(x0, plan2)
    qs = recover_factors(b2, 3)
    phis2 = [materialize(plan2.core_spec(i)) for i in (1, 2, 3)]
    system = reduce(np.kron, [phis2[2] @ qs[2], phis2[1] @ qs[1], phis2[0] @ qs[0]])
    direct = np.linalg.pinv(system) @ vec(b2.core)
    got = recover_core_onepass(b2.core, phis2, qs)
    err_solve = float(np.linalg.norm(vec(got) - direct) / np.linalg.norm(direct))

    ok = err_core <= 1e-12 and err_loo <= 1e-12 and err_khat <= 1e-12 and err_solve <= 1e-10
    report("08", ok, f"explicit-operator oracles: core {err_core:.1e}, loo {err_loo:.1e}, "
                     f"khatri-rao {err_khat:.1e}, core solve {err_solve:.1e}")
    assert err_core <= 1e-12
    assert err_loo <= 1e-12
    assert err_khat <= 1e-12
    assert err_solve <= 1e-10


def test_09_budget_allocation(report):
    t0 = time.perf_counter()
    meds = []
    for vidx, (m, m_c) in enumerate([(13, 12), (11, 36)]):
        errs = []
        for trial in range(100):
            x0, x, b = noisy_trial(9, vidx, trial, m=m, m_c=m_c)
            errs.append(relative_error(reconstruct(one_pass(b, 10)), x, x0))
        meds.append(float(np.median(errs)))
    ok = meds[1] < meds[0]
    report("09", ok, f"(m,m_c)=(13,12) median {meds[0]:.2e} vs (11,36) {meds[1]:.2e} "
                     f"({time.perf_counter() - t0:.0f}s)")
    assert meds[1] < meds[0]


def test_10_ensemble_robustness(c2_runs, report):
    t0 = time.perf_counter()
    meds = {"gaussian": float(np.median([r["e1"] for r in c2_runs["rows"]]))}
    for vidx, family in enumerate(("sparse_sign", "srtt", "mix"), start=1):
        errs = []
        for trial in range(50):
            x0, x, b = noisy_trial(10, vidx, trial, family=family)
            errs.append(relative_error(reconstruct(one_pass(b, 10)), x, x0))
        meds[family] = float(np.median(errs))
    spread = max(meds.values()) / min(meds.values())
    ok = spread <= 2.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in meds.items())
    report("10", ok, f"medians {detail}: spread {spread:.2f}x ({time.perf_counter() - t0:.0f}s)")
    assert spread <= 2.0


def test_runtime_sketch_phase(report):
    """The contraction-heavy sketch phase should outweigh recovery.

    That holds asymptotically and measures about 6x at n=300, but at the
    pinned n=100, m=25 the three thin SVDs inside recovery still cost more
    than the sketch contractions on a single-core BLAS. Expected red here;
    the printed line carries the measured split. Comparing minima rather
    than medians keeps the verdict stable: timing noise is additive, so the
    minimum over repeats estimates the intrinsic cost of each phase.
    """
    x0, _ = gen_lowrank(100, 3, 10, derive_seed(0, "accept-gen", 11, 0, 0))
    plan = make_plan(SHAPE, "kronecker", 25, 50, seed=derive_seed(0, "accept", 11, 0, 0))
    bundle = sketch(x0, plan)
    one_pass(bundle, 10)  # warm the BLAS/LAPACK paths before timing
    t_sketch, t_recover = [], []
    for _ in range(15):
        t0 = time.perf_counter()
        bundle = sketch(x0, plan)
        t_sketch.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        one_pass(bundle, 10)
        t_recover.append(time.perf_counter() - t0)
    ms, mr = min(t_sketch), min(t_recover)
    ok = ms > mr
    report("runtime", ok, f"sketch {ms * 1e3:.1f} ms vs recovery {mr * 1e3:.1f} ms at n=100, m=25")
    assert ms > mr
