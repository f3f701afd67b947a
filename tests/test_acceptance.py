"""End-to-end acceptance suite.

Fifteen numbered criteria cover the package surface: invariants and the
geometry scan, the delta-family closed forms, Mermin extremization and the
local-realism boundary, trials-to-refute reports, the likelihood-ratio
simulation, state-representation identities, and CLI determinism. Each test
prints one `criterion NN: PASS/FAIL (detail)` line on the real terminal
before asserting, so a full run reads as a checklist.
"""
import time

import numpy as np
from scipy.optimize import brentq

import oracles
from triphoton import (
    PureState,
    apply_local,
    best_lr_model,
    delta_family_state,
    geometry_from_angles,
    ghz_state,
    info_distance,
    invariant_fingerprint,
    lr_constraint_check,
    mercedes_decompositions,
    mercedes_state,
    mermin_extremize,
    mermin_gradient,
    mermin_value,
    ortho_state,
    random_local_unitary,
    run_batch,
    simulate_depression,
    spin_projection_state,
    strength_table,
    tangle,
    tangle_scan,
    yx_settings,
)
from triphoton.cli import main


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_reference_tangles(capsys):
    t_ghz = tangle(ghz_state())
    t_mercedes = tangle(mercedes_state())
    ok = abs(t_ghz - 0.25) <= 1e-12 and abs(t_mercedes - 1.0 / 12.0) <= 1e-12
    _report(capsys, 1, ok, f"tangle GHZ = {t_ghz:.15g}, symmetric decay = {t_mercedes:.15g}")


def test_criterion_02_degree_scan_peak_and_feasibility(capsys):
    t0 = time.perf_counter()
    grid = tangle_scan(step_deg=1.0)
    elapsed = time.perf_counter() - t0
    values = grid.column("tangle")
    i, j = np.unravel_index(np.argmax(values), values.shape)
    t12, t13 = grid.axes[0][i], grid.axes[1][j]
    peak = values[i, j]
    a, b = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    t23 = 360.0 - a - b
    feasible = (a < 180.0) & (b < 180.0) & (t23 > 0.0) & (t23 < 180.0)
    infeasible_nonzero = int(np.count_nonzero(values[~feasible]))
    ok = (
        abs(t12 - 120.0) <= 1.0
        and abs(t13 - 120.0) <= 1.0
        and abs(peak - 1.0 / 12.0) <= 1e-10
        and infeasible_nonzero == 0
        and elapsed < 60.0
    )
    _report(
        capsys, 2, ok,
        f"peak {peak:.12g} at ({t12:g}, {t13:g}), "
        f"{infeasible_nonzero} nonzero infeasible cells, {elapsed:.2f} s",
    )


def test_criterion_03_delta_family_tangle_closed_form(capsys):
    worst = 0.0
    for d in np.arange(0.0, 181.0, 30.0):
        half = np.radians(d) / 2.0
        expected = np.sin(half) ** 6 / (4.0 * (1.0 + np.cos(half) ** 3) ** 2)
        worst = max(worst, abs(tangle(delta_family_state(d)) - expected))
    ok = worst <= 1e-12
    _report(capsys, 3, ok, f"max closed-form deviation {worst:.3g}")


def test_criterion_04_local_unitary_invariance(capsys):
    rng = np.random.default_rng(2024)
    tangle_drift = 0.0
    purity_drift = 0.0
    for _ in range(20):
        state = PureState(oracles.random_state(rng))
        base = invariant_fingerprint(state)
        for _ in range(1000):
            rotated = apply_local(
                random_local_unitary(rng),
                random_local_unitary(rng),
                random_local_unitary(rng),
                state,
            )
            fp = invariant_fingerprint(rotated)
            tangle_drift = max(tangle_drift, abs(fp.tangle - base.tangle))
            purity_drift = max(
                purity_drift,
                max(abs(p - q) for p, q in zip(fp.purities, base.purities)),
            )
    ok = tangle_drift <= 1e-10 and purity_drift <= 1e-12
    _report(
        capsys, 4, ok,
        f"20 states x 1000 rotations: tangle drift {tangle_drift:.3g}, "
        f"purity drift {purity_drift:.3g}",
    )


def test_criterion_05_mermin_values_and_deep_minimum(capsys):
    m_sym = mermin_value(delta_family_state(120.0), yx_settings())
    m_ghz = mermin_value(ghz_state(), yx_settings())
    res = mermin_extremize(delta_family_state(120.0))
    theta, phi, theta_p, phi_p = res.angles_deg
    ok = (
        abs(m_sym - (-3.0)) <= 1e-9
        and abs(m_ghz - (-4.0)) <= 1e-9
        and abs(res.value - (-3.046)) <= 1e-3
        and abs(phi - 24.0) <= 0.5
        and abs(phi_p - 126.0) <= 0.5
    )
    _report(
        capsys, 5, ok,
        f"yx values {m_sym:.12g} / {m_ghz:.12g}; deep minimum {res.value:.6f} "
        f"at phi = {phi:.3f}, phi' = {phi_p:.3f}",
    )


def test_criterion_06_yx_point_is_stationary_along_the_family(capsys):
    worst = 0.0
    for d in (90.0, 120.0, 150.0, 180.0):
        grad = mermin_gradient(delta_family_state(d), (90.0, 90.0, 90.0, 0.0))
        worst = max(worst, float(np.linalg.norm(grad)))
    ok = worst <= 1e-6
    _report(capsys, 6, ok, f"max gradient norm {worst:.3g} over four deltas")


def test_criterion_07_deterministic_assignments_stay_on_the_bound(capsys):
    check = lr_constraint_check()
    ok = (
        check.n_assignments == 64
        and set(check.distinct_values) == {-2.0, 2.0}
        and check.within_bounds
    )
    _report(
        capsys, 7, ok,
        f"{check.n_assignments} assignments, values {sorted(check.distinct_values)}",
    )


def test_criterion_08_violation_threshold(capsys):
    f = lambda d: -mermin_value(delta_family_state(d), yx_settings()) - 2.0
    threshold = brentq(f, 80.0, 90.0, xtol=1e-10)
    ok = abs(threshold - 85.88) <= 0.05
    _report(capsys, 8, ok, f"violation threshold delta = {threshold:.4f} deg")


def test_criterion_09_best_local_model_benchmarks(capsys):
    sym = best_lr_model(1.0 / 6.0, 1.0)
    ghz = best_lr_model(0.0, 1.0)
    alt = best_lr_model(0.0868143217444673, 0.7834209682293061)
    ok = (
        abs(sym.r1 - 0.315) <= 1e-3
        and abs(sym.n_trials - 161.0) <= 1.0
        and abs(ghz.r1 - 0.25) <= 1e-6
        and abs(ghz.n_trials - 32.0) <= 1.0
        and abs(alt.n_trials - 166.0) <= 1.0
    )
    _report(
        capsys, 9, ok,
        f"n = {sym.n_trials:.4f} (r1 = {sym.r1:.6f}), {ghz.n_trials:.4f} "
        f"(r1 = {ghz.r1:.9f}), {alt.n_trials:.4f}",
    )


def test_criterion_10_strength_table_contents(capsys):
    table = strength_table()
    rows = {row[0]: row for row in table.rows}
    ok = (
        abs(rows["GHZ"][1] - 32.0) <= 1.0
        and rows["GHZ"][2] == "computed"
        and abs(rows["positronium"][1] - 161.0) <= 1.0
        and rows["positronium"][2] == "computed"
        and rows["singlet"][1] == 200.0
        and rows["singlet"][2] == "reference"
    )
    detail = ", ".join(f"{name} {row[1]:g} ({row[2]})" for name, row in sorted(rows.items()))
    _report(capsys, 10, ok, detail)


def test_criterion_11_spin_flip_connects_branches(capsys):
    rng = np.random.default_rng(7)
    flip = np.diag([1.0, -1.0])
    worst_amp = 0.0
    worst_fp = 0.0
    for _ in range(50):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        zero = ortho_state(g, 0)
        one = ortho_state(g, 1)
        flipped = apply_local(flip, flip, flip, zero)
        worst_amp = max(worst_amp, float(np.abs(flipped.amplitudes + one.amplitudes).max()))
        fp0 = np.array(invariant_fingerprint(zero).as_tuple())
        fp1 = np.array(invariant_fingerprint(one).as_tuple())
        worst_fp = max(worst_fp, float(np.abs(fp0 - fp1).max()))
    ok = worst_amp <= 1e-12 and worst_fp <= 1e-12
    _report(
        capsys, 11, ok,
        f"50 geometries: amplitude residual {worst_amp:.3g}, fingerprint gap {worst_fp:.3g}",
    )


def test_criterion_12_symmetric_state_representations(capsys):
    two_product, rotated, minimal = mercedes_decompositions()
    states = (two_product.reconstruct(), rotated.reconstruct(), minimal)
    worst = 0.0
    for s in states:
        fp = invariant_fingerprint(s)
        worst = max(worst, abs(fp.tangle - 1.0 / 12.0))
        worst = max(worst, max(abs(p - 13.0 / 18.0) for p in fp.purities))
    p = minimal.amplitudes[0b001].real
    q = minimal.amplitudes[0b111].real
    minimal_gap = abs(tangle(minimal) - 4.0 * p**3 * q)
    residuals = max(two_product.residual(), rotated.residual())
    ok = worst <= 1e-12 and minimal_gap <= 1e-12 and residuals <= 1e-12
    _report(
        capsys, 12, ok,
        f"fingerprint deviation {worst:.3g}, minimal-form tangle gap {minimal_gap:.3g}, "
        f"reconstruction residual {residuals:.3g}",
    )


def test_criterion_13_simulation_matches_the_prediction(capsys):
    report = best_lr_model(1.0 / 6.0, 1.0)
    batch = run_batch(1.0 / 6.0, report.r1, runs=1000, seed=0)
    crossings = batch.crossing_trials()
    median = float(np.median(crossings))
    sure = simulate_depression(1.0, 0.75)
    ok = (
        not np.any(np.isnan(crossings))
        and abs(median - report.n_trials) <= 0.2 * report.n_trials
        and sure.crossing_trial == 33
    )
    _report(
        capsys, 13, ok,
        f"median of 1000 runs {median:g} vs predicted {report.n_trials:.2f}; "
        f"certain-event crossing {sure.crossing_trial}",
    )


def test_wald_identity_for_the_criterion_13_batch():
    # Wald: a run stopped at trial N has E[log10 LR_N] = -K E[N], K the
    # information distance, so D = final_log10 + K N has mean 0 (exact for
    # this stopping rule, and independent of the minimax behind n_trials).
    q = 1.0 / 6.0
    report = best_lr_model(q, 1.0)
    batch = run_batch(q, report.r1, runs=1000, seed=0)
    assert not any(run.capped for run in batch.runs)
    k = info_distance(q, report.r1)
    d = np.array([run.final_log10 + k * run.crossing_trial for run in batch.runs])
    z = d.mean() / (d.std(ddof=1) / np.sqrt(d.size))
    assert abs(z) <= 4.0, f"mean of D is {z:.2f} standard errors from 0"


def test_criterion_14_projection_route_matches_closed_form(capsys):
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        g = geometry_from_angles(*oracles.random_feasible_geometry(rng))
        route = spin_projection_state(g, 0)
        closed = ortho_state(g, 0)
        worst = max(worst, float(np.abs(route.amplitudes - closed.amplitudes).max()))
    ok = worst <= 1e-10
    _report(capsys, 14, ok, f"max amplitude gap {worst:.3g} over 50 geometries")


def test_criterion_15_cli_is_deterministic(capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        return out

    battery = [
        ["state", "--geometry", "90,135", "--sz", "0"],
        ["state", "--geometry", "95,130", "--sz", "1", "--format", "json"],
        ["mermin", "extremize", "--state", "mercedes", "--starts", "16", "--seed", "2"],
        ["mermin", "sweep", "--delta", "0:180:30"],
        ["strength", "table"],
        ["strength", "sweep", "--delta", "80:180:20"],
    ]
    stable = all(run(argv) == run(argv) for argv in battery)
    scan = ["tangle-scan", "--step", "5"]
    sim = ["simulate", "--q", "0.2", "--r", "0.3", "--runs", "8", "--seed", "1"]
    worker_outputs = {
        run(argv + ["--workers", str(n)])
        for argv in (scan, sim)
        for n in (1, 2, 8)
    }
    ok = stable and len(worker_outputs) == 2  # one distinct text per command
    _report(
        capsys, 15, ok,
        "byte-identical reruns across the battery and worker counts 1/2/8",
    )
