"""Acceptance suite: every shipping criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The multi-view criteria run 10 seeded trials each and
dominate the runtime (the whole suite is a ~15-25 minute desktop run).
"""

import time

import numpy as np
import pytest

from lapcpd.baselines import activity_detect
from lapcpd.cli import main as cli_main
from lapcpd.detector import (
    DetectorConfig,
    lad_detect,
    write_scores_csv,
)
from lapcpd.evaluation import (
    ExperimentSpec,
    hits_at_n,
    run_trials,
    spearman,
)
from lapcpd.generators import (
    AnomalySchedule,
    GenConfig,
    SbmSegment,
    apply_continuity,
    flip_noise,
    generate_experiment,
    sbm_snapshot,
)
from lapcpd.graphs import (
    GraphSnapshot,
    normalized_laplacian,
    unnormalized_laplacian,
)
from lapcpd.multiview import (
    PowerMeanConfig,
    multilad_detect,
    power_mean_spectrum,
    scalar_power_mean,
)
from lapcpd.schedules import (
    multiview_ba_change_points,
    multiview_sbm_change_points,
    multiview_sbm_events_and_changes,
    hybrid_setting,
    resampled_setting,
)
from lapcpd.spectral import dense_spectrum_oracle, top_k_singular_values
from lapcpd.detector import AnomalyScoreSeries, z_score

pytestmark = pytest.mark.slow

DET = DetectorConfig(w_short=5, w_long=10)
PM = PowerMeanConfig(-10.0)
SEED = 0


def announce(criterion, detail):
    print(f"\ncriterion {criterion}: PASS - {detail}")


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def single_view_hits(preset, seed):
    schedule, gen = preset(seed=seed)
    graph, truth = generate_experiment(schedule, gen)
    series = lad_detect(graph.view(0), DET)
    return hits_at_n(series, set(truth), 7), graph, truth


def test_criterion_01_pure_setting(tmp_path):
    # Runs through the CLI bench path so the external interface is covered.
    out = tmp_path / "pure-report.csv"
    (code, elapsed) = timed(
        lambda: cli_main(
            ["bench", "pure", "--trials", "1", "--seed", str(SEED), "--out", str(out)]
        )
    )
    assert code == 0
    rows = dict()
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        rows[fields[1]] = float(fields[4])
    assert rows["lad"] == 1.0
    announce(1, f"pure setting LAD hits@7 = {rows['lad']} (1 trial, {elapsed:.0f}s)")


def test_criterion_02_hybrid_setting():
    (result, elapsed) = timed(lambda: single_view_hits(hybrid_setting, SEED))
    hits = result[0]
    assert hits == 1.0
    announce(2, f"hybrid setting LAD hits@7 = {hits} (1 trial, {elapsed:.0f}s)")


def test_criterion_03_resampled_setting():
    def run():
        lad_hits, act_hits = [], []
        for i in range(5):
            schedule, gen = resampled_setting(seed=SEED + i)
            graph, truth = generate_experiment(schedule, gen)
            lad_hits.append(hits_at_n(lad_detect(graph.view(0), DET), set(truth), 7))
            act_hits.append(hits_at_n(activity_detect(graph.view(0), 5), set(truth), 7))
        return np.mean(lad_hits), np.mean(act_hits)

    (means, elapsed) = timed(run)
    lad_mean, act_mean = means
    assert lad_mean == 1.0
    assert act_mean < 0.5
    announce(
        3,
        f"resampled LAD mean = {lad_mean}, activity mean = {act_mean:.3f} < 0.5 "
        f"(5 trials, {elapsed:.0f}s)",
    )


def test_criterion_04_multilad_sbm_3views():
    schedule, gen = multiview_sbm_change_points(p_ex=0.012, n_views=3)
    spec = ExperimentSpec("sbm-3v", schedule, gen, DET, PM, 7)
    (reports, elapsed) = timed(lambda: run_trials(spec, ["multilad"], 10, SEED))
    mean = reports[0].mean
    assert 0.61 - 0.20 <= mean <= 0.61 + 0.20
    announce(
        4,
        f"multilad SBM(3v) mean hits@7 = {mean:.3f} in [0.41, 0.81] "
        f"(10 trials, {elapsed:.0f}s)",
    )


def test_criterion_05_multilad_noisy_sbm():
    schedule, gen = multiview_sbm_events_and_changes(n_views=3, noise=0.15)
    spec = ExperimentSpec("sbm-noisy", schedule, gen, DET, PM, 7)
    (reports, elapsed) = timed(
        lambda: run_trials(spec, ["multilad", "lad"], 10, SEED)
    )
    by_name = {r.method: r.mean for r in reports}
    assert by_name["multilad"] >= 0.70
    assert by_name["multilad"] > by_name["lad"]
    announce(
        5,
        f"noisy SBM multilad mean = {by_name['multilad']:.3f} >= 0.70 and > "
        f"single-view LAD {by_name['lad']:.3f} (10 trials, {elapsed:.0f}s)",
    )


def test_criterion_06_views_sweep_ordering():
    schedule, gen = multiview_sbm_change_points(p_ex=0.012, n_views=12)
    spec = ExperimentSpec("sbm-12v", schedule, gen, DET, PM, 7)
    (reports, elapsed) = timed(
        lambda: run_trials(spec, ["multilad", "nl_meanlad", "nl_lad"], 10, SEED)
    )
    by_name = {r.method: r.mean for r in reports}
    assert by_name["multilad"] >= by_name["nl_meanlad"] >= by_name["nl_lad"]
    announce(
        6,
        "12-view ordering multilad {multilad:.3f} >= nl_meanlad {nl_meanlad:.3f} "
        ">= nl_lad {nl_lad:.3f} (10 trials, {s:.0f}s)".format(s=elapsed, **by_name),
    )


def test_criterion_07_ba_12views():
    schedule, gen = multiview_ba_change_points(n_views=12)
    spec = ExperimentSpec("ba-12v", schedule, gen, DET, PM, 7)
    (reports, elapsed) = timed(lambda: run_trials(spec, ["multilad"], 10, SEED))
    mean = reports[0].mean
    assert mean >= 0.75
    announce(7, f"BA(12v) multilad mean = {mean:.3f} >= 0.75 (10 trials, {elapsed:.0f}s)")


def _random_graph(rng, n, p=0.3, weighted=False):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    if weighted:
        w = np.where(upper, rng.uniform(0.5, 3.0, (n, n)), 0.0)
    else:
        w = upper.astype(float)
    return GraphSnapshot.from_dense(w + w.T)


def _bfs_components(dense):
    n = dense.shape[0]
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(dense[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
    return count


def test_criterion_08_property_suite():
    rng = np.random.default_rng(12345)
    checks = []

    # permutation invariance of the full pipeline at 1e-8
    view = [_random_graph(rng, 16, 0.35) for _ in range(24)]
    cfg = DetectorConfig(w_short=3, w_long=6)
    base = lad_detect(view, cfg)
    permuted = []
    for g in view:
        perm = rng.permutation(16)
        permuted.append(GraphSnapshot.from_dense(g.to_dense()[np.ix_(perm, perm)]))
    delta = np.abs(base.z_star - lad_detect(permuted, cfg).z_star).max()
    assert delta < 1e-8
    checks.append(f"pipeline permutation invariance ({delta:.1e})")

    # normalized Laplacian spectrum within [0, 2]
    worst_lo, worst_hi = 0.0, 2.0
    for _ in range(50):
        g = _random_graph(rng, int(rng.integers(4, 24)), float(rng.uniform(0.1, 0.6)), weighted=True)
        vals = np.linalg.eigvalsh(normalized_laplacian(g).toarray())
        worst_lo = min(worst_lo, float(vals.min()))
        worst_hi = max(worst_hi, float(vals.max()))
    assert worst_lo > -1e-9 and worst_hi < 2.0 + 1e-9
    checks.append("normalized spectrum in [0, 2]")

    # zero-eigenvalue multiplicity counts components (50 random graphs)
    for _ in range(50):
        g = _random_graph(rng, int(rng.integers(4, 18)), float(rng.uniform(0.05, 0.5)))
        eig = np.linalg.eigvalsh(unnormalized_laplacian(g).toarray())
        assert int((np.abs(eig) < 1e-8).sum()) == _bfs_components(g.to_dense())
    checks.append("zero multiplicity = components (50 graphs)")

    # iterative vs dense agreement at 1e-8 on 100 random PSD <= 64x64
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 65))
        b = rng.standard_normal((n, n))
        m = b @ b.T / n
        k = int(rng.integers(1, min(8, n) + 1))
        it = top_k_singular_values(m, k, tol=1e-10, rng=rng, method="lanczos")
        dn = dense_spectrum_oracle(m)[:k]
        worst = max(worst, float(np.abs(it - dn).max()))
    assert worst < 1e-8
    checks.append(f"iterative-vs-dense on 100 PSD ({worst:.1e})")

    # power mean: idempotence, bounds, arithmetic-mean limit
    v = rng.uniform(0.5, 3.0, size=8)
    assert np.array_equal(power_mean_spectrum([v, v, v], PM), v)
    sigs = [rng.uniform(0.5, 3.0, size=8) for _ in range(5)]
    arr = np.vstack(sigs)
    for p in (-10.0, -1.0, 2.0, 10.0):
        out = power_mean_spectrum(sigs, PowerMeanConfig(p))
        assert np.all(out >= arr.min(axis=0) - 1e-12)
        assert np.all(out <= arr.max(axis=0) + 1e-12)
    assert np.array_equal(
        power_mean_spectrum(sigs, PowerMeanConfig(1.0)), arr.mean(axis=0)
    )
    assert scalar_power_mean([2.0, 2.0], -10.0) == 2.0
    checks.append("power mean idempotence/bounds/p=1")

    # Z score extremes
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert z_score(e1, e1) == 0.0
    assert z_score(e1, e2) == 1.0
    checks.append("z extremes 0/1")

    # continuity and noise extremes
    a = sbm_snapshot([10, 10], 0.6, 0.1, rng)
    b = sbm_snapshot([10, 10], 0.6, 0.1, rng)
    assert apply_continuity(a, b, 1.0, rng) == a
    assert apply_continuity(a, b, 0.0, rng) == b
    assert flip_noise(a, 0.0, rng) == a
    comp = flip_noise(a, 1.0, rng)
    assert np.array_equal(comp.to_dense(), (1 - a.to_dense()) - np.eye(a.n))
    checks.append("continuity/noise extremes")

    # hits@n invariance under strictly monotone transforms
    z = np.abs(rng.random(40))
    truth = {5, 11, 23}
    s1 = AnomalyScoreSeries(z * 0, z * 0, z, 0)
    s2 = AnomalyScoreSeries(z * 0, z * 0, np.exp(2.0 * z), 0)
    assert hits_at_n(s1, truth, 6) == hits_at_n(s2, truth, 6)
    checks.append("hits@n monotone invariance")

    # spearman against a brute-force oracle at 1e-12
    for _ in range(20):
        x = rng.integers(0, 5, size=15).astype(float)
        y = rng.random(15)
        rx = _rank_oracle(x)
        ry = _rank_oracle(y)
        expected = _pearson_oracle(rx, ry)
        assert abs(spearman(x, y) - expected) < 1e-12
    checks.append("spearman vs oracle (1e-12)")

    # seed determinism: two full runs, bit-exact series and CSV
    rows = [
        (0, "start", SbmSegment(2, 0.6, 0.1, 1)),
        (8, "change_point", SbmSegment(4, 0.6, 0.1, 1)),
    ]
    schedule = AnomalySchedule.from_rows(rows, total=16)
    cfg = GenConfig(n_nodes=40, n_views=2, seed=77)
    det = DetectorConfig(w_short=3, w_long=5, laplacian="normalized")
    outs = []
    for _ in range(2):
        graph, _ = generate_experiment(schedule, cfg)
        series = multilad_detect(graph, det, PM)
        import io

        buf = io.StringIO()
        write_scores_csv(series, buf)
        outs.append((series.z_star.copy(), buf.getvalue()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert outs[0][1] == outs[1][1]
    checks.append("seed determinism bit-exact")

    announce(8, "property suite all green: " + "; ".join(checks))


def _rank_oracle(x):
    order = sorted(range(len(x)), key=lambda i: x[i])
    ranks = [0.0] * len(x)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and x[order[j + 1]] == x[order[i]]:
            j += 1
        for idx in order[i : j + 1]:
            ranks[idx] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def _pearson_oracle(a, b):
    n = len(a)
    ma, mb = sum(a) / n, sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / np.sqrt(va * vb)


def test_criterion_09_single_view_reduction():
    rows = [
        (0, "start", SbmSegment(3, 0.4, 0.05, 1)),
        (10, "change_point", SbmSegment(6, 0.4, 0.05, 1)),
        (18, "event", SbmSegment(3, 0.4, 0.2, 1)),
    ]
    schedule = AnomalySchedule.from_rows(rows, total=26)
    graph, _ = generate_experiment(schedule, GenConfig(n_nodes=120, n_views=1, seed=5))
    det = DetectorConfig(w_short=5, w_long=10, laplacian="normalized")
    multi = multilad_detect(graph, det, PM)
    single = lad_detect(
        graph.view(0),
        DetectorConfig(5, 10, k=120, laplacian="normalized", shift=PM.epsilon),
    )
    assert np.array_equal(multi.z_star, single.z_star)
    assert np.array_equal(multi.z_short, single.z_short)
    assert np.array_equal(multi.z_long, single.z_long)
    announce(9, "multilad(m=1) equals shifted normalized lad bit-for-bit")
