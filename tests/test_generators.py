import numpy as np
import pytest

import lapcpd.generators
from lapcpd.generators import (
    AnomalySchedule,
    BaSegment,
    GenConfig,
    SbmSegment,
    apply_continuity,
    ba_snapshot,
    equal_block_sizes,
    flip_noise,
    generate_experiment,
    sbm_snapshot,
)
from lapcpd.graphs import GraphSnapshot
from lapcpd.schedules import pure_setting


def dense_continuity(prev, model_sample, rho, rng):
    """Reference blend: the dense per-pair formula for every ``rho``."""
    n = prev.n
    keep = np.triu(rng.random((n, n)) < rho, k=1)
    keep = keep | keep.T
    return GraphSnapshot.from_dense(
        np.where(keep, prev.to_dense(), model_sample.to_dense())
    )


def bfs_reachable(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in np.nonzero(adj[u])[0]:
            if v not in seen:
                seen.add(int(v))
                stack.append(int(v))
    return seen


class TestBlockSizes:
    def test_divisible(self):
        assert equal_block_sizes(500, 4) == [125] * 4

    def test_remainder_to_first_blocks(self):
        assert equal_block_sizes(500, 6) == [84, 84, 83, 83, 83, 83]

    def test_invalid(self):
        with pytest.raises(ValueError):
            equal_block_sizes(3, 5)


class TestSbmSnapshot:
    def test_deterministic_extremes_cliques(self):
        rng = np.random.default_rng(0)
        g = sbm_snapshot([3, 4], 1.0, 0.0, rng)
        a = g.to_dense()
        assert not a[:3, 3:].any()  # no cross edges
        assert (a[:3, :3] + np.eye(3) == 1).all()  # first block is a clique
        assert (a[3:, 3:] + np.eye(4) == 1).all()

    def test_empty(self):
        g = sbm_snapshot([5, 5], 0.0, 0.0, np.random.default_rng(0))
        assert g.num_edges == 0

    def test_within_block_count_matches_binomial(self):
        # Oracle: mean within-block edges is Binomial(4 * C(125,2), 0.25);
        # the mean over 1000 seeds must land within 4 sigma of it.
        n_pairs = 4 * (125 * 124 // 2)
        mean = n_pairs * 0.25
        var = n_pairs * 0.25 * 0.75
        sigma_of_mean = np.sqrt(var / 1000)
        sizes = equal_block_sizes(500, 4)
        labels = np.repeat(np.arange(4), sizes)
        same_block = labels[:, None] == labels[None, :]
        counts = []
        for seed in range(1000):
            g = sbm_snapshot(sizes, 0.25, 0.05, np.random.default_rng(seed))
            a = g.to_dense() > 0
            counts.append(np.triu(a & same_block, 1).sum())
        assert abs(np.mean(counts) - mean) <= 4 * sigma_of_mean

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            sbm_snapshot([2, 2], 1.5, 0.0, np.random.default_rng(0))


class TestApplyContinuity:
    def make_pair(self, n=40, seed=1):
        rng = np.random.default_rng(seed)
        prev = sbm_snapshot([n // 2, n // 2], 0.6, 0.1, rng)
        sample = sbm_snapshot([n // 2, n // 2], 0.6, 0.1, rng)
        return prev, sample, rng

    def test_rho_one_keeps_previous(self):
        prev, sample, rng = self.make_pair()
        out = apply_continuity(prev, sample, 1.0, rng)
        assert out == prev

    def test_rho_zero_takes_sample(self):
        prev, sample, rng = self.make_pair()
        out = apply_continuity(prev, sample, 0.0, rng)
        assert out == sample

    def test_copied_fraction_matches_binomial(self):
        # prev complete, sample empty: every surviving edge was copied from
        # prev, so the edge fraction estimates rho directly.
        n = 60
        n_pairs = n * (n - 1) // 2
        complete = GraphSnapshot.from_dense(np.ones((n, n)) - np.eye(n))
        empty = GraphSnapshot.empty(n)
        total_pairs = n_pairs * 50
        fractions = []
        for seed in range(50):
            out = apply_continuity(complete, empty, 0.9, np.random.default_rng(seed))
            fractions.append(out.num_edges / n_pairs)
        sigma_of_mean = np.sqrt(0.9 * 0.1 / total_pairs)
        assert abs(np.mean(fractions) - 0.9) <= 4 * sigma_of_mean

    @pytest.mark.parametrize("rho", [1.0, 0.9])
    def test_matches_dense_blend_and_its_stream(self, rho):
        prev, sample, rng = self.make_pair()
        _, _, ref_rng = self.make_pair()
        out = apply_continuity(prev, sample, rho, rng)
        assert out == dense_continuity(prev, sample, rho, ref_rng)
        assert rng.random() == ref_rng.random()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_continuity(
                GraphSnapshot.empty(3), GraphSnapshot.empty(4), 0.5,
                np.random.default_rng(0),
            )


class TestBaSnapshot:
    def test_three_nodes_tree(self):
        g = ba_snapshot(3, 1, np.random.default_rng(0))
        assert g.num_edges == 2

    def test_m1_gives_tree(self):
        for seed in range(5):
            n = 40
            g = ba_snapshot(n, 1, np.random.default_rng(seed))
            assert g.num_edges == n - 1
            assert len(bfs_reachable(g.to_dense(), 0)) == n  # connected + acyclic

    def test_edge_count_closed_form(self):
        g = ba_snapshot(500, 5, np.random.default_rng(3))
        assert g.num_edges == 5 * (500 - 5)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            ba_snapshot(5, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ba_snapshot(5, 0, np.random.default_rng(0))

    def test_preferential_attachment_favors_hubs(self):
        # Degree variance should far exceed an Erdos-Renyi graph's.
        g = ba_snapshot(400, 3, np.random.default_rng(7))
        deg = g.degrees()
        assert deg.max() > 4 * deg.mean()


class TestFlipNoise:
    def test_identity(self):
        g = sbm_snapshot([5, 5], 0.5, 0.1, np.random.default_rng(0))
        assert flip_noise(g, 0.0, np.random.default_rng(1)) == g

    def test_full_flip_is_complement(self):
        g = sbm_snapshot([5, 5], 0.5, 0.1, np.random.default_rng(0))
        out = flip_noise(g, 1.0, np.random.default_rng(1))
        n = g.n
        expected = (1 - g.to_dense()) - np.eye(n)
        assert np.array_equal(out.to_dense(), expected)

    def test_flip_fraction_matches_binomial(self):
        n = 500
        n_pairs = n * (n - 1) // 2
        g = sbm_snapshot(equal_block_sizes(n, 4), 0.25, 0.05, np.random.default_rng(2))
        out = flip_noise(g, 0.15, np.random.default_rng(3))
        flipped = np.triu(out.to_dense() != g.to_dense(), 1).sum()
        sigma = np.sqrt(n_pairs * 0.15 * 0.85)
        assert abs(flipped - 0.15 * n_pairs) <= 4 * sigma

    def test_weighted_input_rejected(self):
        g = GraphSnapshot.from_edges(3, [(0, 1, 2.0)])
        with pytest.raises(ValueError, match="unit-weight"):
            flip_noise(g, 0.5, np.random.default_rng(0))


class TestSchedule:
    def hybrid_rows(self):
        base = SbmSegment(4, 0.25, 0.05, 1)
        bumped = SbmSegment(4, 0.25, 0.15, 1)
        changed = SbmSegment(10, 0.25, 0.05, 1)
        return [
            (0, "start", base),
            (5, "event", bumped),
            (10, "change_point", changed),
        ]

    def test_from_rows_lengths_sum_to_total(self):
        sched = AnomalySchedule.from_rows(self.hybrid_rows(), total=20)
        assert sum(s.length for s in sched.segments) == 20
        assert sched.total == 20

    def test_ground_truth(self):
        sched = AnomalySchedule.from_rows(self.hybrid_rows(), total=20)
        assert sched.ground_truth == {5: "event", 10: "change_point"}

    def test_event_reverts_parameters(self):
        sched = AnomalySchedule.from_rows(self.hybrid_rows(), total=20)
        before = sched.segment_at(4)
        during = sched.segment_at(5)
        after = sched.segment_at(6)
        assert during.kind == "event" and during.p_ex == 0.15
        assert after.p_ex == before.p_ex and after.n_blocks == before.n_blocks

    def test_event_segment_length_one_enforced(self):
        with pytest.raises(ValueError):
            SbmSegment(4, 0.25, 0.05, length=3, kind="event")

    def test_first_segment_must_be_start(self):
        with pytest.raises(ValueError):
            AnomalySchedule([SbmSegment(4, 0.25, 0.05, 5, kind="change_point")])

    def test_probability_ordering_enforced(self):
        with pytest.raises(ValueError):
            SbmSegment(4, 0.05, 0.25, 1)


class TestGenerateExperiment:
    def small_schedule(self):
        rows = [
            (0, "start", SbmSegment(2, 0.6, 0.1, 1)),
            (6, "event", SbmSegment(2, 0.6, 0.4, 1)),
            (12, "change_point", SbmSegment(4, 0.6, 0.1, 1)),
        ]
        return AnomalySchedule.from_rows(rows, total=18)

    def test_shapes_and_truth(self):
        graph, truth = generate_experiment(
            self.small_schedule(), GenConfig(n_nodes=24, n_views=2, seed=5)
        )
        assert graph.num_steps == 18 and graph.num_views == 2
        assert truth == {6: "event", 12: "change_point"}

    def test_deterministic(self):
        cfg = GenConfig(n_nodes=24, n_views=2, continuity=0.5, noise=0.1, seed=9)
        a, _ = generate_experiment(self.small_schedule(), cfg)
        b, _ = generate_experiment(self.small_schedule(), cfg)
        for t in range(a.num_steps):
            for r in range(a.num_views):
                assert a.snapshots[t][r] == b.snapshots[t][r]

    def test_view_independence(self):
        cfg1 = GenConfig(n_nodes=24, n_views=1, continuity=0.5, seed=9)
        cfg3 = GenConfig(n_nodes=24, n_views=3, continuity=0.5, seed=9)
        a, _ = generate_experiment(self.small_schedule(), cfg1)
        b, _ = generate_experiment(self.small_schedule(), cfg3)
        for t in range(a.num_steps):
            assert a.snapshots[t][0] == b.snapshots[t][0]

    def test_full_continuity_freezes_segments(self):
        rows = [
            (0, "start", SbmSegment(2, 0.5, 0.1, 1)),
            (5, "change_point", SbmSegment(4, 0.5, 0.1, 1)),
        ]
        schedule = AnomalySchedule.from_rows(rows, total=10)
        graph, _ = generate_experiment(
            schedule, GenConfig(n_nodes=20, n_views=1, continuity=1.0, seed=2)
        )
        view = graph.view(0)
        for t in range(1, 5):
            assert view[t] == view[0]
        assert view[5] != view[4]  # change point resamples
        for t in range(6, 10):
            assert view[t] == view[5]

    def test_event_boundaries_resample_under_full_continuity(self):
        # With continuity 1.0 the graph only moves at segment boundaries:
        # the event step and the revert step right after it.
        rows = [
            (0, "start", SbmSegment(2, 0.6, 0.05, 1)),
            (6, "event", SbmSegment(2, 0.6, 0.5, 1)),
        ]
        schedule = AnomalySchedule.from_rows(rows, total=12)
        graph, _ = generate_experiment(
            schedule, GenConfig(n_nodes=30, n_views=1, continuity=1.0, seed=4)
        )
        view = graph.view(0)
        assert all(view[t] == view[0] for t in range(1, 6))
        assert view[6] != view[5]  # event resamples
        assert view[7] != view[6]  # revert resamples too
        assert all(view[t] == view[7] for t in range(8, 12))

    @pytest.mark.parametrize("preset", ["pure_setting", "frozen_with_noise"])
    def test_graphs_match_dense_continuity(self, monkeypatch, preset):
        if preset == "pure_setting":
            schedule, cfg = pure_setting(seed=3)
        else:
            schedule = self.small_schedule()
            cfg = GenConfig(n_nodes=24, n_views=2, continuity=1.0, noise=0.05, seed=9)
        graph, _ = generate_experiment(schedule, cfg)
        monkeypatch.setattr(lapcpd.generators, "apply_continuity", dense_continuity)
        reference, _ = generate_experiment(schedule, cfg)
        assert graph.snapshots == reference.snapshots

    def test_ba_schedule(self):
        rows = [
            (0, "start", BaSegment(1, 1)),
            (4, "change_point", BaSegment(3, 1)),
        ]
        schedule = AnomalySchedule.from_rows(rows, total=8)
        graph, truth = generate_experiment(schedule, GenConfig(n_nodes=30, seed=0))
        assert truth == {4: "change_point"}
        assert graph.view(0)[0].num_edges == 1 * 29
        assert graph.view(0)[5].num_edges == 3 * 27
