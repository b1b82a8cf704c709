"""Contracts of the synthetic fixture generators everything else leans on."""

import numpy as np

from rvqtok.seeding import make_rng
from rvqtok.synth import (
    make_bigram_world,
    make_cluster_vectors,
    make_feature_corpus,
    make_oracle_eval_records,
    make_random_eval_records,
    make_sine_noise_audio,
    make_token_frames,
)


class TestSineNoiseAudio:
    def test_length_and_rate(self):
        audio = make_sine_noise_audio(duration_s=1.25, sample_rate=8000, seed=0)
        assert audio.sample_rate == 8000
        assert audio.samples.shape == (10000,)

    def test_peak_normalized(self):
        audio = make_sine_noise_audio(duration_s=0.5, seed=3)
        assert np.max(np.abs(audio.samples)) == 0.9

    def test_deterministic_in_seed(self):
        a = make_sine_noise_audio(seed=7)
        b = make_sine_noise_audio(seed=7)
        c = make_sine_noise_audio(seed=8)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)


class TestFeatureCorpus:
    def test_shapes_and_rate(self):
        corpus = make_feature_corpus(n_clips=3, clip_seconds=8.0, seed=1)
        assert len(corpus) == 3
        for seq in corpus:
            assert seq.frame_rate == 12.5
            assert seq.vectors.shape == (100, 640)

    def test_clips_differ(self):
        corpus = make_feature_corpus(n_clips=2, clip_seconds=1.0, seed=1)
        assert not np.array_equal(corpus[0].vectors, corpus[1].vectors)


class TestClusterVectors:
    def test_shapes(self):
        points, labels, centers = make_cluster_vectors(50, 4, 6, seed=2)
        assert points.shape == (50, 4)
        assert labels.shape == (50,)
        assert centers.shape == (6, 4)

    def test_nearest_center_recovers_labels(self):
        # the separation guarantee the restart experiments rely on
        points, labels, centers = make_cluster_vectors(
            400, 8, 10, spread=0.05, seed=5
        )
        d = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        assert np.array_equal(d.argmin(axis=1), labels)

    def test_deterministic_in_seed(self):
        a = make_cluster_vectors(30, 3, 4, seed=9)[0]
        b = make_cluster_vectors(30, 3, 4, seed=9)[0]
        assert np.array_equal(a, b)


class TestTokenFrames:
    def test_in_range_never_eoa(self):
        sizes = (8, 4, 2)
        frames = make_token_frames(200, sizes, seed=0)
        assert frames.shape == (200, 3)
        assert (frames >= 0).all()
        assert (frames < np.array(sizes)).all()  # EOA would be idx == k

    def test_draws_frame_by_frame(self):
        # one scalar draw per index, frame-major, is the reference order
        sizes = (8192, 5, 2**31, 3)
        rng = make_rng(11, "frames")
        want = [[int(rng.integers(0, k)) for k in sizes] for _ in range(40)]
        assert make_token_frames(40, sizes, seed=11).tolist() == want


class TestEvalRecords:
    def test_oracle_records_are_separable(self):
        for rec in make_oracle_eval_records(60, n_candidates=3, seed=11):
            assert 0 <= rec.positive_index < 3
            for c, cand in enumerate(rec.candidates):
                lo, hi = (0, 10) if c == rec.positive_index else (20, 30)
                assert all(lo <= t < hi for t in cand)

    def test_random_records_have_distinct_candidates(self):
        for rec in make_random_eval_records(60, n_candidates=4, seed=12):
            assert len(set(rec.candidates)) == 4


class TestBigramWorld:
    def test_corpus_walks_the_cycle(self):
        corpus, _ = make_bigram_world(vocab_size=16, seed=13)
        for seq in corpus:
            for a, b in zip(seq, seq[1:]):
                assert b == (a + 1) % 16

    def test_positives_continue_the_prefix(self):
        _, records = make_bigram_world(vocab_size=16, seed=13)
        for rec in records:
            positive = rec.candidates[rec.positive_index]
            walk = rec.prefix + positive
            for a, b in zip(walk, walk[1:]):
                assert b == (a + 1) % 16
            negative = rec.candidates[1 - rec.positive_index]
            assert negative != positive
