"""Synthetic corpus generator behavior."""
import logging

import numpy as np
import pytest

from domainsel.corpus import unigram_stats
from domainsel.errors import ValidationError
from domainsel.simfeat import kl_divergence, smoothed_pair
from domainsel.synth import (
    SyntheticSpec,
    child_seed,
    mixture_overlap,
    spec_from_config,
    synth_domain,
)


def two_topic_spec(**overrides) -> SyntheticSpec:
    kwargs = dict(
        domains=("alpha", "beta"),
        topics=(
            tuple(f"apple{i}" for i in range(40)),
            tuple(f"banana{i}" for i in range(40)),
        ),
        mixtures=((0.7, 0.3), (0.3, 0.7)),
        examples_per_domain=60,
        tokens_per_text=9,
        noise=0.05,
        seed=7,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


class TestSpecValidation:
    def test_mixture_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            two_topic_spec(mixtures=((0.7, 0.4), (0.3, 0.7)))

    def test_mixture_length_must_match_topics(self):
        with pytest.raises(ValidationError, match="mixture"):
            two_topic_spec(mixtures=((1.0,), (0.3, 0.7)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            two_topic_spec(mixtures=((1.2, -0.2), (0.3, 0.7)))

    def test_duplicate_domains_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            two_topic_spec(domains=("alpha", "alpha"))

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValidationError, match="examples"):
            two_topic_spec(examples_per_domain=4)

    def test_noise_must_be_below_one(self):
        with pytest.raises(ValidationError, match="noise"):
            two_topic_spec(noise=1.0)

    def test_uppercase_topic_word_rejected(self):
        with pytest.raises(ValidationError, match="tokenization"):
            two_topic_spec(topics=(("Apple",), ("banana",)), mixtures=((1.0, 0.0), (0.0, 1.0)))


class TestOverlap:
    def test_identical_mixtures_overlap_one(self):
        spec = two_topic_spec(mixtures=((0.6, 0.4), (0.6, 0.4)))
        assert mixture_overlap(spec, "alpha", "beta") == 1.0

    def test_disjoint_mixtures_overlap_zero(self):
        spec = two_topic_spec(mixtures=((1.0, 0.0), (0.0, 1.0)))
        assert mixture_overlap(spec, "alpha", "beta") == 0.0

    def test_partial_overlap_is_min_sum(self):
        spec = two_topic_spec(mixtures=((0.7, 0.3), (0.2, 0.8)))
        assert mixture_overlap(spec, "alpha", "beta") == pytest.approx(0.5)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            mixture_overlap(two_topic_spec(), "alpha", "gamma")


class TestGeneration:
    def test_corpus_shape_and_labels(self):
        spec = two_topic_spec()
        corpus = synth_domain(spec, "alpha")
        assert corpus.name == "alpha"
        assert len(corpus.examples) == 60
        labels = [ex.label for ex in corpus.examples]
        assert labels == [i % 2 for i in range(60)]

    def test_same_seed_identical(self):
        spec = two_topic_spec()
        a = synth_domain(spec, "alpha")
        b = synth_domain(spec, "alpha")
        assert a.to_json() == b.to_json()

    def test_different_domains_differ(self):
        spec = two_topic_spec(mixtures=((0.5, 0.5), (0.5, 0.5)))
        assert synth_domain(spec, "alpha").to_json() != synth_domain(spec, "beta").to_json()

    def test_different_seed_differs(self):
        a = synth_domain(two_topic_spec(seed=1), "alpha")
        b = synth_domain(two_topic_spec(seed=2), "alpha")
        assert a.to_json() != b.to_json()

    def test_generate_covers_every_domain(self):
        spec = two_topic_spec()
        assert [synth_domain(spec, name).name for name in spec.domains] == ["alpha", "beta"]

    def test_tokens_come_from_topic_vocab_without_noise(self):
        spec = two_topic_spec(noise=0.0)
        corpus = synth_domain(spec, "alpha")
        vocab = set(spec.topics[0]) | set(spec.topics[1])
        for ex in corpus.examples:
            assert set(ex.text_a.split()) <= vocab
            assert set(ex.text_b.split()) <= vocab

    def test_single_topic_domain_warns(self, caplog):
        spec = two_topic_spec(mixtures=((1.0, 0.0), (0.3, 0.7)))
        with caplog.at_level(logging.WARNING, logger="domainsel.synth"):
            synth_domain(spec, "alpha")
        assert any("single" in rec.message for rec in caplog.records)

    def test_positive_pairs_share_topic_vocabulary(self):
        # Without noise a positive pair's two texts draw from one topic.
        spec = two_topic_spec(noise=0.0)
        corpus = synth_domain(spec, "alpha")
        topic_sets = [set(t) for t in spec.topics]
        for ex in corpus.examples:
            if ex.label != 1:
                continue
            homes_a = {i for i, s in enumerate(topic_sets) if set(ex.text_a.split()) <= s}
            homes_b = {i for i, s in enumerate(topic_sets) if set(ex.text_b.split()) <= s}
            assert homes_a & homes_b


class TestDivergenceSignal:
    def test_identical_mixtures_give_small_kl(self):
        spec = two_topic_spec(
            mixtures=((0.5, 0.5), (0.5, 0.5)),
            examples_per_domain=500,
            noise=0.0,
        )
        p, q = smoothed_pair(
            unigram_stats(synth_domain(spec, "beta")), unigram_stats(synth_domain(spec, "alpha"))
        )
        assert kl_divergence(p, q) < 0.1

    def test_disjoint_vocabs_give_zero_coverage(self):
        spec = two_topic_spec(mixtures=((1.0, 0.0), (0.0, 1.0)), noise=0.0)
        sa = unigram_stats(synth_domain(spec, "alpha")).support
        sb = unigram_stats(synth_domain(spec, "beta")).support
        assert not (sa & sb)

    def test_shared_mixture_beats_disjoint_on_kl(self):
        near = two_topic_spec(mixtures=((0.5, 0.5), (0.5, 0.5)), examples_per_domain=300)
        far = two_topic_spec(mixtures=((1.0, 0.0), (0.0, 1.0)), examples_per_domain=300)
        def kl_of(spec):
            p, q = smoothed_pair(
                unigram_stats(synth_domain(spec, "beta")),
                unigram_stats(synth_domain(spec, "alpha")),
            )
            return kl_divergence(p, q)
        assert kl_of(near) < kl_of(far)


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(3, "a", "b") == child_seed(3, "a", "b")

    def test_parts_matter(self):
        assert child_seed(3, "a", "b") != child_seed(3, "b", "a")

    def test_seed_matters(self):
        assert child_seed(3, "a") != child_seed(4, "a")

    def test_fits_in_63_bits(self):
        for seed in range(20):
            assert 0 <= child_seed(seed, "x") < 2 ** 63


class TestSpecFromConfig:
    CFG = {
        "domains": 4,
        "topics": 5,
        "words_per_topic": 30,
        "examples_per_domain": 50,
        "tokens_per_text": 8,
        "mixture_concentration": 0.4,
        "noise": 0.05,
    }

    def test_shape(self):
        spec = spec_from_config(self.CFG, seed=11)
        assert spec.domains == ("syn00", "syn01", "syn02", "syn03")
        assert len(spec.topics) == 5
        assert all(len(t) == 30 for t in spec.topics)
        assert len(spec.mixtures) == 4
        for mix in spec.mixtures:
            assert sum(mix) == pytest.approx(1.0)

    def test_deterministic(self):
        a = spec_from_config(self.CFG, seed=11)
        b = spec_from_config(self.CFG, seed=11)
        assert a == b

    def test_seed_changes_mixtures(self):
        a = spec_from_config(self.CFG, seed=11)
        b = spec_from_config(self.CFG, seed=12)
        assert a.mixtures != b.mixtures
        assert a.topics == b.topics

    def test_mixtures_spread_over_topics(self):
        spec = spec_from_config(self.CFG, seed=11)
        weights = np.array(spec.mixtures)
        assert np.all(weights >= 0)
        # Concentration below 1 yields sparse-ish but not one-hot mixtures.
        assert np.any(weights > 0.3)
