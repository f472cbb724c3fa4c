import logging
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_gen_synthetic_shift, oracle_shift_by_scan
from metaweight import data
from metaweight.backbones import Example
from metaweight.data import (
    Dataset,
    FewShotSpec,
    ShiftSpec,
    balance_downsample,
    few_shot_indices,
    filter_labels,
    gen_synthetic_shift,
    load_tsv,
    rule_label,
    sample_few_shot,
    tokenize,
    write_tsv,
)
from metaweight.errors import ConfigError, DataError, DomainError
from metaweight.vectors import RngState


class TestTokenize:
    def test_punctuation_stripped(self):
        assert tokenize("The cat sat.") == ("the", "cat", "sat")

    def test_truncation(self):
        text = " ".join(f"w{i}" for i in range(60))
        assert len(tokenize(text, max_len=40)) == 40
        assert tokenize(text, max_len=40) == tuple(f"w{i}" for i in range(40))

    def test_empty_text(self):
        assert tokenize("") == ()

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop!") == ("don't", "stop")

    def test_all_punctuation_token_dropped(self):
        assert tokenize("hello -- world") == ("hello", "world")

    def test_bad_max_len(self):
        with pytest.raises(DomainError):
            tokenize("x", max_len=0)

    @given(st.text(max_size=80))
    @settings(deadline=None)
    def test_idempotent(self, text):
        once = tokenize(text)
        again = tokenize(" ".join(once))
        assert once == again


def _toy_dataset(rows=None, class_count=2):
    if rows is None:
        rows = [
            (("a", "b"), ("c",), 0),
            (("d",), ("e", "f"), 1),
            (("g",), ("h",), 0),
        ]
    return Dataset("toy", class_count, tuple(Example(*r) for r in rows))


class TestTsvRoundTrip:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "small.tsv"
        path.write_text("red fox\tlazy dog\t1\nbig cat\tsmall cat\t0\nx y\tz\t1\n", encoding="utf-8")
        ds = load_tsv(path)
        assert len(ds) == 3
        assert ds.class_count == 2
        assert ds.examples[0] == Example(("red", "fox"), ("lazy", "dog"), 1)
        assert ds.examples[2] == Example(("x", "y"), ("z",), 1)

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\nonly two\tfields\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2:"):
            load_tsv(path)

    def test_label_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad2.tsv"
        path.write_text("a\tb\tone\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":1:.*'one'"):
            load_tsv(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_tsv(tmp_path / "missing.tsv")

    def test_write_then_load_identity(self, tmp_path):
        spec = ShiftSpec(n_source=20, n_target=10, source_vocab=9, target_vocab=9)
        src, _ = gen_synthetic_shift(spec, RngState(2))
        path = tmp_path / "src.tsv"
        write_tsv(src, path)
        back = load_tsv(path)
        assert back.examples == src.examples
        assert back.class_count == src.class_count


class TestBalance:
    def test_downsample_to_smallest(self):
        rows = [(("t",), ("u",), 0)] * 100 + [(("t",), ("u",), 1)] * 40
        ds = _toy_dataset(rows)
        out = balance_downsample(ds, seed=0)
        assert out.label_counts() == {0: 40, 1: 40}

    def test_already_balanced_is_permutation(self):
        rows = [((f"a{i}",), (f"b{i}",), i % 2) for i in range(10)]
        ds = _toy_dataset(rows)
        out = balance_downsample(ds, seed=1)
        assert Counter(out.examples) == Counter(ds.examples)

    def test_idempotent_on_class_counts(self):
        rows = [((f"a{i}",), ("b",), 0) for i in range(9)] + [((f"c{i}",), ("d",), 1) for i in range(5)]
        ds = _toy_dataset(rows)
        once = balance_downsample(ds, seed=3)
        twice = balance_downsample(once, seed=3)
        assert once.label_counts() == twice.label_counts() == {0: 5, 1: 5}

    def test_empty_class_rejected(self):
        ds = _toy_dataset([(("a",), ("b",), 0)], class_count=2)
        with pytest.raises(DomainError, match="class 1"):
            balance_downsample(ds, seed=0)

    def test_deterministic(self):
        rows = [((f"a{i}",), ("b",), i % 2) for i in range(30)]
        ds = _toy_dataset(rows)
        assert balance_downsample(ds, seed=5).examples == balance_downsample(ds, seed=5).examples


class TestFilterLabels:
    def _three_class(self):
        rows = [((f"x{i}",), ("y",), i % 3) for i in range(12)]
        return _toy_dataset(rows, class_count=3)

    def test_keep_two_of_three(self):
        out = filter_labels(self._three_class(), {0, 1})
        assert out.class_count == 2
        assert {ex.label for ex in out.examples} == {0, 1}
        assert len(out) == 8

    def test_keep_all_is_identity(self):
        ds = self._three_class()
        out = filter_labels(ds, {0, 1, 2})
        assert out.examples == ds.examples

    def test_remap_is_contiguous(self):
        out = filter_labels(self._three_class(), {1, 2})
        assert {ex.label for ex in out.examples} == {0, 1}

    def test_absent_label_gives_empty_and_warns(self, caplog):
        ds = _toy_dataset([(("a",), ("b",), 0)], class_count=5)
        with caplog.at_level(logging.WARNING):
            out = filter_labels(ds, {4})
        assert len(out) == 0
        assert any("empty" in r.message for r in caplog.records)

    def test_empty_keep_rejected(self):
        with pytest.raises(ConfigError):
            filter_labels(self._three_class(), set())


class TestFewShot:
    def _pool(self, per_class=30):
        rows = [((f"a{i}",), (f"b{i}",), i % 2) for i in range(2 * per_class)]
        return _toy_dataset(rows)

    def test_k_per_class(self):
        fs, rest = sample_few_shot(self._pool(), FewShotSpec(k=10, seed=1))
        assert len(fs) == 20
        assert fs.label_counts() == {0: 10, 1: 10}
        assert len(rest) == 40

    def test_exhausting_a_class(self):
        fs, rest = sample_few_shot(self._pool(per_class=10), FewShotSpec(k=10, seed=2))
        assert rest.label_counts() == {0: 0, 1: 0}

    def test_same_seed_same_split(self):
        pool = self._pool()
        a = sample_few_shot(pool, FewShotSpec(k=5, seed=9))
        b = sample_few_shot(pool, FewShotSpec(k=5, seed=9))
        assert a[0].examples == b[0].examples and a[1].examples == b[1].examples

    def test_partition_exact(self):
        pool = self._pool()
        fs, rest = sample_few_shot(pool, FewShotSpec(k=7, seed=3))
        assert Counter(fs.examples) + Counter(rest.examples) == Counter(pool.examples)

    def test_insufficient_class_named(self):
        rows = [((f"a{i}",), ("b",), 0) for i in range(20)] + [(("c",), ("d",), 1)]
        ds = _toy_dataset(rows)
        with pytest.raises(DomainError, match="class 1"):
            sample_few_shot(ds, FewShotSpec(k=2, seed=0))

    def test_indices_sorted_and_valid(self):
        pool = self._pool()
        idx = few_shot_indices(pool, FewShotSpec(k=4, seed=5))
        assert idx == sorted(idx)
        assert len(set(idx)) == 8


class TestSyntheticShift:
    def test_class_balance(self):
        spec = ShiftSpec(n_source=40, n_target=20)
        src, tgt = gen_synthetic_shift(spec, RngState(4))
        assert src.label_counts() == {0: 20, 1: 20}
        assert tgt.label_counts() == {0: 10, 1: 10}

    def test_deterministic(self):
        spec = ShiftSpec(n_source=30, n_target=10)
        a = gen_synthetic_shift(spec, RngState(8))
        b = gen_synthetic_shift(spec, RngState(8))
        assert a[0].examples == b[0].examples and a[1].examples == b[1].examples

    def test_rule_consistency_no_flip(self):
        spec = ShiftSpec(n_source=60, n_target=30)
        src, tgt = gen_synthetic_shift(spec, RngState(1))
        for ex in src.examples + tgt.examples:
            assert ex.label == rule_label(spec, ex.text_a, ex.text_b)

    def test_full_flip_inverts_all_source(self):
        spec = ShiftSpec(n_source=60, n_target=30, flip_fraction=1.0)
        src, tgt = gen_synthetic_shift(spec, RngState(1))
        assert all(ex.label != rule_label(spec, ex.text_a, ex.text_b) for ex in src.examples)
        assert all(ex.label == rule_label(spec, ex.text_a, ex.text_b) for ex in tgt.examples)

    def test_half_flip_is_balanced_per_class(self):
        spec = ShiftSpec(n_source=200, n_target=20, flip_fraction=0.5)
        src, _ = gen_synthetic_shift(spec, RngState(6))
        flipped = [ex for ex in src.examples if ex.label != rule_label(spec, ex.text_a, ex.text_b)]
        assert len(flipped) == 100
        assert Counter(ex.label for ex in flipped) == {0: 50, 1: 50}
        assert src.label_counts() == {0: 100, 1: 100}

    def test_disjoint_filler_vocabularies(self):
        spec = ShiftSpec(n_source=20, n_target=20)
        src, tgt = gen_synthetic_shift(spec, RngState(2))

        def fillers(ds):
            return {
                t
                for ex in ds.examples
                for t in ex.text_a + ex.text_b
                if not (t.startswith("qm") or t.startswith("rm"))
            }

        src_fillers, tgt_fillers = fillers(src), fillers(tgt)
        assert src_fillers and tgt_fillers and not (src_fillers & tgt_fillers)

    def test_marker_families_shared(self):
        spec = ShiftSpec(n_source=40, n_target=40)
        src, tgt = gen_synthetic_shift(spec, RngState(3))
        for ds in (src, tgt):
            for ex in ds.examples:
                a_markers = [t for t in ex.text_a if t.startswith("qm")]
                b_markers = [t for t in ex.text_b if t.startswith("rm")]
                assert len(a_markers) == spec.marker_repeats
                assert len(b_markers) == spec.marker_repeats
                assert len(set(a_markers)) == 1 and len(set(b_markers)) == 1

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            ShiftSpec(flip_fraction=1.5)
        with pytest.raises(ConfigError):
            ShiftSpec(n_source=10, n_target=20)
        with pytest.raises(ConfigError):
            ShiftSpec(n_source=11, n_target=4)
        with pytest.raises(ConfigError):
            ShiftSpec(min_fillers=3, max_fillers=2)
        with pytest.raises(ConfigError):
            ShiftSpec(marker_repeats=0)
        with pytest.raises(ConfigError):
            ShiftSpec(marker_pairs=1)


def _assert_same_as_oracle(spec: ShiftSpec, seed: int, position: int) -> None:
    fast, slow = RngState(seed, position), RngState(seed, position)
    got, want = gen_synthetic_shift(spec, fast), oracle_gen_synthetic_shift(spec, slow)
    assert got[0].examples == want[0].examples
    assert got[1].examples == want[1].examples
    assert fast.position == slow.position


class TestSyntheticMatchesOracle:
    """The blocked generator against the per-example draw it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.integers(2, 6),
        repeats=st.integers(1, 3),
        min_fillers=st.integers(1, 6),
        extra=st.integers(0, 8),
        vocabs=st.tuples(st.integers(1, 10**12), st.integers(1, 10**12)),
        sizes=st.tuples(st.integers(1, 20), st.integers(0, 20)),
        flip=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        position=st.integers(0, 2**48),
    )
    @example(pairs=2**62 + 1, repeats=1, min_fillers=1, extra=3000, vocabs=(10**30, 3),
             sizes=(2, 20), flip=0.5, seed=7, position=0)
    def test_equal_datasets_and_cursor(
        self, pairs, repeats, min_fillers, extra, vocabs, sizes, flip, seed, position
    ):
        spec = ShiftSpec(
            n_source=2 * (sizes[0] + sizes[1]),
            n_target=2 * sizes[0],
            source_vocab=vocabs[0],
            target_vocab=vocabs[1],
            min_fillers=min_fillers,
            max_fillers=min_fillers + extra,
            marker_pairs=pairs,
            marker_repeats=repeats,
            flip_fraction=flip,
        )
        _assert_same_as_oracle(spec, seed, position)

    def test_several_blocks(self):
        spec = ShiftSpec(n_source=12000, n_target=600, flip_fraction=0.5, source_vocab=10**12)
        pairs_per_block = data._BLOCK_WORDS // (3 + 4 * (1 + spec.max_fillers))
        assert spec.n_source // 2 > 2 * pairs_per_block  # the source spans three blocks
        _assert_same_as_oracle(spec, 1, 12345)


class TestFlipMatchesScan:
    """Flipped indices taken at their closed-form offset before the source is
    built, against the stream-order scan that rebuilds each flipped example."""

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.tuples(st.integers(1, 20), st.integers(0, 40)),
        max_fillers=st.integers(1, 6),
        flip=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        position=st.integers(0, 2**48),
    )
    @example(sizes=(300, 5700), max_fillers=4, flip=0.5, seed=1, position=0)
    def test_equal_datasets_and_cursor(self, sizes, max_fillers, flip, seed, position):
        spec = ShiftSpec(
            n_source=2 * (sizes[0] + sizes[1]),
            n_target=2 * sizes[0],
            min_fillers=1,
            max_fillers=max_fillers,
            flip_fraction=flip,
        )
        fast, slow = RngState(seed, position), RngState(seed, position)
        got, want = gen_synthetic_shift(spec, fast), oracle_shift_by_scan(spec, slow)
        assert got[0].examples == want[0].examples
        assert got[1].examples == want[1].examples
        assert fast.position == slow.position


class TestShiftTrainability:
    """End-to-end oracle runs: the generated shift behaves as designed."""

    def _train_on_source(self, spec, seed=0):
        from metaweight.backbones import BackboneArch, ModelState, build_embedding
        from metaweight.stats import accuracy, predict
        from metaweight.training import TrainSpec, run_training

        src, tgt = gen_synthetic_shift(spec, RngState(seed))
        arch = BackboneArch("mlp", build_embedding(9, 2048, 32), 2, hidden_dim=32)
        model = ModelState(arch.init_params(seed), arch)
        train_spec = TrainSpec(method="backbone_only", epochs=10, alpha=0.05, seed=seed, batch_size=16)
        report = run_training(train_spec, model, (), src.examples)
        return accuracy(predict(report.model, tgt.examples))

    def test_clean_source_transfers(self):
        spec = ShiftSpec(n_source=4000, n_target=400, flip_fraction=0.0)
        assert self._train_on_source(spec) > 0.9

    def test_fully_flipped_source_anti_learns(self):
        spec = ShiftSpec(n_source=4000, n_target=400, flip_fraction=1.0)
        assert self._train_on_source(spec) < 0.5
