"""Tests for tokenizers, synthetic corpora, and the LM data loader."""

import numpy as np
import pytest

from repro.data import CharTokenizer, LMDataLoader, generate_tiny_shakespeare


class TestCharTokenizer:
    def test_roundtrip(self):
        text = "hello world"
        tok = CharTokenizer(text)
        assert tok.decode(tok.encode(text)) == text

    def test_vocab_is_sorted_and_stable(self):
        t1, t2 = CharTokenizer("abc"), CharTokenizer("cba")
        assert t1.encode("abc").tolist() == t2.encode("abc").tolist()

    def test_unknown_char_raises(self):
        with pytest.raises(ValueError):
            CharTokenizer("abc").encode("xyz")

    def test_pad_in_vocab(self):
        tok = CharTokenizer("ab")
        assert 0 <= tok.pad_id < tok.vocab_size


class TestCorpora:
    def test_shakespeare_deterministic(self):
        assert generate_tiny_shakespeare(50, seed=3) == \
            generate_tiny_shakespeare(50, seed=3)

    def test_shakespeare_different_seeds_differ(self):
        assert generate_tiny_shakespeare(50, seed=1) != \
            generate_tiny_shakespeare(50, seed=2)

    def test_shakespeare_dialogue_format(self):
        text = generate_tiny_shakespeare(20, seed=0)
        assert ":" in text
        speakers = [line for line in text.split("\n") if line.endswith(":")]
        assert len(speakers) == 20

    def test_shakespeare_validates(self):
        with pytest.raises(ValueError):
            generate_tiny_shakespeare(0)


class TestLMDataLoader:
    def make_loader(self, n=100, batch=2, seq=10, **kw):
        return LMDataLoader(np.arange(n), batch_size=batch, seq_len=seq, **kw)

    def test_batch_shapes(self):
        loader = self.make_loader()
        inputs, targets = next(iter(loader))
        assert inputs.shape == (2, 10)
        assert targets.shape == (2, 10)

    def test_targets_shifted_by_one(self):
        loader = self.make_loader(shuffle=False)
        inputs, targets = next(iter(loader))
        np.testing.assert_array_equal(targets, inputs + 1)

    def test_len_with_drop_last(self):
        loader = self.make_loader(n=100, batch=3, seq=10)  # 9 windows
        assert len(loader) == 3

    def test_no_drop_last(self):
        loader = self.make_loader(n=100, batch=4, seq=10, drop_last=False)
        batches = list(loader)
        assert len(batches) == len(loader) == 3
        assert batches[-1][0].shape[0] == 1  # 9 windows -> 4+4+1

    def test_shuffle_changes_across_epochs(self):
        loader = self.make_loader(n=200, shuffle=True)
        first = next(iter(loader))[0]
        second = next(iter(loader))[0]
        assert not np.array_equal(first, second)

    def test_batches_cycles_epochs(self):
        loader = self.make_loader(n=41, batch=1, seq=10)  # 4 windows/epoch
        batches = list(loader.batches(10))
        assert len(batches) == 10

    def test_too_few_tokens_raises(self):
        with pytest.raises(ValueError):
            LMDataLoader(np.arange(5), batch_size=1, seq_len=10)

    def test_rejects_2d_tokens(self):
        with pytest.raises(ValueError):
            LMDataLoader(np.zeros((2, 2)), batch_size=1, seq_len=1)

    def test_windows_do_not_cross_data_end(self):
        loader = self.make_loader(n=25, batch=1, seq=10, shuffle=False)
        for inputs, targets in loader:
            assert inputs.max() < 25 and targets.max() < 25
