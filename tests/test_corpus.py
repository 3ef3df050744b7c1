import math
import struct

import numpy as np
import pytest

from attnrec import corpus
from attnrec.errors import BoundsError, DataError, ParseError


def test_tokenize_lowercase_letter_runs():
    assert corpus.tokenize("Deep-Learning42 models, the CAT!") == [
        "deep", "learning", "models", "the", "cat"]
    assert corpus.tokenize("") == []
    assert corpus.tokenize("123 456") == []


def test_stop_words_loaded():
    words = corpus.load_stop_words()
    assert {"the", "and", "of"} <= words
    assert "recommender" not in words


def test_select_vocabulary_hand_oracle():
    # df(apple)=2, max_tf(apple)=2 -> score 2*ln(3/2); cherry identical;
    # banana scores 1*ln(3/2); 'the' is a stop word.
    docs = [corpus.tokenize(s) for s in
            ["apple banana apple", "banana cherry", "apple cherry cherry the"]]
    vocab = corpus.select_vocabulary(docs, corpus.load_stop_words(), 2)
    assert vocab.tokens == ["apple", "cherry"]
    expected = 2.0 * math.log(3.0 / 2.0)
    assert np.allclose(vocab.scores, [expected, expected])
    assert vocab.doc_freq.tolist() == [2, 2]
    assert vocab.max_tf.tolist() == [2, 2]


def test_select_vocabulary_tie_breaks_lexicographic():
    docs = [["zebra", "apple"], ["zebra", "apple"]]
    vocab = corpus.select_vocabulary(docs, frozenset(), 1)
    assert vocab.tokens == ["apple"]


def test_select_vocabulary_fewer_tokens_than_requested_warns():
    docs = [["alpha"], ["beta"]]
    with pytest.warns(UserWarning):
        vocab = corpus.select_vocabulary(docs, frozenset(), 10)
    assert sorted(vocab.tokens) == ["alpha", "beta"]


def test_build_bow_row_max_normalized():
    docs = [corpus.tokenize(s) for s in
            ["apple banana apple", "banana cherry", "apple cherry cherry the"]]
    vocab = corpus.select_vocabulary(docs, corpus.load_stop_words(), 2)
    bow = corpus.build_bow(docs, vocab)
    assert np.array_equal(bow.matrix.toarray(),
                          [[1.0, 0.0], [0.0, 1.0], [0.5, 1.0]])


def test_build_bow_all_oov_row_is_empty():
    vocab = corpus.select_vocabulary([["kept"], ["kept"]], frozenset(), 1)
    bow = corpus.build_bow([["kept"], ["dropped", "words"]], vocab)
    assert bow.matrix[1].nnz == 0


def test_vocabulary_roundtrip(tmp_path):
    docs = [["apple", "banana"], ["apple", "cherry", "cherry"]]
    vocab = corpus.select_vocabulary(docs, frozenset(), 3)
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    again = corpus.Vocabulary.load(path)
    assert again.tokens == vocab.tokens
    assert np.allclose(again.scores, vocab.scores)
    assert again.index()["apple"] == vocab.index()["apple"]


def test_load_interactions_counted_format(tmp_path):
    path = tmp_path / "users.dat"
    path.write_text("3 4 1 4\n2 0 2\n")
    r = corpus.load_interactions(path)
    assert (r.n_users, r.n_articles) == (2, 5)
    # duplicate (0, 4) collapses to a single binary entry
    assert r.n_pairs == 4
    assert r.user_items(0).tolist() == [1, 4]
    assert r.user_items(1).tolist() == [0, 2]


def test_load_interactions_count_mismatch(tmp_path):
    path = tmp_path / "users.dat"
    path.write_text("3 1 2\n")
    with pytest.raises(ParseError, match="line 1"):
        corpus.load_interactions(path)


def test_load_interactions_bounds(tmp_path):
    path = tmp_path / "users.dat"
    path.write_text("1 4\n")
    with pytest.raises(BoundsError):
        corpus.load_interactions(path, n_articles=3)


def test_load_interactions_empty_file(tmp_path):
    path = tmp_path / "users.dat"
    path.write_text("")
    with pytest.raises(DataError):
        corpus.load_interactions(path)


def test_load_mult_content(tmp_path):
    path = tmp_path / "mult.dat"
    path.write_text("2 0:3 4:1\n0\n1 2:5\n")
    content = corpus.load_mult_content(path, vocab_size=6)
    dense = content.matrix.toarray()
    assert dense.shape == (3, 6)
    assert np.allclose(dense[0], [1.0, 0, 0, 0, 1.0 / 3.0, 0])
    assert dense[1].sum() == 0
    assert np.allclose(dense[2], [0, 0, 1.0, 0, 0, 0])


def test_load_mult_content_term_out_of_range(tmp_path):
    path = tmp_path / "mult.dat"
    path.write_text("1 9:2\n")
    with pytest.raises(BoundsError):
        corpus.load_mult_content(path, vocab_size=5)


def test_load_tag_assignments_plain_and_counted(tmp_path):
    plain = tmp_path / "tags.dat"
    plain.write_text("1 3\n\n2\n")
    assert corpus.load_tag_assignments(plain) == [(0, 1), (0, 3), (2, 2)]
    counted = tmp_path / "tags2.dat"
    counted.write_text("2 1 3\n0\n1 2\n")
    assert corpus.load_tag_assignments(counted, counted=True) == [
        (0, 1), (0, 3), (2, 2)]


def test_load_citations_pairs_and_adjacency(tmp_path):
    pairs = tmp_path / "c.dat"
    pairs.write_text("0 2\n3 0\n")
    assert corpus.load_citations(pairs) == [(0, 2), (3, 0)]
    adjacency = tmp_path / "c2.dat"
    adjacency.write_text("1 2\n0\n0\n1 0\n")
    assert corpus.load_citations(adjacency, fmt="adjacency") == [(0, 2), (3, 0)]


def test_build_tag_matrix_hand_oracle():
    # tag 0 touches articles {0, 1} and survives min=2; tags 1 and 2 drop.
    # Citation (0, 2) adds nothing; (3, 0) copies tag 0 onto article 3.
    tags = corpus.build_tag_matrix(
        [(0, 0), (0, 1), (1, 0), (2, 2)], [(0, 2), (3, 0)], 2, n_articles=4)
    assert tags.n_tags == 1
    assert np.array_equal(tags.matrix.toarray(), [[1.0], [1.0], [0.0], [1.0]])


def test_tag_propagation_is_single_hop():
    # 2 cites 1 cites 0; only the direct neighbor inherits article 0's tag.
    tags = corpus.build_tag_matrix([(0, 0)], [(1, 0), (2, 1)], 1, n_articles=3)
    assert np.array_equal(tags.matrix.toarray(), [[1.0], [1.0], [0.0]])


def test_tag_filter_runs_before_propagation():
    # Tag 0 reaches six articles through citations, but only one article
    # carries it directly, so a threshold of 2 still removes it.
    tags = corpus.build_tag_matrix(
        [(0, 0)], [(i, 0) for i in range(1, 6)], 2, n_articles=6)
    assert tags.n_tags == 0
    assert tags.matrix.nnz == 0


def test_build_tag_matrix_article_out_of_range():
    with pytest.raises(BoundsError):
        corpus.build_tag_matrix([(5, 0)], [], 1, n_articles=3)


def test_interaction_matrix_roundtrip(tmp_path):
    r = corpus.InteractionMatrix.from_pairs([0, 0, 1], [2, 0, 1], 2, 3)
    path = tmp_path / "r.bin"
    r.save(path)
    again = corpus.InteractionMatrix.load(path)
    assert np.array_equal(again.matrix.toarray(), r.matrix.toarray())
    assert again.user_items(0).tolist() == [0, 2]
    assert again.item_counts().tolist() == [1, 1, 1]


def test_interaction_cache_bad_article_names_file(tmp_path):
    # one user whose single article id 7 lies outside n_articles=2
    path = tmp_path / "interactions.bin"
    path.write_bytes(b"RXIM\x02" + struct.pack("<IIQ2QI", 1, 2, 1, 0, 1, 7))
    with pytest.raises(BoundsError, match=r"interactions\.bin.*column index 7 >= n_cols=2"):
        corpus.InteractionMatrix.load(path)
