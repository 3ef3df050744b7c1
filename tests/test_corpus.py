import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _corpus_reference as ref
from attnrec import corpus
from attnrec.errors import BoundsError, DataError, ParseError


def _tokens(docs) -> corpus.Tokens:
    """The corpus.Tokens of per-document token lists."""
    words = sorted({tok for doc in docs for tok in doc})
    index = {word: i for i, word in enumerate(words)}
    return corpus.Tokens(np.repeat(np.arange(len(docs)), [len(doc) for doc in docs]),
                         np.array([index[tok] for doc in docs for tok in doc], dtype=np.int64),
                         words, len(docs))


def test_tokenize_lowercase_letter_runs(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("Deep-Learning42 models, the CAT!\n\n123 456")
    tokens = corpus.read_raw_docs(path)
    assert [tokens.words[i] for i in tokens.ids] == ["deep", "learning", "models", "the", "cat"]
    assert tokens.docs.tolist() == [0] * 5 and tokens.n_docs == 3
    assert tokens.words == ["cat", "deep", "learning", "models", "the"]


def test_stop_words_loaded():
    words = corpus.load_stop_words()
    assert {"the", "and", "of"} <= words
    assert "recommender" not in words


def test_select_vocabulary_hand_oracle():
    # df(apple)=2, max_tf(apple)=2 -> score 2*ln(3/2); cherry identical;
    # banana scores 1*ln(3/2); 'the' is a stop word.
    docs = _tokens([ref.tokenize(s) for s in
                    ["apple banana apple", "banana cherry", "apple cherry cherry the"]])
    vocab = corpus.select_vocabulary(docs, corpus.load_stop_words(), 2)
    assert vocab.tokens == ["apple", "cherry"]
    expected = 2.0 * math.log(3.0 / 2.0)
    assert np.allclose(vocab.scores, [expected, expected])
    assert vocab.doc_freq.tolist() == [2, 2]
    assert vocab.max_tf.tolist() == [2, 2]


def test_select_vocabulary_tie_breaks_lexicographic():
    docs = _tokens([["zebra", "apple"], ["zebra", "apple"]])
    vocab = corpus.select_vocabulary(docs, frozenset(), 1)
    assert vocab.tokens == ["apple"]


def test_select_vocabulary_fewer_tokens_than_requested_warns():
    docs = _tokens([["alpha"], ["beta"]])
    with pytest.warns(UserWarning):
        vocab = corpus.select_vocabulary(docs, frozenset(), 10)
    assert sorted(vocab.tokens) == ["alpha", "beta"]


def test_build_bow_row_max_normalized():
    docs = _tokens([ref.tokenize(s) for s in
                    ["apple banana apple", "banana cherry", "apple cherry cherry the"]])
    vocab = corpus.select_vocabulary(docs, corpus.load_stop_words(), 2)
    bow = corpus.build_bow(docs, vocab)
    assert np.array_equal(bow.matrix.toarray(),
                          [[1.0, 0.0], [0.0, 1.0], [0.5, 1.0]])


def test_build_bow_all_oov_row_is_empty():
    vocab = corpus.select_vocabulary(_tokens([["kept"], ["kept"]]), frozenset(), 1)
    bow = corpus.build_bow(_tokens([["kept"], ["dropped", "words"]]), vocab)
    assert bow.matrix[1].nnz == 0


def test_vocabulary_roundtrip(tmp_path):
    docs = _tokens([["apple", "banana"], ["apple", "cherry", "cherry"]])
    vocab = corpus.select_vocabulary(docs, frozenset(), 3)
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "token\tdoc_freq\tmax_tf\tscore"
    fields = [row.split("\t") for row in rows]
    assert [f[0] for f in fields] == vocab.tokens == ["cherry", "banana", "apple"]
    assert [float(f[3]) for f in fields] == vocab.scores.tolist()


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
    # Tag lines are counted; an uncounted file with an empty line is refused.
    plain = tmp_path / "tags.dat"
    plain.write_text("1 3\n\n2\n")
    with pytest.raises(ParseError, match="line 2: empty line"):
        corpus.load_tag_assignments(plain)
    counted = tmp_path / "tags2.dat"
    counted.write_text("2 1 3\n0\n1 2\n")
    got = corpus.load_tag_assignments(counted)
    assert got.dtype == np.int64 and got.tolist() == [[0, 1], [0, 3], [2, 2]]


def test_load_citations_pairs_and_adjacency(tmp_path):
    # Citation lines are counted adjacency lines; a 'citing cited' pair
    # file miscounts at once and is refused.
    pairs = tmp_path / "c.dat"
    pairs.write_text("0 2\n3 0\n")
    with pytest.raises(ParseError, match="line 1: declared 0 ids but found 1"):
        corpus.load_citations(pairs)
    adjacency = tmp_path / "c2.dat"
    adjacency.write_text("1 2\n0\n0\n1 0\n")
    got = corpus.load_citations(adjacency)
    assert got.dtype == np.int64 and got.tolist() == [[0, 2], [3, 0]]


@pytest.mark.parametrize("load, text, message", [
    (corpus.load_interactions, "2 1 2\n\n", "line 2: empty line"),
    (corpus.load_interactions, "1 1\n2 1 x\n", "line 2: invalid literal"),
    (corpus.load_interactions, "1 2\n1 99999999999999999999\n", "line 2: .*too large"),
    (corpus.load_mult_content, "1 0:2\n1 3:0\n", "line 2: a term count is not positive"),
    (corpus.load_mult_content, "1 0:2\n2 0:2:1 4\n", "line 2: an entry is not term:count"),
    (corpus.load_mult_content, "1 :2\n", "line 1: invalid literal"),
    (corpus.load_mult_content, "2 0:2\n", "line 1: declared 2 ids but found 1"),
    (corpus.load_tag_assignments, "0\n\n", "line 2: empty"),
    (corpus.load_citations, "1\n", "line 1: declared 1"),
    (corpus.load_interactions, "1 1\r\n0\r\n\r\n", "line 3: empty line"),
    (corpus.load_interactions, "2 1\n1 x\n", "line 1: declared 2 ids but found 1"),
    (corpus.load_mult_content, "1 0:0\n1 0:1:2\n", "line 1: a term count is not positive"),
])
def test_every_parse_error_names_the_file_and_line(tmp_path, load, text, message):
    path = tmp_path / "input.dat"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"input\\.dat: {message}"):
        load(path)


@pytest.mark.parametrize("load, text, message", [
    (corpus.load_interactions, "1 0\n2 1 3\n", "line 2: article 3 out of range for 3"),
    (corpus.load_mult_content, "1 0:1\n0\n1 5:2\n", "line 3: term 5 out of range for 3"),
    (corpus.load_tag_assignments, "1 1\n0\n0\n0\n2 4 5\n", "line 5: article 4 out of range"),
    (corpus.load_citations, "1 1\n0\n1 3\n", "line 3: article 3 out of range"),
    (corpus.load_citations, "0\n0\n0\n1 0\n", "line 4: article 3 out of range"),
])
def test_out_of_range_ids_name_the_file_and_line(tmp_path, load, text, message):
    path = tmp_path / "input.dat"
    path.write_text(text)
    limit = {corpus.load_mult_content: "vocab_size"}.get(load, "n_articles")
    with pytest.raises(BoundsError, match=f"input\\.dat: {message}"):
        load(path, **{limit: 3})
    load(path)  # without a limit every id is in range


@pytest.mark.parametrize("load, text, message", [
    (corpus.load_interactions, "1 2\n1 -3\n", "line 2: article -3 out of range"),
    (corpus.load_mult_content, "1 0:2\n0\n1 -2:3\n", "line 3: term -2 out of range"),
    (corpus.load_tag_assignments, "1 2\n1 -1\n", "line 2: tag -1 out of range"),
    (corpus.load_citations, "1 1\n1 -2\n", "line 2: article -2 out of range"),
])
def test_negative_ids_name_the_file_and_line(tmp_path, load, text, message):
    path = tmp_path / "input.dat"
    path.write_text(text)
    with pytest.raises(BoundsError, match=f"input\\.dat: {message}"):
        load(path)


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


def test_repeated_pairs_stay_binary():
    r = corpus.InteractionMatrix.from_pairs([1, 0, 1, 1], [2, 0, 2, 2], 2, 3)
    assert r.matrix.data.tolist() == [1.0, 1.0]
    assert r.user_items(1).tolist() == [2]


def test_interaction_cache_bad_article_names_file(tmp_path):
    # one user whose single article id 7 lies outside n_articles=2
    path = tmp_path / "interactions.bin"
    path.write_bytes(b"RXIM\x02" + struct.pack("<IIQ2QI", 1, 2, 1, 0, 1, 7))
    with pytest.raises(BoundsError, match=r"interactions\.bin.*column index 7 >= n_cols=2"):
        corpus.InteractionMatrix.load(path)


def _same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tag_matrix_equals_the_set_based_builder(data):
    # Small id ranges make duplicate assignments, duplicate citations and
    # self-citations common; n_tags past the largest carried id leaves tag
    # ids that no article carries, which every threshold (0 too) drops.
    n_articles = data.draw(st.integers(1, 8))
    n_tags = data.draw(st.integers(1, 7))
    article = st.integers(0, n_articles - 1)
    assignments = data.draw(st.lists(st.tuples(article, st.integers(0, n_tags - 1)),
                                     max_size=30))
    citations = data.draw(st.lists(st.tuples(article, article), max_size=20))
    threshold = data.draw(st.integers(0, 4))
    got = corpus.build_tag_matrix(assignments, citations, threshold,
                                  n_articles=n_articles, n_tags=n_tags)
    want = ref.build_tag_matrix(assignments, citations, threshold, n_articles, n_tags)
    _same_csr(got.matrix, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=12), min_size=1, max_size=8),
       st.integers(1, 7))
def test_bow_equals_the_counter_based_normalisation(docs, top_n):
    vocab = corpus.select_vocabulary(_tokens(docs + [list("abcdefg")]), frozenset(), top_n)
    index = {tok: i for i, tok in enumerate(vocab.tokens)}
    want = ref.row_max_normalised(
        [[(index[tok], 1) for tok in doc if tok in index] for doc in docs], top_n)
    _same_csr(corpus.build_bow(_tokens(docs), vocab).matrix, want)


# Pieces of docs.txt: the case mappings that reach a-z (the Kelvin sign
# lowers to k, a dotted capital I to i and a combining dot), the breaks that
# end a line (LF, CRLF, a lone CR) and ones that do not (U+0085, VT, FF),
# other letters, stop words, and words longer than the 8 letters of one u64.
_TEXT = st.lists(st.one_of(
    st.sampled_from(["\n", "\r\n", "\r", "\x85", "\x0b", "\x0c", " ", "\u212a", "\u0130",
                     "Straße", "ΣΑΣ", "é", "42", "-", "the", "of", "EIGHTISH", "nineteens",
                     "recommendation", "Recommendations"]),
    st.text(st.sampled_from("abkzKZ\u212a\u0130 \n\r"), max_size=10)), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(_TEXT, st.integers(1, 6))
def test_text_caches_equal_the_regex_and_counter_path(tmp_path_factory, text, top_n):
    folder = tmp_path_factory.mktemp("text")
    (folder / "docs.txt").write_bytes(text.encode("utf-8"))
    docs = ref.read_raw_docs(folder / "docs.txt")
    tokens = corpus.read_raw_docs(folder / "docs.txt")
    assert tokens.n_docs == len(docs)
    assert [[tokens.words[i] for i in tokens.ids[tokens.docs == d]] for d in range(len(docs))] \
        == docs
    stop = corpus.load_stop_words()
    want = ref.select_vocabulary(docs, stop, top_n)
    if want is None:
        with pytest.raises(DataError, match="no candidate tokens"):
            corpus.select_vocabulary(tokens, stop, top_n)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vocab = corpus.select_vocabulary(tokens, stop, top_n)
    assert len(caught) == (len(want[0]) < top_n)
    vocab.save(folder / "vocab.tsv")
    corpus.build_bow(tokens, vocab).save(folder / "content.bin")
    corpus.Vocabulary(want[0], *map(np.array, want[1:])).save(folder / "want.tsv")
    corpus.ContentMatrix(ref.build_bow(docs, want[0])).save(folder / "want.bin")
    for got, expected in (("vocab.tsv", "want.tsv"), ("content.bin", "want.bin")):
        assert (folder / got).read_bytes() == (folder / expected).read_bytes(), got


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 9)), max_size=8),
                min_size=1, max_size=8))
def test_mult_content_equals_the_counter_based_normalisation(tmp_path_factory, rows):
    # Repeated term ids within a line are summed before the row maximum.
    path = tmp_path_factory.mktemp("mult") / "mult.dat"
    path.write_text("".join(
        " ".join([str(len(row))] + [f"{t}:{c}" for t, c in row]) + "\n" for row in rows))
    got = corpus.load_mult_content(path, vocab_size=6)
    _same_csr(got.matrix, ref.row_max_normalised(rows, 6))


def _spelt(value: int):
    """``value`` as a file may spell it: zero-padded up to 18 characters."""
    digits, sign = str(abs(value)), "-" * (value < 0)
    return st.integers(0, 18 - len(sign + digits)).map(lambda zeros: sign + "0" * zeros + digits)


_ID = (st.integers(-60, 60) | st.integers(-10 ** 17 + 1, 10 ** 18 - 1)
       | st.sampled_from([10 ** 18 - 1, -10 ** 17 + 1])).flatmap(_spelt)
_ENTRY = st.tuples(_ID, st.integers(1, 10 ** 18 - 1).flatmap(_spelt)).map(":".join)
_GAP = st.sampled_from([" ", "  ", "\t", " \t", "\t\t ", "   "])
_BLANK = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def _id_lines(draw, pairs) -> list:
    """Lines of a valid id file, or with ``pairs`` of a mult file: each opens
    with its id count, ids parted by runs of spaces and tabs, and blank space
    at either end."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        ids = draw(st.lists(_ENTRY if pairs else _ID, max_size=6))
        line = draw(_BLANK) + draw(_spelt(len(ids)))
        for tok in ids:
            line += draw(_GAP) + tok
        lines.append(line + draw(_BLANK))
    return lines


@st.composite
def _joined(draw, lines) -> bytes:
    """``lines`` each ended by LF, CRLF or CR, the last maybe by none."""
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)).encode("utf-8", "surrogateescape")


@settings(max_examples=300, deadline=None)
@given(st.data(), st.booleans())
def test_numpy_pass_equals_the_line_loop(tmp_path_factory, data, pairs):
    path = tmp_path_factory.mktemp("lines") / "input.dat"
    path.write_bytes(data.draw(_joined(data.draw(_id_lines(pairs)))))
    rows, values, sizes = corpus._lines(path, pairs)
    want = ref.lines(path, pairs)
    assert rows.dtype == values.dtype == np.int64 and isinstance(sizes, list)
    assert sizes == want[2]
    np.testing.assert_array_equal(rows, want[0])
    np.testing.assert_array_equal(values, want[1])


# Tokens that only ``int`` read, or that no reading takes; "\udcff" writes byte 0xff.
_REFUSED = ["+7", "1_0", "٣", "1" * 19, "0" * 19, "3\v", "\udcff", ":", ":2", "2:", "0::2",
            "5-3", "-"]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans(), st.sampled_from(_REFUSED))
def test_a_bad_token_on_any_line_is_refused_naming_it(tmp_path_factory, data, pairs, bad):
    # The bad token's line, however the lines before it end, and not an
    # 18-digit id in its place.
    lines = data.draw(_id_lines(pairs))
    at = data.draw(st.integers(0, len(lines)))
    path = tmp_path_factory.mktemp("bad") / "input.dat"
    good = "1 " + "9" * 18 + ":1" * pairs
    path.write_bytes(data.draw(_joined(lines[:at] + [good] + lines[at:])))
    assert corpus._lines(path, pairs)[2][at] == 1
    path.write_bytes(data.draw(_joined(lines[:at] + [f"1 {bad}"] + lines[at:])))
    with pytest.raises(ParseError, match=f"input\\.dat: line {at + 1}: ") as caught:
        corpus._lines(path, pairs)
    assert repr(bad.encode("utf-8", "surrogateescape")) in str(caught.value)


@pytest.mark.parametrize("bad", _REFUSED)
@pytest.mark.parametrize("load", [corpus.load_interactions, corpus.load_tag_assignments,
                                  corpus.load_citations, corpus.load_mult_content])
def test_every_loader_refuses_each_token_outside_the_grammar(tmp_path, load, bad):
    path = tmp_path / "input.dat"
    head = "1 0:1" if load is corpus.load_mult_content else "1 0"
    path.write_bytes(f"{head}\r\n1 {bad}\n".encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError, match="input\\.dat: line 2: ") as caught:
        load(path)
    assert repr(bad.encode("utf-8", "surrogateescape")) in str(caught.value)


@pytest.mark.parametrize("raw, line", [(b"1 1\n1 \xff3\n", 2), (b"1 1\r1 1\r\n1 \xe9\n", 3)])
@pytest.mark.parametrize("load", [corpus.load_interactions, corpus.load_tag_assignments,
                                  corpus.load_citations, corpus.load_mult_content,
                                  corpus.read_raw_docs])
def test_a_byte_that_is_not_utf8_names_the_file_and_line(tmp_path, load, raw, line):
    # Lines are counted as text mode counts them, CR and CRLF included. An id
    # file names the token holding the byte; a text file, the decode error.
    path = tmp_path / "input.dat"
    path.write_bytes(raw.replace(b"1 1", b"1 1:1") if load is corpus.load_mult_content else raw)
    message = ("'utf-8' codec can't decode byte" if load is corpus.read_raw_docs
               else re.escape(f"invalid literal {raw.split()[-1]!r}"))
    with pytest.raises(ParseError, match=f"input\\.dat: line {line}: {message}"):
        load(path)
