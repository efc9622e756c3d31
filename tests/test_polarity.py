import json
import math
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstrend.config import PolarityConfig
from newstrend.corpus import Vocabulary
from newstrend.errors import DataError
from newstrend.polarity import (
    PolarityModelSet, _count, build_model_set, tfidf_difference_ranking,
)
from newstrend.weeks import POT_CLASSES, TradingWeek, WeeklyLabel

from conftest import encoded, encoded_weeks, labeled_weeks, make_doc, traced_peak


# --- independent oracle -----------------------------------------------------
# A from-scratch evaluation of the polarity formula, sharing no code with the
# implementation: plain dict/list arithmetic over the raw token sequences.

def oracle_tfidf(universe_tokens, class_tokens_list, word):
    pooled = [t for doc in class_tokens_list for t in doc]
    if not pooled:
        return 0.0
    count = sum(1 for t in pooled if t == word)
    tf = count / len(pooled)
    df = sum(1 for doc in universe_tokens if word in doc)
    idf = math.log((1 + len(universe_tokens)) / (1 + df)) + 1.0
    return tf * idf


def oracle_polarity(word, window, alpha):
    """window: dict class -> list of token lists."""
    universe = [doc for docs in window.values() for doc in docs]

    def term(cls):
        docs = window.get(cls, [])
        if not docs:
            return 0.0
        return oracle_tfidf(universe, docs, word) / math.sqrt(len(docs))

    return term("vpos") - term("vneg") + alpha * (term("pos") - term("neg"))


def build(labels, docs_by_week, words, **kwargs):
    """`build_model_set` of `make_doc` weeks, encoded over one word table,
    under the `polarity.*` keys `kwargs`."""
    return build_model_set(labels, encoded_weeks(docs_by_week), words, PolarityConfig(**kwargs))


def window_scores(window, words, discount=0.5):
    """Polarity of `words` over one window given as class -> token lists.

    The window is laid out as five consecutive weeks, one per class, and
    the scores are read from the last week of a five-week rolling build.
    """
    labels = labeled_weeks(POT_CLASSES)
    docs_by_week = {lab.week.anchor: [make_doc(f"{lab.pot_class}{j}", toks) for j, toks
                                      in enumerate(window.get(lab.pot_class, []))]
                    for lab in labels}
    model_set = build(labels, docs_by_week, words, window_weeks=5, discount=discount)
    column = model_set.matrix(Vocabulary(words=tuple(words)), labels[-1].week.anchor, 1)[:, 0]
    return dict(zip(words, column.tolist()))


def docs(token_lists):
    return [make_doc(f"d{i}", toks) for i, toks in enumerate(token_lists)]


class TestTfidf:
    """W(x, c) arithmetic, read through one-class windows: with only vpos
    nonempty among the scored classes, P(x) = W(x, vpos)/sqrt(N_vpos)."""

    def test_absent_word_scores_zero(self):
        assert window_scores({"vpos": [["x", "y"]]}, ["gain"])["gain"] == 0.0

    def test_single_doc_universe_degenerate_case(self):
        # one doc, word = every token: TF 1, IDF ln(2/2)+1 = 1
        assert window_scores({"vpos": [["gain", "gain"]]}, ["gain"])["gain"] == pytest.approx(1.0)

    def test_empty_class_scores_zero(self):
        # "x" is in the IDF universe but every scored class is empty
        assert window_scores({"neutral": [["x"]]}, ["x"])["x"] == 0.0

    def test_four_doc_window_hand_value(self):
        # frozen from the independent oracle: TF 3/5, IDF ln(5/3)+1
        token_lists = [["gain", "up"], ["gain", "fall", "gain"], ["flat", "down"], ["drop"]]
        window = {"vpos": token_lists[:2], "neutral": token_lists[2:]}
        value = window_scores(window, ["gain"])["gain"] * math.sqrt(2)
        assert value == pytest.approx(0.9064953742595944, abs=1e-12)
        assert value == pytest.approx(oracle_tfidf(token_lists, token_lists[:2], "gain"))


class TestDifferenceRanking:
    def test_word_only_in_positive_scores_positive(self):
        pos, neg = encoded(docs([["gain", "up"]]), docs([["fall", "down"]]))
        ranking = dict(tfidf_difference_ranking(pos, neg))
        assert ranking["gain"] > 0
        assert ranking["fall"] < 0

    def test_identical_corpora_all_zero(self):
        text = [["gain", "fall", "x"]]
        ranking = tfidf_difference_ranking(*encoded(docs(text), docs(text)))
        assert all(score == pytest.approx(0.0) for _, score in ranking)

    def test_sorted_descending_with_lexicographic_ties(self):
        ranking = tfidf_difference_ranking(*encoded(docs([["bb", "aa"]]), docs([["zz"]])))
        words = [w for w, _ in ranking]
        scores = [s for _, s in ranking]
        assert scores == sorted(scores, reverse=True)
        assert words.index("aa") < words.index("bb")  # equal scores, lexicographic

    def test_empty_class_fatal(self):
        with pytest.raises(DataError):
            tfidf_difference_ranking(*encoded(docs([["x"]]), []))

    def test_matches_oracle(self):
        pos = [["gain", "up"], ["gain", "fall", "gain"]]
        neg = [["flat", "down"], ["drop", "gain"]]
        universe = pos + neg
        for word, score in tfidf_difference_ranking(*encoded(docs(pos), docs(neg))):
            want = (oracle_tfidf(universe, pos, word) - oracle_tfidf(universe, neg, word)) / math.sqrt(2)
            assert score == pytest.approx(want, abs=1e-12)


class TestPolarityScore:
    def window(self):
        return {
            "vpos": [["boom", "x", "y"], ["boom", "z"]],
            "vneg": [["a", "b"], ["c"]],
            "pos": [["p"], ["q"]],
            "neg": [["r"], ["s"]],
            "neutral": [["n"]],
        }

    def test_word_absent_everywhere_is_zero(self):
        assert window_scores(self.window(), ["ghost"])["ghost"] == 0.0

    def test_mirror_window_is_zero_for_every_word(self):
        text_a, text_b = [["gain", "x"], ["y"]], [["gain", "x"], ["y"]]
        window = {"vpos": text_a, "vneg": text_a, "pos": text_b, "neg": text_b, "neutral": []}
        for score in window_scores(window, ["gain", "x", "y"]).values():
            assert score == pytest.approx(0.0, abs=1e-15)

    def test_planted_word_hand_value(self):
        # frozen from the independent oracle over this exact window
        assert window_scores(self.window(), ["boom"], discount=0.5)["boom"] == pytest.approx(
            0.6233776461958405, abs=1e-12
        )

    def test_antisymmetry_under_class_swap(self):
        window = self.window()
        swapped = dict(window)
        swapped["vpos"], swapped["vneg"] = window["vneg"], window["vpos"]
        swapped["pos"], swapped["neg"] = window["neg"], window["pos"]
        words = ["boom", "p", "r", "n"]
        base, mirrored = window_scores(window, words), window_scores(swapped, words)
        for word in words:
            assert mirrored[word] == pytest.approx(-base[word], abs=1e-12)

    def test_adding_word_to_vpos_does_not_decrease_score(self):
        window = self.window()
        base = window_scores(window, ["boom"])["boom"]
        grown = dict(window)
        grown["vpos"] = [["boom", "x", "y"], ["boom", "boom", "z"]]
        assert window_scores(grown, ["boom"])["boom"] >= base - 1e-12

    def test_matches_oracle_on_random_windows(self):
        rng = np.random.default_rng(123)
        vocab = [f"w{i}" for i in range(50)]
        for _ in range(100):
            window = {}
            n_docs = 0
            for cls in POT_CLASSES:
                k = int(rng.integers(0, 5))
                window[cls] = [
                    [vocab[j] for j in rng.integers(0, 50, size=rng.integers(1, 12))]
                    for _ in range(k)
                ]
                n_docs += k
            if n_docs > 20:
                continue
            alpha = float(rng.uniform(0, 1))
            words = [str(w) for w in rng.choice(vocab, size=5, replace=False)]
            for word, got in window_scores(window, words, discount=alpha).items():
                assert got == pytest.approx(oracle_polarity(word, window, alpha), abs=1e-12)


def weekly_fixture(n_weeks=6, words=("gain", "fall", "x")):
    """Tiny weekly setup: alternating vpos/vneg weeks with planted words."""
    monday = date(2020, 1, 6)
    labels, docs_by_week = [], {}
    for i in range(n_weeks):
        anchor = monday + timedelta(days=7 * (i + 1))
        prev = monday + timedelta(days=7 * i)
        pct = 3.0 if i % 2 == 0 else -3.0
        week = TradingWeek(anchor=anchor, prev_anchor=prev, pct_change=pct)
        cls = "vpos" if pct > 0 else "vneg"
        labels.append(WeeklyLabel(week=week, extractor_class="excluded",
                                  pot_class=cls, summarizer_class="up"))
        token = "gain" if cls == "vpos" else "fall"
        docs_by_week[anchor] = [make_doc(f"d{i}{j}", [token, "x"]) for j in range(2)]
    return labels, docs_by_week


def score_at(model_set, anchor, word):
    return dict(model_set.trajectory(word))[anchor]


def all_classes_scores(labels, docs_by_week, words, window_weeks, discount):
    """The scores of `build_model_set` from one (window + weeks) x class x
    word table per count, every class's window sums and weights at once:
    the reference for the class-at-a-time builder."""
    ordered = sorted(labels, key=lambda lab: lab.week.anchor)
    weekly = _count([docs_by_week.get(lab.week.anchor, ()) for lab in ordered],
                    sorted(set(words)))
    n_weeks = len(ordered)
    classes = [POT_CLASSES.index(lab.pot_class) for lab in ordered]

    def window_sums(counts):
        table = np.zeros((window_weeks + n_weeks, len(POT_CLASSES)) + counts.shape[1:],
                         dtype=np.int64)
        table[window_weeks + np.arange(n_weeks), classes] = counts
        np.cumsum(table, axis=0, out=table)
        return table[window_weeks:] - table[:n_weeks]

    counts, df, tokens, n_docs = map(window_sums, weekly)
    idf = np.log((1 + n_docs.sum(axis=-1))[..., None] / (1 + df.sum(axis=-2))) + 1.0
    w = counts / np.maximum(tokens, 1)[..., None]
    w *= idf[..., None, :]
    w /= np.sqrt(np.maximum(n_docs, 1))[..., None]
    w = dict(zip(POT_CLASSES, np.moveaxis(w, 1, 0)))
    return w["vpos"] - w["vneg"] + discount * (w["pos"] - w["neg"])


ORACLE_WORDS = ["gain", "fall", "x", "y", "z"]
week_texts = st.lists(st.lists(st.sampled_from(ORACLE_WORDS), max_size=5), max_size=4)


class TestModelSet:
    @given(weeks=st.lists(st.tuples(st.sampled_from(POT_CLASSES), week_texts),
                          min_size=1, max_size=12),
           tracked=st.sets(st.sampled_from(ORACLE_WORDS + ["unseen"]), min_size=1),
           window_weeks=st.integers(1, 5), discount=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    @settings(max_examples=120, deadline=None)
    def test_class_at_a_time_equals_the_all_classes_table(self, weeks, tracked,
                                                          window_weeks, discount):
        labels = labeled_weeks([cls for cls, _ in weeks])
        docs_by_week = encoded_weeks({
            lab.week.anchor: [make_doc(f"{i}-{j}", t) for j, t in enumerate(texts)]
            for i, (lab, (_, texts)) in enumerate(zip(labels, weeks))})
        got = build_model_set(labels[::-1], docs_by_week, tracked,
                              PolarityConfig(window_weeks=window_weeks, discount=discount))
        want = all_classes_scores(labels, docs_by_week, tracked, window_weeks, discount)
        assert got.scores.tobytes() == want.tobytes()

    def test_peak_stays_under_a_few_weeks_by_words_tables(self):
        n_weeks, n_words = 400, 300
        words = [f"w{j:03d}" for j in range(n_words)]
        rng = np.random.default_rng(3)
        labels = labeled_weeks(rng.choice(POT_CLASSES, size=n_weeks).tolist())
        docs_by_week = encoded_weeks({
            lab.week.anchor: [make_doc(f"{i}-{j}", rng.choice(words, size=20).tolist())
                              for j in range(3)]
            for i, lab in enumerate(labels)})
        peak = traced_peak(build_model_set, labels, docs_by_week, words, PolarityConfig())
        # the all-classes tables alone are 5 x 3 such arrays
        assert peak < 8 * n_weeks * n_words * 8

    def test_rolling_builder_matches_direct_evaluation(self):
        # random classes and texts over 12 weeks with a 4-week window, so
        # every class occurs and weeks leave the window
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(8)]
        labels, _ = weekly_fixture(n_weeks=12)
        labels = [replace(lab, pot_class=str(rng.choice(POT_CLASSES))) for lab in labels]
        plain = {
            lab.week.anchor: [
                [vocab[j] for j in rng.integers(0, 8, size=rng.integers(1, 6))]
                for _ in range(int(rng.integers(0, 4)))
            ]
            for lab in labels
        }
        docs_by_week = {a: [make_doc(f"{a}{j}", t) for j, t in enumerate(d)]
                        for a, d in plain.items()}
        model_set = build(labels, docs_by_week, vocab, window_weeks=4, discount=0.3)
        for idx, lab in enumerate(labels):
            window = {cls: [] for cls in POT_CLASSES}
            for old in labels[max(0, idx - 3): idx + 1]:
                window[old.pot_class] += plain[old.week.anchor]
            for word in vocab:
                got = score_at(model_set, lab.week.anchor, word)
                assert got == pytest.approx(oracle_polarity(word, window, 0.3), abs=1e-12)

    def test_planted_word_signs(self):
        labels, docs_by_week = weekly_fixture()
        model_set = build(labels, docs_by_week, {"gain", "fall"}, window_weeks=3)
        last = labels[-1].week.anchor
        assert score_at(model_set, last, "gain") > 0
        assert score_at(model_set, last, "fall") < 0

    def test_matrix_assembly(self):
        labels, docs_by_week = weekly_fixture()
        model_set = build(labels, docs_by_week, {"gain", "fall"}, window_weeks=3)
        vocab = Vocabulary(words=("gain", "fall", "unseen"))
        anchor = labels[3].week.anchor
        m = model_set.matrix(vocab, anchor, 2)
        assert m.shape == (3, 2)
        assert m[0, 0] == score_at(model_set, anchor, "gain")
        assert m[1, 1] == score_at(model_set, labels[2].week.anchor, "fall")
        assert np.all(m[2] == 0.0)
        single = model_set.matrix(vocab, anchor, 1)
        assert single.shape == (3, 1)
        assert np.allclose(single[:, 0], m[:, 0])

    def test_matrix_missing_history_fatal_names_week(self):
        labels, docs_by_week = weekly_fixture()
        model_set = build(labels, docs_by_week, {"gain"}, window_weeks=3)
        vocab = Vocabulary(words=("gain",))
        with pytest.raises(DataError, match="trailing"):
            model_set.matrix(vocab, labels[0].week.anchor, 2)
        with pytest.raises(DataError, match="2021-01-04"):
            model_set.matrix(vocab, date(2021, 1, 4), 1)

    def test_trajectory_zero_for_unknown_word(self):
        labels, docs_by_week = weekly_fixture()
        model_set = build(labels, docs_by_week, {"gain"}, window_weeks=3)
        rows = model_set.trajectory("nonexistent")
        assert len(rows) == len(labels)
        assert all(score == 0.0 for _, score in rows)

    def test_trajectory_of_late_planted_word(self):
        # word appears only in vpos weeks from week 6 on: zero before, positive after
        labels, docs_by_week = weekly_fixture(n_weeks=10)
        for i, lab in enumerate(labels):
            if i >= 6 and lab.pot_class == "vpos":
                docs = list(docs_by_week[lab.week.anchor])
                docs.append(make_doc(f"late{i}", ["breakthrough", "x"]))
                docs_by_week[lab.week.anchor] = docs
        model_set = build(labels, docs_by_week, {"breakthrough"}, window_weeks=3)
        rows = model_set.trajectory("breakthrough")
        assert all(score == 0.0 for (_, score) in rows[:6])
        assert all(score > 0.0 for (_, score) in rows[6:])

    def test_save_load_roundtrip(self, tmp_path):
        labels, docs_by_week = weekly_fixture()
        model_set = build(labels, docs_by_week, {"gain", "fall"}, window_weeks=3)
        assert model_set.save(tmp_path / "pot.bin") == [tmp_path / "pot.bin"]
        loaded = PolarityModelSet.load(tmp_path / "pot.bin")
        assert loaded.anchors == model_set.anchors
        for word in ("gain", "fall"):
            for (_, got), (_, want) in zip(loaded.trajectory(word), model_set.trajectory(word)):
                assert got == pytest.approx(want, rel=1e-10)

    def test_vocabulary_round_trips_in_ranked_order(self, tmp_path):
        labels, docs_by_week = weekly_fixture()
        model_set = build(labels, docs_by_week, {"gain", "fall"}, window_weeks=3)
        assert model_set.vocab.words == ()  # a set built for trajectories alone
        model_set = replace(model_set, vocab=Vocabulary(words=("gain", "fall")))
        model_set.save(tmp_path / "pot.bin")
        assert PolarityModelSet.load(tmp_path / "pot.bin").vocab.words == ("gain", "fall")
        with pytest.raises(ValueError, match="every vocabulary word must be a tracked word"):
            replace(model_set, vocab=Vocabulary(words=("gain", "rise")))

    def test_saved_scores_load_bit_for_bit(self, tmp_path):
        labels, docs_by_week = weekly_fixture()
        model_set = build(labels, docs_by_week, {"gain", "fall"}, window_weeks=3)
        model_set.scores[0, 0] = -0.0
        model_set.scores[0, 1] = 1 / 3  # not kept by a 12-digit text form
        assert model_set.save(tmp_path / "pot.bin") == [tmp_path / "pot.bin"]
        loaded = PolarityModelSet.load(tmp_path / "pot.bin")
        assert (loaded.anchors, loaded.words, loaded.vocab) == (
            model_set.anchors, model_set.words, model_set.vocab)
        assert loaded.scores.dtype == np.float64
        assert loaded.scores.tobytes() == model_set.scores.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        labels, docs_by_week = weekly_fixture()
        model_set = build(labels, docs_by_week, {"gain", "fall"}, window_weeks=3)
        model_set.save(tmp_path / "a.bin")
        model_set.save(tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize("edit, why", [
        pytest.param(lambda m, h, b: (b"newstrend-extractor 1", h, b), "expected magic",
                     id="bad-magic"),
        pytest.param(lambda m, h, b: (m, h, b[:-8]), "array bytes where the header declares",
                     id="truncated-body"),
        pytest.param(lambda m, h, b: (m, {**h, "anchors": h["anchors"][:-1]}, b),
                     "scores have shape", id="shape-vs-anchors"),
        pytest.param(lambda m, h, b: (m, {**h, "words": h["words"][1:]}, b),
                     "scores have shape", id="shape-vs-words"),
        pytest.param(lambda m, h, b: (m, {**h, "anchors": ["notadate"] + h["anchors"][1:]}, b),
                     "notadate", id="non-date-anchor"),
        pytest.param(lambda m, h, b: (m, {**h, "anchors": ["20150302"] + h["anchors"][1:]}, b),
                     "'20150302' is not YYYY-MM-DD", id="basic-format-anchor"),
        pytest.param(lambda m, h, b: (m, {**h, "anchors": h["anchors"][::-1]}, b),
                     "sorted", id="unsorted-anchors"),
        pytest.param(lambda m, h, b: (m, {**h, "vocab": ["zzzz"]}, b),
                     "every vocabulary word must be a tracked word", id="untracked-vocab-word"),
    ])
    def test_corrupt_file_is_data_error_naming_it(self, tmp_path, edit, why):
        labels, docs_by_week = weekly_fixture()
        path = tmp_path / "pot.bin"
        build(labels, docs_by_week, {"gain", "fall"}, window_weeks=3).save(path)
        magic, size, rest = path.read_bytes().split(b"\n", 2)
        magic, header, body = edit(magic, json.loads(rest[: int(size)]), rest[int(size):])
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(b"%s\n%d\n%s%s" % (magic, len(blob), blob, body))
        with pytest.raises(DataError, match=f"pot.bin is corrupt: .*{why}"):
            PolarityModelSet.load(path)
