"""Time-varying word polarity walkthrough.

Builds the rolling-window polarity lexicon on a synthetic corpus: the
TF-IDF difference ranking that surfaces polar words, the weekly polarity
models over a trailing quarter, and per-word trajectories that flip sign
when the planted market mood flips.

Run:  python3 demos/02_polarity_lexicon.py
"""

from newstrend.corpus import build_vocabulary, tokenize
from newstrend.polarity import build_model_set, tfidf_difference_ranking
from newstrend.config import PolarityConfig, SynthConfig
from newstrend.synth import generate
from newstrend.tokens import encode_docs
from newstrend.weeks import (
    PriceSeries, attach_news, label_weeks, make_policy, monday_anchors,
    weekly_changes,
)


def main():
    settings = SynthConfig(weeks=80, articles_per_week=30, seed=20, filler_vocab=300)
    records, price_rows, truth = generate(settings)
    records = list(records)
    prices = PriceSeries(entries=price_rows)
    anchors = monday_anchors(prices, prices.first_date, prices.last_date)
    weeks = attach_news(weekly_changes(prices, anchors),
                        ((r.id, r.published.date()) for r in records))
    labels = label_weeks(weeks, make_policy("three_way"))
    # every document as token ids into one shared, sorted word table
    docs = {doc.record_id: doc for doc in encode_docs([(r.id, tokenize(r)) for r in records])}
    docs_by_week = {lab.week.anchor: [docs[rid] for rid in lab.week.news_ids]
                    for lab in labels}

    print("=" * 64)
    print("1. TF-IDF difference ranking (positive vs negative weeks)")
    print("=" * 64)
    pos_docs, neg_docs = [], []
    for lab in labels:
        if lab.extractor_class == "positive":
            pos_docs.extend(docs_by_week[lab.week.anchor])
        elif lab.extractor_class == "negative":
            neg_docs.extend(docs_by_week[lab.week.anchor])
    ranking = tfidf_difference_ranking(pos_docs, neg_docs)
    print("most positive:", ", ".join(w for w, _ in ranking[:8]))
    print("most negative:", ", ".join(w for w, _ in ranking[-8:]))

    print()
    print("=" * 64)
    print("2. vocabulary = the most polar words of the ranking")
    print("=" * 64)
    vocab = build_vocabulary(ranking, 32)
    print(f"{len(vocab)} words, first 12: {', '.join(vocab.words[:12])}")

    print()
    print("=" * 64)
    print("3. weekly polarity models over a rolling 13-week window")
    print("=" * 64)
    model_set = build_model_set(labels, docs_by_week, set(vocab.words), PolarityConfig())
    print(f"{len(model_set.anchors)} weekly models")

    print()
    print("=" * 64)
    print("4. trajectories track the planted mood regime")
    print("=" * 64)
    moods = {truth.anchors[t]: truth.moods[t] for t in range(1, len(truth.moods))}
    print(f"{'week':12s} {'mood':>5s} {'surge':>10s} {'plunge':>10s}")
    plunge = dict(model_set.trajectory("plunge"))
    for anchor, score in model_set.trajectory("surge")[12::6]:
        mood = moods.get(anchor, 0)
        print(f"{anchor}   {mood:+5d} {score:>10.5f} {plunge[anchor]:>10.5f}")
    print("\n('surge' polarity is positive in up regimes; 'plunge' mirrors it.")
    print(" the sign flips a few weeks after a regime change as the rolling")
    print(" window turns over — the lag the extractor's attention can exploit)")


if __name__ == "__main__":
    main()
