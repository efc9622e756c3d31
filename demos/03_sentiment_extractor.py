"""Sentiment extractor walkthrough.

Trains the per-article classifier on a planted-signal corpus: lag attention
over the polarity matrix, the masked multitask worthiness head, the
finite-difference gradient check, and scoring of unseen articles.

Run:  python3 demos/03_sentiment_extractor.py
"""

from newstrend.config import ExtractorConfig, PolarityConfig, SynthConfig
from newstrend.corpus import build_vocabulary, tokenize
from newstrend.extractor import (
    TrainingExample, gradient_check, sentiment_score, train_extractor,
)
from newstrend.polarity import build_model_set, tfidf_difference_ranking
from newstrend.synth import generate
from newstrend.tokens import encode_docs
from newstrend.weeks import (
    PriceSeries, attach_news, extractor_split, label_weeks, make_policy, monday_anchors,
    weekly_changes,
)


def main():
    settings = SynthConfig(weeks=80, articles_per_week=30, seed=20, filler_vocab=300)
    records, price_rows, _ = generate(settings)
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
    worthiness = {r.id: r.worthiness for r in records}

    print("=" * 64)
    print("1. training examples from the big-move weeks")
    print("=" * 64)
    config = ExtractorConfig(dim=32, emb_dim=32, hidden=64, epochs=8, seed=0)
    n_lags = 4
    # the big-move weeks with news and 4 weeks of polarity history, some
    # held out whole for dev; the vocabulary is ranked on the rest alone
    selected, train_weeks, dev_weeks = extractor_split(labels, config, n_lags)
    big = [lab for lab in labels if lab.week.anchor in selected]
    train = [lab for lab in big if lab.week.anchor in train_weeks]
    pos_docs = [d for lab in train if lab.extractor_class == "positive"
                for d in docs_by_week[lab.week.anchor]]
    neg_docs = [d for lab in train if lab.extractor_class == "negative"
                for d in docs_by_week[lab.week.anchor]]
    ranking = tfidf_difference_ranking(pos_docs, neg_docs)
    vocab = build_vocabulary(ranking, 32)
    model_set = build_model_set(labels, docs_by_week, set(vocab.words), PolarityConfig())
    examples = []
    for lab in big:
        matrix = model_set.matrix(vocab, lab.week.anchor, n_lags)
        sentiment = 1 if lab.extractor_class == "positive" else 0
        for rid in lab.week.news_ids:
            examples.append(TrainingExample(
                doc=docs[rid], matrix=matrix, week=lab.week.anchor,
                sentiment=sentiment, worthiness=worthiness[rid],
            ))
    n_labeled = sum(1 for e in examples if e.worthiness is not None)
    print(f"{len(examples)} examples from {len(big)} weeks, {len(train_weeks)} train and "
          f"{len(dev_weeks)} dev ({n_labeled} carry a worthiness label)")

    print()
    print("=" * 64)
    print("2. training (Adam, whole-week dev holdout, masked multitask loss)")
    print("=" * 64)
    trained = train_extractor(examples, config, vocab, dev_weeks)
    for row in trained.history:
        worth = "-" if row["dev_acc_worth"] is None else f"{row['dev_acc_worth']:.3f}"
        print(f"  epoch {row['epoch']:2d}  loss {row['train_loss']:.4f}  "
              f"dev senti {row['dev_acc_senti']:.3f}  dev worth {worth}")

    print()
    print("=" * 64)
    print("3. gradient check against central finite differences")
    print("=" * 64)
    probe = examples[0]
    err = gradient_check(trained.model, probe)
    print(f"max relative error over every parameter block: {err:.2e}")
    corrupted = gradient_check(trained.model, probe, corrupt_block="att_w")
    print(f"same check with a deliberately corrupted attention gradient: {corrupted:.2e}")

    print()
    print("=" * 64)
    print("4. scoring unseen articles")
    print("=" * 64)
    used = set(trained.train_weeks) | set(trained.dev_weeks)
    unseen = [lab for lab in labels[n_lags - 1:]
              if lab.week.anchor not in used and lab.week.news_ids][:6]
    for lab in unseen:
        matrix = model_set.matrix(vocab, lab.week.anchor, n_lags)
        rid = sorted(lab.week.news_ids)[0]
        score = sentiment_score(trained.model, docs[rid], matrix)
        print(f"  week {lab.week.anchor} ({lab.week.pct_change:+5.2f}%)  "
              f"first article score {score:.3f}")
    print("\nscores near 1 read as bullish, near 0 as bearish; the weekly")
    print("summarizer averages these over a sampled week of news")


if __name__ == "__main__":
    main()
