"""Weekly Monday calendar walkthrough.

Builds the Monday-to-Monday framework on a synthetic price series: anchors
with holiday substitution, weekly percent changes, class labels under each
binning policy, and the weekday autocorrelation table that motivates the
Monday basis (the Monday series is the least self-predictable, so there is
the most room for news sentiment to matter).

Run:  python3 demos/01_weekly_calendar.py
"""

from newstrend.config import SynthConfig
from newstrend.synth import generate
from newstrend.weeks import (
    PriceSeries, binary_asymmetric_policy, label_weeks, monday_anchors,
    three_way_policy, weekday_autocorrelation, weekly_changes,
)

WEEKDAYS = ("monday", "tuesday", "wednesday", "thursday", "friday")
LAGS = (1, 5, 10, 20, 40)


def main():
    print("=" * 64)
    print("1. a price series (synthetic, 3 years of weekdays)")
    print("=" * 64)
    _, price_rows, _ = generate(SynthConfig(weeks=156, seed=20, filler_vocab=300))
    prices = PriceSeries(entries=price_rows)
    print(f"{len(prices)} daily closes, {prices.first_date} .. {prices.last_date}")

    print()
    print("=" * 64)
    print("2. Monday anchors and weekly percent changes")
    print("=" * 64)
    anchors = monday_anchors(prices, prices.first_date, prices.last_date)
    weeks = weekly_changes(prices, anchors)
    print(f"{len(anchors)} anchors -> {len(weeks)} weeks")
    for week in weeks[:5]:
        print(f"  {week.prev_anchor} -> {week.anchor}: {week.pct_change:+.2f}%")

    print()
    print("=" * 64)
    print("3. labels under the binning policies")
    print("=" * 64)
    for policy in (three_way_policy(), binary_asymmetric_policy()):
        labels = label_weeks(weeks, policy)
        counts = {}
        for lab in labels:
            counts[lab.summarizer_class] = counts.get(lab.summarizer_class, 0) + 1
        print(f"  {policy.name:20s} {counts}")
    labels = label_weeks(weeks, three_way_policy())
    extractor = {}
    for lab in labels:
        extractor[lab.extractor_class] = extractor.get(lab.extractor_class, 0) + 1
    print(f"  extractor (+-2% rule)   {extractor}")

    print()
    print("=" * 64)
    print("4. weekday autocorrelation (lower = less self-predictable)")
    print("=" * 64)
    header = "lag  " + "".join(f"{w:>12}" for w in WEEKDAYS)
    print(header)
    for lag in LAGS:
        row = f"{lag:<5d}"
        for wd in range(5):
            value = weekday_autocorrelation(prices, wd, lag)
            row += f"{value:>12.6f}" if value is not None else f"{'undef':>12}"
        print(row)
    print("\n(on the real index series the Monday column is the minimum at")
    print(" every lag; synthetic prices only illustrate the computation)")


if __name__ == "__main__":
    main()
