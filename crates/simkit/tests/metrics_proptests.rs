//! Property-based invariants of the windowed metrics registry.
//!
//! The health plane leans on two structural facts: a range query is a
//! pure merge of per-window aggregates (so any subrange, merged in any
//! order, gives one answer), and feeding identical observations always
//! yields byte-identical exports. Both are pinned here against naive
//! reference models.

use proptest::prelude::*;
use simkit::metrics::{WindowAgg, WindowedRegistry};
use simkit::{Duration, SimTime};

fn agg_of(values: &[u64]) -> WindowAgg {
    let mut a = WindowAgg::histogram();
    for &v in values {
        a.record(v);
    }
    a
}

proptest! {
    /// Merging window aggregates is commutative and associative: any
    /// grouping and order of the same observations produces the same
    /// aggregate as recording them all into one window.
    #[test]
    fn window_merge_is_order_insensitive(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..40),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..40),
        c in proptest::collection::vec(0u64..1_000_000_000, 0..40),
    ) {
        let (aa, ab, ac) = (agg_of(&a), agg_of(&b), agg_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = aa.clone();
        left.merge(&ab);
        left.merge(&ac);
        // c ⊕ (b ⊕ a)
        let mut right = ac.clone();
        let mut ba = ab.clone();
        ba.merge(&aa);
        right.merge(&ba);
        prop_assert_eq!(&left, &right, "merge grouping changed the aggregate");
        // both equal one flat recording of the concatenation
        let mut flat: Vec<u64> = a.clone();
        flat.extend(&b);
        flat.extend(&c);
        prop_assert_eq!(&left, &agg_of(&flat), "merge disagrees with direct recording");
        // quantiles stay inside the observed envelope and monotone in q
        let mut prev = 0.0f64;
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let est = left.quantile(q);
            prop_assert!(est >= prev - 1e-9, "quantile not monotone in q");
            prop_assert!(est <= left.max() as f64, "quantile above observed max");
            prev = est;
        }
    }

    /// A windowed range query equals the naive reference model: filter
    /// the raw observations to the windows overlapping the lookback and
    /// aggregate them directly.
    #[test]
    fn windowed_range_matches_naive_reference(
        mut obs in proptest::collection::vec((0u64..60, 0u64..100_000), 1..120),
        now_s in 0u64..70,
        lookback_s in 1u64..70,
    ) {
        // the live feed is monotone in sim time; the ring (64 slots of
        // 1 s here) is sized so nothing is evicted inside the test span
        obs.sort();
        let mut reg = WindowedRegistry::new(Duration::from_secs(1), 64);
        let id = reg.histogram("lat");
        for &(t, v) in &obs {
            reg.record(id, SimTime::from_secs(t), v);
        }
        let now = SimTime::from_secs(now_s);
        let got = reg.range(id, now, Duration::from_secs(lookback_s));
        // naive model over whole windows (epoch granularity, like range())
        let start_epoch = now_s.saturating_sub(lookback_s);
        let picked: Vec<u64> = obs
            .iter()
            .filter(|(t, _)| *t >= start_epoch && *t <= now_s)
            .map(|&(_, v)| v)
            .collect();
        prop_assert_eq!(got.count(), picked.len() as u64, "range count drifted");
        prop_assert_eq!(got.sum(), picked.iter().sum::<u64>(), "range sum drifted");
        prop_assert_eq!(got.max(), picked.iter().copied().max().unwrap_or(0), "range max drifted");
        let series = reg.series("lat").expect("series exists");
        prop_assert_eq!(series.lifetime_count(), obs.len() as u64);
    }

    /// Identical observations produce byte-identical exports — the text
    /// exposition and the time-series CSV are deterministic functions of
    /// the recorded data, independent of registry construction order.
    #[test]
    fn exports_are_deterministic(
        obs in proptest::collection::vec((0u64..120, 1u64..1_000_000), 1..100),
        reversed in any::<bool>(),
    ) {
        let build = |flip: bool| {
            let mut reg = WindowedRegistry::new(Duration::from_secs(5), 32);
            // declaration order of unrelated series must not leak into
            // the exports
            let (h, c) = if flip {
                (reg.histogram("lat_us"), reg.counter("errs"))
            } else {
                let c = reg.counter("errs");
                (reg.histogram("lat_us"), c)
            };
            let mut sorted = obs.clone();
            sorted.sort();
            for &(t, v) in &sorted {
                let at = SimTime::from_secs(t);
                reg.record(h, at, v);
                if v % 7 == 0 {
                    reg.record(c, at, 1);
                }
            }
            let now = SimTime::from_secs(130);
            (reg.prometheus_text(now), reg.timeseries_csv())
        };
        let (prom_a, csv_a) = build(false);
        let (prom_b, csv_b) = build(reversed);
        prop_assert_eq!(prom_a.clone(), prom_b, "exposition text is not deterministic");
        prop_assert_eq!(csv_a.clone(), csv_b, "time-series CSV is not deterministic");
        let (families, samples) = simkit::validate_prometheus_text(&prom_a)
            .expect("generated exposition must satisfy the strict parser");
        prop_assert!(families >= 2 && samples >= families);
    }

    /// Label values are outside input (a tenant label is a request
    /// principal): whatever they contain — quotes, backslashes, newlines,
    /// the exposition's own punctuation — the labelled snapshot satisfies
    /// the strict parser, with as many samples as the unlabelled one.
    #[test]
    fn hostile_label_values_always_validate(
        value in proptest::collection::vec(
            prop_oneof![
                Just('"'), Just('\\'), Just('\n'), Just('\r'), Just(' '), Just('{'),
                Just('}'), Just(','), Just('='), Just('n'), any::<char>(),
            ],
            0..12,
        ),
    ) {
        let value: String = value.into_iter().collect();
        let mut reg = WindowedRegistry::new(Duration::from_secs(5), 8);
        let lat = reg.histogram("tenant.lat_us");
        let reqs = reg.counter("tenant.requests");
        reg.record(lat, SimTime::from_secs(1), 250);
        reg.record(reqs, SimTime::from_secs(1), 1);
        let now = SimTime::from_secs(10);
        // twice, so a hostile value is also followed by `,key="…"`
        let text = reg.prometheus_text_multi_labeled(now, |_| {
            vec![("tenant".to_owned(), value.clone()), ("site".to_owned(), value.clone())]
        });
        prop_assert_eq!(
            simkit::validate_prometheus_text(&text),
            simkit::validate_prometheus_text(&reg.prometheus_text(now)),
            "label {:?} broke the exposition:\n{}", value, text
        );
    }
}
