//! Arithmetic the reported numbers rest on: span self time, the tail
//! percentile choice, quartile spread, and seeded generation.

use hqbench::gen::{self, Rng};
use hqbench::spans::{self_times, Span};
use hqbench::stats::{highest_supported_percentile, median, median_rate, quartile_spread, tail};

fn span(span_id: u64, parent_id: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        trace_id: 1,
        span_id,
        parent_id,
        layer: "l",
        name: "n",
        start_ns,
        end_ns,
        rows: 0,
        bytes: 0,
    }
}

#[test]
fn self_time_subtracts_nested_children_once() {
    // root 0..100; child A 10..40 with grandchild 20..30; child B 50..70.
    let spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 2, 20, 30),
        span(4, 1, 50, 70),
    ];
    let selfs = self_times(&spans);
    assert_eq!(
        selfs[&1],
        100 - 30 - 20,
        "only direct children count against the root"
    );
    assert_eq!(selfs[&2], 30 - 10);
    assert_eq!(selfs[&3], 10);
    assert_eq!(selfs[&4], 20);
}

#[test]
fn self_time_counts_overlapping_children_once_and_clips_them() {
    // Children 10..60 and 40..80 overlap on 40..60; a third runs past
    // the parent's end and a fourth lies wholly outside it.
    let spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 60),
        span(3, 1, 40, 80),
        span(4, 1, 90, 150),
        span(5, 1, 200, 300),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 100 - (80 - 10) - (100 - 90));
}

#[test]
fn span_with_a_missing_parent_is_its_own_root() {
    let spans = [span(7, 99, 5, 25), span(8, 7, 10, 15)];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&7], 20 - 5);
    assert_eq!(selfs[&8], 5);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(highest_supported_percentile(39), None);
    assert_eq!(highest_supported_percentile(40), Some(75.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(199), Some(90.0));
    assert_eq!(highest_supported_percentile(200), Some(95.0));
    assert_eq!(highest_supported_percentile(1000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    let values: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(tail(&values), (95.0, 190.0));
    assert_eq!(tail(&values[..10]), (0.0, 0.0));
}

#[test]
fn median_takes_the_midpoint_of_an_even_sample() {
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn median_rate_is_the_steady_rate_whatever_one_stall_took() {
    // 100 completions a second for 10 s, frozen for 4 s in the middle.
    let done: Vec<f64> = (1..=1000)
        .map(|i| i as f64 / 100.0 + if i > 500 { 4.0 } else { 0.0 })
        .collect();
    let rate = median_rate(&done, 50, 14.0);
    assert!((rate - 100.0).abs() < 1e-6, "{rate}");
    assert!(
        done.len() as f64 / 14.0 < 72.0,
        "the plain count loses the stall"
    );
    // Too few completions for two blocks: the count over the window.
    assert_eq!(median_rate(&done[..60], 50, 3.0), 20.0);
}

#[test]
fn quartile_spread_matches_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
}

fn texts(seed: u64) -> Vec<String> {
    let trades = &gen::taq_tables(4000, seed)[0].1;
    let mut out: Vec<String> = gen::taq_pool(seed, trades, gen::TAQ_POOL, false)
        .into_iter()
        .map(|s| s.text)
        .collect();
    let thresholds = gen::wide_thresholds(&gen::wide_adhoc_tables(20, seed));
    let mut rng = Rng::new(seed);
    for k in 0..50 {
        let template = gen::wide_template(
            gen::Class::ALL[rng.below(4)],
            rng.below(gen::WIDE_AGG_TEMPLATES),
        );
        out.push(gen::wide_text(
            template,
            thresholds[template] + k as f64 * gen::WIDE_NUDGE,
        ));
    }
    out
}

fn table_bytes(seed: u64) -> Vec<u8> {
    let mut tables = gen::taq_tables(4000, seed);
    tables.extend(gen::wide_adhoc_tables(20, seed));
    tables.push(("ticks".into(), gen::tick_table(3000, seed)));
    let mut bytes = Vec::new();
    for (name, t) in tables {
        bytes.extend(name.as_bytes());
        let msg = qipc::Message::response(qlang::Value::Table(Box::new(t)));
        bytes.extend(qipc::write_message(&msg).expect("tables encode"));
    }
    bytes
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    assert_eq!(
        table_bytes(7),
        table_bytes(7),
        "tables must be a function of the seed"
    );
    assert_ne!(table_bytes(7), table_bytes(8));
    assert_eq!(
        texts(7),
        texts(7),
        "statement texts must be a function of the seed"
    );
    assert_ne!(texts(7), texts(8));
}

#[test]
fn ad_hoc_literals_never_repeat() {
    let thresholds = gen::wide_thresholds(&gen::wide_adhoc_tables(20, 3));
    let mut rng = Rng::new(3);
    let mut seen = std::collections::HashSet::new();
    for k in 0..2000u64 {
        let template = gen::wide_template(
            gen::Class::ALL[rng.below(4)],
            rng.below(gen::WIDE_AGG_TEMPLATES),
        );
        let t = thresholds[template] + (1 + k) as f64 * gen::WIDE_NUDGE;
        assert!(
            seen.insert(gen::wide_text(template, t)),
            "issue {k} repeated a text"
        );
    }
}

#[test]
fn a_deck_deals_its_shares_exactly_every_pass() {
    let weights = [3, 4, 2, 1];
    let (mut a, mut b) = (gen::Deck::weighted(&weights), gen::Deck::weighted(&weights));
    let (mut rng_a, mut rng_b) = (Rng::new(5), Rng::new(6));
    let mut orders = (Vec::new(), Vec::new());
    for _pass in 0..20 {
        let mut seen = [0usize; 4];
        for _ in 0..10 {
            let card = a.deal(&mut rng_a);
            seen[card] += 1;
            orders.0.push(card);
            orders.1.push(b.deal(&mut rng_b));
        }
        assert_eq!(seen, weights, "a pass deals every card its weight's times");
    }
    assert_ne!(orders.0, orders.1, "the seed decides the order");
}

#[test]
fn pool_holds_each_class_in_equal_thirds() {
    let trades = &gen::taq_tables(4000, 1)[0].1;
    let pool = gen::taq_pool(1, trades, gen::TAQ_POOL, false);
    assert_eq!(pool.len(), gen::TAQ_POOL.iter().sum::<usize>());
    for class in gen::Class::ALL {
        let n = pool.iter().filter(|s| s.class == class).count();
        assert_eq!(n, gen::TAQ_POOL[class.index()]);
        assert_eq!(
            n % 3,
            0,
            "three variants in equal number keep a class median inside one variant"
        );
    }
}
