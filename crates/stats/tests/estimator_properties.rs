//! Randomized tests pitting the online estimators against naive reference
//! implementations. (Seeded-RNG loops stand in for proptest, which is
//! unavailable offline.)

use qres_des::{SimTime, StreamRng};
use qres_stats::{RatioCounter, TimeWeighted, Welford};

/// Welford matches the two-pass mean/variance to floating tolerance.
#[test]
fn welford_matches_two_pass() {
    let mut rng = StreamRng::seed_from_u64(0x57A7_0001);
    for _ in 0..300 {
        let n = rng.gen_range(2usize..200);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1e3, 1e3)).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((w.mean().unwrap() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((w.variance().unwrap() - var).abs() < 1e-5 * (1.0 + var.abs()));
        assert_eq!(
            w.min().unwrap(),
            xs.iter().cloned().fold(f64::INFINITY, f64::min)
        );
        assert_eq!(
            w.max().unwrap(),
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    }
}

/// Merging any split of the samples equals processing them whole.
#[test]
fn welford_merge_associative() {
    let mut rng = StreamRng::seed_from_u64(0x57A7_0002);
    for _ in 0..300 {
        let n = rng.gen_range(2usize..100);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-100.0, 100.0)).collect();
        let split = rng.gen_range(0usize..100) % xs.len();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.add(x);
        }
        for &x in &xs[split..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
    }
}

/// TimeWeighted equals the piecewise integral computed directly.
#[test]
fn time_weighted_matches_integral() {
    let mut rng = StreamRng::seed_from_u64(0x57A7_0003);
    for _ in 0..300 {
        let n = rng.gen_range(1usize..50);
        let steps: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range_f64(0.01, 10.0),
                    rng.gen_range_f64(-50.0, 50.0),
                )
            })
            .collect();
        let initial = rng.gen_range_f64(-50.0, 50.0);
        let tail = rng.gen_range_f64(0.01, 10.0);
        let mut tw = TimeWeighted::new(SimTime::ZERO, initial);
        let mut t = 0.0;
        let mut integral = 0.0;
        let mut current = initial;
        for &(dt, v) in &steps {
            integral += current * dt;
            t += dt;
            tw.update(SimTime::from_secs(t), v);
            current = v;
        }
        integral += current * tail;
        t += tail;
        let expected = integral / t;
        let got = tw.mean(SimTime::from_secs(t)).unwrap();
        assert!(
            (got - expected).abs() < 1e-9 * (1.0 + expected.abs()),
            "got {got}, expected {expected}"
        );
    }
}

/// A ratio counter's ratio is always hits/trials and merging adds.
#[test]
fn ratio_counter_consistency() {
    let mut rng = StreamRng::seed_from_u64(0x57A7_0004);
    for _ in 0..300 {
        let n = rng.gen_range(1usize..300);
        let hits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let mut c = RatioCounter::new();
        for &h in &hits {
            c.record(h);
        }
        let expected = hits.iter().filter(|&&h| h).count() as f64 / hits.len() as f64;
        assert_eq!(c.ratio().unwrap(), expected);
        let mut doubled = c;
        doubled.merge(&c);
        assert_eq!(doubled.ratio().unwrap(), expected);
        assert_eq!(doubled.trials(), 2 * c.trials());
    }
}
