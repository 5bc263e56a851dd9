//! Statistical integration tests of the trace generators: the
//! published shape parameters must be realised by the synthetic traces
//! across seeds.

use protean_models::ModelId;
use protean_sim::{RngFactory, SimDuration};
use protean_trace::{TraceConfig, TraceShape};

fn config(shape: TraceShape, secs: f64, strict_fraction: f64, batched: bool) -> TraceConfig {
    TraceConfig {
        shape,
        duration: SimDuration::from_secs(secs),
        strict_model: ModelId::ResNet50,
        strict_fraction,
        be_pool: vec![ModelId::MobileNet, ModelId::ShuffleNetV2, ModelId::ResNet18],
        be_rotation_period: SimDuration::from_secs(20.0),
        batch_arrivals: batched,
    }
}

#[test]
fn wiki_mean_rate_is_stable_across_seeds() {
    for seed in [1, 7, 99, 1234] {
        let t = config(TraceShape::wiki(5000.0), 60.0, 0.5, true).generate(&RngFactory::new(seed));
        let stats = t.stats();
        assert!(
            (stats.mean_rps - 5000.0).abs() < 300.0,
            "seed {seed}: mean {}",
            stats.mean_rps
        );
        // Published flatness: peak:mean ≈ 1.04 at the trace level. At
        // 1 s buckets a *batched* arrival process is much noisier (a
        // bucket holds ~39 Poisson batch epochs of 128 requests, so the
        // max of 60 buckets sits ~40% above the mean); the bound here
        // checks the underlying profile stays flat, not the Poisson
        // granularity.
        assert!(
            stats.peak_to_mean() < 1.6,
            "seed {seed}: ratio {}",
            stats.peak_to_mean()
        );
    }
}

#[test]
fn twitter_burstiness_is_stable_across_seeds() {
    for seed in [1, 7, 99, 1234] {
        let t =
            config(TraceShape::twitter(5000.0), 120.0, 0.5, true).generate(&RngFactory::new(seed));
        let stats = t.stats();
        assert!(
            (1.25..=2.1).contains(&stats.peak_to_mean()),
            "seed {seed}: ratio {}",
            stats.peak_to_mean()
        );
        // Scaled so the peak is ~5000 rps -> mean lands near 3000-3600.
        assert!(
            (2500.0..=4200.0).contains(&stats.mean_rps),
            "seed {seed}: mean {}",
            stats.mean_rps
        );
    }
}

#[test]
fn batched_arrivals_come_in_whole_batches() {
    let batch = ModelId::ResNet50.profile().batch_size as usize;
    let t = config(TraceShape::constant(2000.0), 20.0, 0.5, true).generate(&RngFactory::new(3));
    assert_eq!(t.len() % batch, 0, "partial batch generated");
    // Each batch's members share arrival, model and class.
    let requests: Vec<_> = t.iter().collect();
    for chunk in requests.chunks(batch) {
        let first = chunk[0];
        for r in chunk {
            assert_eq!(r.arrival, first.arrival);
            assert_eq!(r.model, first.model);
            assert_eq!(r.strict, first.strict);
        }
    }
}

#[test]
fn strictness_ratio_holds_for_skewed_mixes() {
    for (frac, seed) in [(0.25, 11), (0.75, 12), (0.5, 13)] {
        let t =
            config(TraceShape::constant(3000.0), 60.0, frac, true).generate(&RngFactory::new(seed));
        let stats = t.stats();
        let measured = stats.strict as f64 / stats.total as f64;
        assert!(
            (measured - frac).abs() < 0.04,
            "frac {frac}: measured {measured}"
        );
    }
}

#[test]
fn request_level_and_batched_rates_agree() {
    let rps = 1000.0;
    let batched = config(TraceShape::constant(rps), 60.0, 0.5, true).generate(&RngFactory::new(5));
    let single = config(TraceShape::constant(rps), 60.0, 0.5, false).generate(&RngFactory::new(5));
    let (b, s) = (batched.stats().mean_rps, single.stats().mean_rps);
    assert!((b - rps).abs() < 150.0, "batched mean {b}");
    assert!((s - rps).abs() < 100.0, "single mean {s}");
}

#[test]
fn be_rotation_only_draws_from_the_pool() {
    let t = config(TraceShape::constant(2000.0), 60.0, 0.5, true).generate(&RngFactory::new(9));
    let pool = [ModelId::MobileNet, ModelId::ShuffleNetV2, ModelId::ResNet18];
    for r in t.iter() {
        if r.strict {
            assert_eq!(r.model, ModelId::ResNet50);
        } else {
            assert!(pool.contains(&r.model), "BE model {:?}", r.model);
        }
    }
}

#[test]
fn language_batches_are_size_four() {
    let t = TraceConfig {
        strict_model: ModelId::Gpt2,
        be_pool: vec![ModelId::Bert],
        ..config(TraceShape::wiki(128.0), 30.0, 0.5, true)
    }
    .generate(&RngFactory::new(21));
    assert_eq!(t.len() % 4, 0);
    let stats = t.stats();
    assert!(
        (stats.mean_rps - 128.0).abs() < 30.0,
        "mean {}",
        stats.mean_rps
    );
}
