//! Per-round selection latency of every policy at paper scale (200
//! parties, Nr = 40), plus FLIPS at roster scale (10,000 parties in 14
//! clusters, Nr = 500), where the per-pick cost shows. A FLIPS pick is
//! a scan over the k cluster pick counters plus one heap pop, so a round
//! costs O(Nr·(k + log(N/k))).

use criterion::{criterion_group, criterion_main, Criterion};
use flips_core::prelude::*;
use flips_core::selection::oort::OortConfig;
use flips_core::selection::tifl::TiflConfig;
use flips_core::selection::{
    FlipsSelector, GradClusSelector, OortSelector, RandomSelector, TiflSelector,
};
use std::hint::black_box;

const N: usize = 200;
const NR: usize = 40;

/// The roster-scale FLIPS case: parties, clusters, parties per round.
const N_ROSTER: usize = 10_000;
const K_ROSTER: usize = 14;
const NR_ROSTER: usize = 500;

fn feedback(picks: &[usize], round: usize) -> RoundFeedback {
    RoundFeedback {
        round,
        selected: picks.to_vec(),
        completed: picks.to_vec(),
        train_loss: picks.iter().map(|&p| (p, 1.0)).collect(),
        duration: picks.iter().map(|&p| (p, 0.5)).collect(),
        global_accuracy: 0.5,
        ..Default::default()
    }
}

fn drive(selector: &mut dyn ParticipantSelector, nr: usize) {
    for round in 0..5 {
        let picks = selector.select(round, nr).unwrap();
        selector.report(&feedback(&picks, round));
        black_box(picks);
    }
}

fn bench_selectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_5_rounds_200_parties");
    group.bench_function("random", |b| b.iter(|| drive(&mut RandomSelector::new(N, 1), NR)));
    group.bench_function("flips", |b| {
        let clusters: Vec<Vec<usize>> =
            (0..10).map(|c| (0..N).filter(|p| p % 10 == c).collect()).collect();
        b.iter(|| drive(&mut FlipsSelector::new(clusters.clone()).unwrap(), NR))
    });
    group.bench_function("oort", |b| {
        b.iter(|| drive(&mut OortSelector::new(vec![200; N], OortConfig::default(), 1), NR))
    });
    group.bench_function("grad_cls", |b| {
        b.iter(|| drive(&mut GradClusSelector::new(N, 32, 1).unwrap(), NR))
    });
    group.bench_function("tifl", |b| {
        let lat: Vec<f64> = (0..N).map(|i| (i % 13) as f64 + 0.1).collect();
        b.iter(|| drive(&mut TiflSelector::new(lat.clone(), TiflConfig::default(), 1).unwrap(), NR))
    });
    group.finish();

    let mut group = c.benchmark_group("select_5_rounds_10k_parties");
    group.bench_function("flips", |b| {
        let clusters: Vec<Vec<usize>> =
            (0..K_ROSTER).map(|c| (0..N_ROSTER).filter(|p| p % K_ROSTER == c).collect()).collect();
        b.iter(|| drive(&mut FlipsSelector::new(clusters.clone()).unwrap(), NR_ROSTER))
    });
    group.finish();
}

criterion_group!(benches, bench_selectors);
criterion_main!(benches);
