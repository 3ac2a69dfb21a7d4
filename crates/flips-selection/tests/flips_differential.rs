//! Differential suite: the heap-based [`FlipsSelector`] against the
//! linear-scan reference kept in `linear_flips/`. Over random cluster
//! shapes (one cluster, all singletons, random labels, one big cluster
//! among singletons), random round sizes up to the population, random
//! straggler feedback and overprovisioning on or off, both selectors
//! must return the same parties in the same order every round and agree
//! on every pick count and on the straggler-rate estimate.

mod linear_flips;

use flips_selection::{FlipsSelector, ParticipantSelector, PartyId, RoundFeedback};
use proptest::prelude::*;

/// SplitMix64 step: the suite's source of per-round randomness.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (next(state) % n as u64) as usize
}

/// Partitions `0..n` into clusters of the given `shape`, with members and
/// cluster ids in a random order.
fn clusters(n: usize, shape: u8, rng: &mut u64) -> Vec<Vec<PartyId>> {
    let labels: Vec<usize> = match shape {
        // k = 1.
        0 => vec![0; n],
        // Every party a singleton cluster.
        1 => (0..n).collect(),
        // Uniform labels over a random k (empty clusters dropped).
        2 => {
            let k = 1 + below(rng, n);
            (0..n).map(|_| below(rng, k)).collect()
        }
        // One big cluster, the rest singletons.
        _ => (0..n).map(|p| if below(rng, 2) == 0 { 0 } else { p + 1 }).collect(),
    };
    let mut clusters = vec![Vec::new(); n + 1];
    for (p, &label) in labels.iter().enumerate() {
        clusters[label].push(p);
    }
    clusters.retain(|c| !c.is_empty());
    for members in &mut clusters {
        shuffle(members, rng);
    }
    shuffle(&mut clusters, rng);
    clusters
}

fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

/// Drives both selectors through `rounds` rounds of the same requests
/// (round sizes up to `max_target`) and feedback, failing on the first
/// divergence.
fn assert_same_trajectory(
    clusters: Vec<Vec<PartyId>>,
    max_target: usize,
    overprovision: bool,
    straggle_pct: u64,
    rounds: usize,
    rng: &mut u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut heap = FlipsSelector::new(clusters.clone()).unwrap();
    let mut linear = linear_flips::FlipsSelector::new(clusters).unwrap();
    if !overprovision {
        heap = heap.without_overprovisioning();
        linear = linear.without_overprovisioning();
    }
    for round in 0..rounds {
        let target = if below(rng, 8) == 0 { max_target } else { 1 + below(rng, max_target) };
        let picks = heap.select(round, target);
        prop_assert_eq!(&picks, &linear.select(round, target), "round {} target {}", round, target);
        prop_assert_eq!(heap.party_pick_counts(), linear.party_pick_counts(), "round {}", round);

        let selected = picks.unwrap();
        let (stragglers, completed): (Vec<PartyId>, Vec<PartyId>) =
            selected.iter().partition(|_| next(rng) % 100 < straggle_pct);
        let feedback =
            RoundFeedback { round, selected, completed, stragglers, ..Default::default() };
        heap.report(&feedback);
        linear.report(&feedback);
        prop_assert_eq!(heap.straggler_rate().to_bits(), linear.straggler_rate().to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn heap_selector_matches_linear_scan(
        n in 1usize..64,
        shape in 0u8..4,
        overprovision in 0u8..2,
        straggle_pct in 0u64..=100,
        rounds in 1usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = seed;
        let clusters = clusters(n, shape, &mut rng);
        assert_same_trajectory(clusters, n, overprovision == 1, straggle_pct, rounds, &mut rng)?;
    }
}

/// The roster benchmark's shape, smaller: 2,000 parties in 14 clusters,
/// rounds of up to 300, long enough for pick counts to spread and
/// stragglers to recur.
#[test]
fn heap_selector_matches_linear_scan_at_scale() {
    let mut rng = 0x5CA1E;
    let mut clusters = vec![Vec::new(); 14];
    for p in 0..2_000 {
        clusters[below(&mut rng, 14)].push(p);
    }
    assert!(clusters.iter().all(|c| !c.is_empty()));
    assert_same_trajectory(clusters, 300, true, 20, 40, &mut rng).unwrap();
}
