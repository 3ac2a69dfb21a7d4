//! Reference oracle: the FLIPS selector as it was before its cluster
//! and party heaps became real heaps — every EXTRACT-MIN a linear scan
//! over the cluster's members with per-round `chosen` / exclusion sets.
//! Kept verbatim (only the imports and the crate-private
//! `validate_request` are restated here) so the differential suite can
//! prove the heap-based selector picks exactly the same parties.

#![allow(dead_code)]

use flips_selection::{ParticipantSelector, PartyId, RoundFeedback, SelectionError};
use std::collections::HashSet;

/// Validates a `select` request against the population size.
fn validate_request(target: usize, num_parties: usize) -> Result<(), SelectionError> {
    if target == 0 {
        return Err(SelectionError::InvalidRequest("target of zero parties".into()));
    }
    if target > num_parties {
        return Err(SelectionError::InvalidRequest(format!(
            "target {target} exceeds population {num_parties}"
        )));
    }
    Ok(())
}

/// Smoothing weight of the straggler-rate EWMA (see the fidelity note).
const STRAGGLER_EWMA_BETA: f64 = 0.2;

/// The FLIPS participant selector (paper Algorithm 1, aggregator side).
#[derive(Debug, Clone)]
pub struct FlipsSelector {
    /// Cluster id → member parties.
    clusters: Vec<Vec<PartyId>>,
    /// Party → cluster id.
    party_cluster: Vec<usize>,
    /// `p.picks` — how often each party has been selected.
    party_picks: Vec<u64>,
    /// `c.picks` — how often each cluster has been visited.
    cluster_picks: Vec<u64>,
    /// `H_s` — parties currently known to be straggling.
    straggler_parties: HashSet<PartyId>,
    /// `H_sc` — outstanding straggler count per cluster (the max-heap).
    straggler_cluster_counts: Vec<usize>,
    /// `strg` — smoothed straggler-rate estimate.
    straggler_rate: f64,
    /// `Stragglers` flag — any straggler outstanding.
    stragglers_active: bool,
    /// Whether overprovisioning is enabled (disable for the ablation).
    overprovision: bool,
    num_parties: usize,
}

impl FlipsSelector {
    /// Creates a selector from a cluster assignment.
    ///
    /// `clusters[c]` lists the parties of cluster `c`; every party
    /// `0..num_parties` must appear in exactly one cluster.
    ///
    /// # Errors
    ///
    /// Returns [`SelectionError::InvalidConfiguration`] if the clusters do
    /// not partition `0..num_parties` or any cluster is empty.
    pub fn new(clusters: Vec<Vec<PartyId>>) -> Result<Self, SelectionError> {
        if clusters.is_empty() {
            return Err(SelectionError::InvalidConfiguration("no clusters".into()));
        }
        if clusters.iter().any(Vec::is_empty) {
            return Err(SelectionError::InvalidConfiguration("empty cluster".into()));
        }
        let num_parties: usize = clusters.iter().map(Vec::len).sum();
        let mut party_cluster = vec![usize::MAX; num_parties];
        for (c, members) in clusters.iter().enumerate() {
            for &p in members {
                if p >= num_parties {
                    return Err(SelectionError::InvalidConfiguration(format!(
                        "party {p} out of range for {num_parties} parties"
                    )));
                }
                if party_cluster[p] != usize::MAX {
                    return Err(SelectionError::InvalidConfiguration(format!(
                        "party {p} appears in multiple clusters"
                    )));
                }
                party_cluster[p] = c;
            }
        }
        let num_clusters = clusters.len();
        Ok(FlipsSelector {
            clusters,
            party_cluster,
            party_picks: vec![0; num_parties],
            cluster_picks: vec![0; num_clusters],
            straggler_parties: HashSet::new(),
            straggler_cluster_counts: vec![0; num_clusters],
            straggler_rate: 0.0,
            stragglers_active: false,
            overprovision: true,
            num_parties,
        })
    }

    /// Disables straggler overprovisioning (ablation switch).
    #[must_use]
    pub fn without_overprovisioning(mut self) -> Self {
        self.overprovision = false;
        self
    }

    /// The clusters driving this selector.
    pub fn clusters(&self) -> &[Vec<PartyId>] {
        &self.clusters
    }

    /// The current smoothed straggler-rate estimate (`strg`).
    pub fn straggler_rate(&self) -> f64 {
        self.straggler_rate
    }

    /// How often each party has been selected so far.
    pub fn party_pick_counts(&self) -> &[u64] {
        &self.party_picks
    }

    /// EXTRACT-MIN over the cluster heap: the least-picked cluster that
    /// still has a selectable member (ties → lowest id, matching a stable
    /// binary heap seeded in id order).
    fn next_cluster(&self, chosen: &HashSet<PartyId>, exclude: &HashSet<PartyId>) -> Option<usize> {
        self.cluster_picks
            .iter()
            .enumerate()
            .filter(|&(c, _)| {
                self.clusters[c].iter().any(|p| !chosen.contains(p) && !exclude.contains(p))
            })
            .min_by_key(|&(c, &picks)| (picks, c))
            .map(|(c, _)| c)
    }

    /// EXTRACT-MIN over a cluster's party heap: the least-picked member
    /// not yet chosen and not excluded.
    fn next_party(
        &self,
        cluster: usize,
        chosen: &HashSet<PartyId>,
        exclude: &HashSet<PartyId>,
    ) -> Option<PartyId> {
        self.clusters[cluster]
            .iter()
            .copied()
            .filter(|p| !chosen.contains(p) && !exclude.contains(p))
            .min_by_key(|&p| (self.party_picks[p], p))
    }

    fn commit_pick(&mut self, party: PartyId) {
        self.party_picks[party] += 1;
        self.cluster_picks[self.party_cluster[party]] += 1;
    }
}

impl ParticipantSelector for FlipsSelector {
    fn name(&self) -> &'static str {
        "flips"
    }

    fn select(&mut self, _round: usize, target: usize) -> Result<Vec<PartyId>, SelectionError> {
        validate_request(target, self.num_parties)?;
        let mut selected = Vec::with_capacity(target);
        let mut chosen: HashSet<PartyId> = HashSet::with_capacity(target * 2);
        let no_exclusion = HashSet::new();

        // Lines 22–26: fill the round cluster-by-cluster, fairest first.
        while selected.len() < target {
            let cluster = self
                .next_cluster(&chosen, &no_exclusion)
                .expect("target <= num_parties guarantees a selectable party");
            let party = self
                .next_party(cluster, &chosen, &no_exclusion)
                .expect("next_cluster only returns clusters with candidates");
            self.commit_pick(party);
            chosen.insert(party);
            selected.push(party);
        }

        // Lines 27–31: overprovision from the clusters with the most
        // outstanding stragglers, skipping straggler parties themselves.
        if self.overprovision && self.stragglers_active {
            let extra = (self.straggler_rate * target as f64) as usize;
            let mut counts = self.straggler_cluster_counts.clone();
            for _ in 0..extra {
                // EXTRACT-MAX over H_sc.
                let Some((cluster, _)) = counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .max_by_key(|&(c, &n)| (n, std::cmp::Reverse(c)))
                else {
                    break;
                };
                counts[cluster] -= 1;
                // Line 30: pick a non-straggler member of the straggling
                // cluster. If it has no eligible member left, this slot is
                // skipped — representation cannot be restored from
                // elsewhere without changing the label mix.
                let Some(party) = self.next_party(cluster, &chosen, &self.straggler_parties) else {
                    continue;
                };
                self.commit_pick(party);
                chosen.insert(party);
                selected.push(party);
            }
        }

        Ok(selected)
    }

    fn report(&mut self, feedback: &RoundFeedback) {
        // Lines 33–42: update H_s / H_sc from arrivals and absences.
        for &p in &feedback.stragglers {
            if self.straggler_parties.insert(p) {
                self.straggler_cluster_counts[self.party_cluster[p]] += 1;
            }
        }
        for &p in &feedback.completed {
            if self.straggler_parties.remove(&p) {
                let c = self.party_cluster[p];
                self.straggler_cluster_counts[c] =
                    self.straggler_cluster_counts[c].saturating_sub(1);
            }
        }
        self.stragglers_active = !self.straggler_parties.is_empty();

        // Line 45 (stabilized — see module docs): update strg.
        if !feedback.selected.is_empty() {
            let rate = feedback.stragglers.len() as f64 / feedback.selected.len() as f64;
            // First observation adopts the observed rate directly (as the
            // paper's formula does from strg = 0); later rounds blend.
            self.straggler_rate = if self.straggler_rate == 0.0 {
                rate
            } else {
                (1.0 - STRAGGLER_EWMA_BETA) * self.straggler_rate + STRAGGLER_EWMA_BETA * rate
            };
        }
    }

    fn num_parties(&self) -> usize {
        self.num_parties
    }
}
