//! The FLIPS selector — Algorithm 1 of the paper.
//!
//! Given clusters of parties with similar label distributions (produced
//! inside the TEE — see `flips-core`), each round is filled by visiting
//! clusters **round-robin in order of how often each cluster has been
//! picked**, and within a cluster picking the **least-picked party**, so
//! that:
//!
//! 1. every unique label distribution is represented as equally as
//!    possible in every round (data diversity), and
//! 2. every party inside a cluster gets a fair opportunity to participate
//!    (participant fairness).
//!
//! Straggler handling (lines 27–31, 33–45): parties that fail to return an
//! update are remembered in `H_s` with their clusters in `H_sc`; while any
//! straggler is outstanding, the next round overprovisions
//! `int(strg · Nr)` extra parties drawn from the clusters with the most
//! stragglers, choosing non-straggler members, so the straggling clusters'
//! label distributions stay represented.
//!
//! ## Fidelity note
//!
//! Line 45 of Algorithm 1 updates the straggler-rate estimate as
//! `strg = (strg·Nr + count_strg)/Nr`, which is monotone non-decreasing
//! (it can only grow as rounds accumulate stragglers). We implement the
//! same blend but normalize the contribution of the current round —
//! an exponentially-weighted average `strg ← (1−β)·strg + β·rate(r)` with
//! `β = 0.2` — so the estimate can also recover when stragglers disappear;
//! with persistent stragglers both formulas converge to the true rate.
//!
//! ## Data structures and cost
//!
//! Each cluster keeps Algorithm 1's party heap: a min-heap of its
//! members keyed `(p.picks, p)` — the least-picked member first, ties to
//! the lowest id. A pick pops its
//! party; overprovisioning pops straggler members aside until it reaches
//! an eligible one and pushes them back; every chosen party re-enters its
//! heap under its new pick count when [`select`](ParticipantSelector::select)
//! returns, so between rounds each party sits in its cluster's heap
//! exactly once. The cluster step scans the `k` cluster pick counters,
//! skipping clusters whose heap is empty. A round of `Nr` picks over `N`
//! parties in `k` clusters therefore costs `O(Nr·(k + log(N/k)))`.
//! Checkpoint restore replays `select` once per closed round, so it
//! pays that cost once per round of the job's history.

use crate::types::{validate_request, ParticipantSelector, PartyId, RoundFeedback, SelectionError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Smoothing weight of the straggler-rate EWMA (see the fidelity note).
const STRAGGLER_EWMA_BETA: f64 = 0.2;

/// The FLIPS participant selector (paper Algorithm 1, aggregator side).
#[derive(Debug, Clone)]
pub struct FlipsSelector {
    /// Cluster id → member parties.
    clusters: Vec<Vec<PartyId>>,
    /// Cluster id → min-heap of the members not chosen in the current
    /// round, keyed `(p.picks, p)` (the party heap of Algorithm 1).
    party_heaps: Vec<BinaryHeap<Reverse<(u64, PartyId)>>>,
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
        let party_heaps = clusters
            .iter()
            .map(|members| members.iter().map(|&p| Reverse((0, p))).collect())
            .collect();
        Ok(FlipsSelector {
            clusters,
            party_heaps,
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
    fn next_cluster(&self) -> Option<usize> {
        self.cluster_picks
            .iter()
            .enumerate()
            .filter(|&(c, _)| !self.party_heaps[c].is_empty())
            .min_by_key(|&(c, &picks)| (picks, c))
            .map(|(c, _)| c)
    }

    /// EXTRACT-MIN over a cluster's party heap, skipping stragglers: the
    /// least-picked member not yet chosen this round and not in `H_s`.
    /// Skipped stragglers go back into the heap under their unchanged keys.
    fn pop_non_straggler(&mut self, cluster: usize) -> Option<PartyId> {
        let heap = &mut self.party_heaps[cluster];
        let mut stash = Vec::new();
        let mut found = None;
        while let Some(entry @ Reverse((_, party))) = heap.pop() {
            if !self.straggler_parties.contains(&party) {
                found = Some(party);
                break;
            }
            stash.push(entry);
        }
        heap.extend(stash);
        found
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

        // Lines 22–26: fill the round cluster-by-cluster, fairest first.
        while selected.len() < target {
            let cluster =
                self.next_cluster().expect("target <= num_parties guarantees a selectable party");
            let Reverse((_, party)) =
                self.party_heaps[cluster].pop().expect("next_cluster skips empty heaps");
            self.commit_pick(party);
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
                    .max_by_key(|&(c, &n)| (n, Reverse(c)))
                else {
                    break;
                };
                counts[cluster] -= 1;
                // Line 30: pick a non-straggler member of the straggling
                // cluster. If it has no eligible member left, this slot is
                // skipped — representation cannot be restored from
                // elsewhere without changing the label mix.
                let Some(party) = self.pop_non_straggler(cluster) else {
                    continue;
                };
                self.commit_pick(party);
                selected.push(party);
            }
        }

        // The round's picks re-enter their heaps under their new counts.
        for &p in &selected {
            self.party_heaps[self.party_cluster[p]].push(Reverse((self.party_picks[p], p)));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 clusters × 5 parties: cluster c owns parties 5c..5c+5.
    fn four_clusters() -> FlipsSelector {
        let clusters: Vec<Vec<PartyId>> = (0..4).map(|c| (c * 5..(c + 1) * 5).collect()).collect();
        FlipsSelector::new(clusters).unwrap()
    }

    fn cluster_of(p: PartyId) -> usize {
        p / 5
    }

    /// Between rounds every party sits exactly once in its own cluster's
    /// heap, keyed by its current pick count.
    fn assert_heap_invariant(s: &FlipsSelector) {
        for (c, members) in s.clusters.iter().enumerate() {
            let mut held: Vec<(u64, PartyId)> = s.party_heaps[c].iter().map(|e| e.0).collect();
            let mut expected: Vec<(u64, PartyId)> =
                members.iter().map(|&p| (s.party_picks[p], p)).collect();
            held.sort_unstable();
            expected.sort_unstable();
            assert_eq!(held, expected, "cluster {c} heap out of step with the pick counts");
        }
    }

    /// Clusters `{0..4}`, `{4..8}` and `{8, 9, 10}`. Round 0 picks nine
    /// parties — three per cluster, all of the last one — and reports
    /// `stragglers` absent.
    fn after_round_zero(stragglers: Vec<PartyId>) -> FlipsSelector {
        let clusters = vec![(0..4).collect(), (4..8).collect(), (8..11).collect()];
        let mut s = FlipsSelector::new(clusters).unwrap();
        let selected = s.select(0, 9).unwrap();
        assert_heap_invariant(&s);
        let completed = selected.iter().copied().filter(|p| !stragglers.contains(p)).collect();
        s.report(&RoundFeedback {
            round: 0,
            selected,
            completed,
            stragglers,
            ..Default::default()
        });
        s
    }

    #[test]
    fn round_spreads_across_all_clusters() {
        let mut s = four_clusters();
        // Nr = 8 = 2 per cluster.
        let picks = s.select(0, 8).unwrap();
        let mut per_cluster = [0usize; 4];
        for &p in &picks {
            per_cluster[cluster_of(p)] += 1;
        }
        assert_eq!(per_cluster, [2, 2, 2, 2], "equitable representation");
    }

    #[test]
    fn fewer_parties_than_clusters_rotates_clusters() {
        let mut s = four_clusters();
        // Nr = 2 < 4 clusters: rounds must rotate through clusters via the
        // cluster pick counts.
        let mut cluster_visits = [0usize; 4];
        for round in 0..6 {
            for p in s.select(round, 2).unwrap() {
                cluster_visits[cluster_of(p)] += 1;
            }
        }
        assert_eq!(cluster_visits, [3, 3, 3, 3], "cluster-level fairness");
    }

    #[test]
    fn parties_within_cluster_get_equal_opportunity() {
        let mut s = four_clusters();
        // 5 rounds × 4 picks = one visit per party.
        let mut seen = HashSet::new();
        for round in 0..5 {
            for p in s.select(round, 4).unwrap() {
                assert!(seen.insert(p), "party {p} repeated before full rotation");
            }
        }
        assert_eq!(seen.len(), 20);
        assert!(s.party_pick_counts().iter().all(|&c| c == 1));
    }

    #[test]
    fn no_duplicates_within_a_round() {
        let mut s = four_clusters();
        let picks = s.select(0, 17).unwrap();
        let set: HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), picks.len());
    }

    #[test]
    fn selection_is_deterministic() {
        let mut a = four_clusters();
        let mut b = four_clusters();
        for round in 0..10 {
            assert_eq!(a.select(round, 7).unwrap(), b.select(round, 7).unwrap());
        }
    }

    #[test]
    fn overprovisions_from_straggler_clusters() {
        let mut s = four_clusters();
        let picks = s.select(0, 8).unwrap();
        // Parties of cluster 0 straggle.
        let stragglers: Vec<PartyId> =
            picks.iter().copied().filter(|&p| cluster_of(p) == 0).collect();
        let completed: Vec<PartyId> =
            picks.iter().copied().filter(|&p| cluster_of(p) != 0).collect();
        let fb = RoundFeedback {
            round: 0,
            selected: picks.clone(),
            completed,
            stragglers: stragglers.clone(),
            ..Default::default()
        };
        s.report(&fb);
        assert!(s.straggler_rate() > 0.0);

        let next = s.select(1, 8).unwrap();
        assert!(next.len() > 8, "must overprovision while stragglers outstanding");
        // The extras must come from cluster 0 (the straggler cluster) and
        // must not be the stragglers themselves.
        let extras = &next[8..];
        for &p in extras {
            assert_eq!(cluster_of(p), 0, "extra {p} not from straggler cluster");
            assert!(!stragglers.contains(&p), "extra {p} is itself a straggler");
        }
    }

    #[test]
    fn straggler_recovery_clears_overprovisioning() {
        let mut s = four_clusters();
        let picks = s.select(0, 8).unwrap();
        let fb = RoundFeedback {
            round: 0,
            selected: picks.clone(),
            completed: picks[1..].to_vec(),
            stragglers: vec![picks[0]],
            ..Default::default()
        };
        s.report(&fb);
        // The straggler comes back in the next round.
        let fb2 = RoundFeedback {
            round: 1,
            selected: vec![picks[0]],
            completed: vec![picks[0]],
            stragglers: vec![],
            ..Default::default()
        };
        s.report(&fb2);
        assert!(!s.stragglers_active);
        let next = s.select(2, 8).unwrap();
        assert_eq!(next.len(), 8, "no overprovisioning once H_s is empty");
    }

    #[test]
    fn straggler_rate_recovers_when_stragglers_stop() {
        let mut s = four_clusters();
        for round in 0..5 {
            let picks = s.select(round, 10).unwrap();
            let (str_, comp): (Vec<_>, Vec<_>) = picks.iter().partition(|&&p| p % 2 == 0);
            s.report(&RoundFeedback {
                round,
                selected: picks.clone(),
                completed: comp,
                stragglers: str_,
                ..Default::default()
            });
        }
        let high = s.straggler_rate();
        assert!(high > 0.2);
        for round in 5..30 {
            let picks = s.select(round, 10).unwrap();
            s.report(&RoundFeedback {
                round,
                selected: picks.clone(),
                completed: picks,
                stragglers: vec![],
                ..Default::default()
            });
        }
        assert!(s.straggler_rate() < 0.01, "rate must decay: {}", s.straggler_rate());
    }

    #[test]
    fn rejects_bad_cluster_configurations() {
        assert!(FlipsSelector::new(vec![]).is_err());
        assert!(FlipsSelector::new(vec![vec![0], vec![]]).is_err());
        assert!(FlipsSelector::new(vec![vec![0, 1], vec![1]]).is_err(), "duplicate party");
        assert!(FlipsSelector::new(vec![vec![0, 7]]).is_err(), "party out of range");
    }

    #[test]
    fn rejects_invalid_targets() {
        let mut s = four_clusters();
        assert!(s.select(0, 0).is_err());
        assert!(s.select(0, 21).is_err());
    }

    #[test]
    fn ablation_switch_disables_overprovisioning() {
        let mut s = four_clusters().without_overprovisioning();
        let picks = s.select(0, 8).unwrap();
        s.report(&RoundFeedback {
            round: 0,
            selected: picks.clone(),
            completed: vec![],
            stragglers: picks,
            ..Default::default()
        });
        assert_eq!(s.select(1, 8).unwrap().len(), 8);
    }

    #[test]
    fn skewed_cluster_sizes_still_get_cluster_fairness() {
        // One big cluster (10 parties), two tiny ones (1 each).
        let s = FlipsSelector::new(vec![(0..10).collect(), vec![10], vec![11]]);
        let mut s = s.unwrap();
        let mut tiny_picks = 0usize;
        for round in 0..4 {
            let picks = s.select(round, 3).unwrap();
            tiny_picks += picks.iter().filter(|&&p| p >= 10).count();
        }
        // Clusters are visited equally: 4 rounds × 3 = 12 visits, 4 per
        // cluster ⇒ parties 10 and 11 each picked 4 times.
        assert_eq!(tiny_picks, 8, "tiny clusters must be visited every round");
    }

    #[test]
    fn overprovisioning_sets_straggler_members_aside_and_restores_them() {
        // 8 and 9 straggle (rate 2/9). Round 1's fill takes 8, the fill
        // ignoring H_s; its one extra slot pops straggler 9 before
        // reaching 10, then puts 9 back.
        let mut s = after_round_zero(vec![8, 9]);
        assert_eq!(s.select(1, 5).unwrap(), vec![3, 7, 8, 0, 4, 10]);
        assert_heap_invariant(&s);
        assert_eq!(s.party_heaps[2].peek(), Some(&Reverse((1, 9))));
    }

    #[test]
    fn extra_slot_without_eligible_member_is_skipped() {
        // All of the last cluster straggles: after the fill takes 8, the
        // extra slot finds only stragglers, is skipped, and every popped
        // straggler goes back.
        let mut s = after_round_zero(vec![8, 9, 10]);
        assert_eq!(s.select(1, 5).unwrap(), vec![3, 7, 8, 0, 4]);
        assert_heap_invariant(&s);
    }
}
