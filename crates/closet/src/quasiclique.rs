//! Phase II, Tasks 7–8: incremental γ-quasi-clique enumeration
//! (§4.3.2, §4.4.2).
//!
//! A cluster is a `⟨key, value⟩` pair whose key is its vertex set and whose
//! value is its edge set; a set `U` is a γ-quasi-clique when
//! `|E_U| ≥ γ·C(|U|,2)`. Starting from 2-cliques (one per new edge) plus
//! the clusters carried over from the previous threshold, each round maps
//! every cluster to each of its vertices (Task 7's mapper), reducers merge
//! cluster pairs sharing that vertex whenever the merged density still
//! meets γ (Algorithm 4, lines 10–15), and Task 8 deduplicates clusters
//! sharing the same vertex set by taking the union of their edge sets.
//! Rounds repeat until no merge happens. Clusters may overlap — the model
//! explicitly permits "a read to concurrently occur in multiple clusters"
//! (§4.1); after each round, clusters strictly contained in another are
//! pruned as non-maximal.
//!
//! What travels through the job is a *handle*, not a cluster: bodies live
//! in one [`ClusterStore`] that the reducers read as side data, the mapper
//! emits `(vertex, handle)`, and a reducer answers `Keep(handle)` or
//! `Merged(body)`. A round reduces only the vertex groups that hold a
//! *dirty* cluster — one whose body did not exist in the previous round's
//! state. That is exact, not a heuristic: the members of an all-clean group
//! came through the previous round's pass over that group unmerged, so
//! every pair among them already failed the density test with the very
//! bodies they still have, and taking members away from a merge-free group
//! cannot create a merge; the group would re-emit each member unchanged,
//! which is what skipping it records. Inside a group that is reduced, the
//! same argument spares the trial merge of two clean clusters.

use mapreduce_lite::{map_reduce_simple, JobConfig, JobError, JobStats};
use ngs_core::hash::{FxHashMap, FxHashSet};
use std::cmp::Ordering;

/// Rounds after which a level stops whether or not it is stable; reported
/// through [`EnumerationResult::converged`].
const MAX_ROUNDS: u32 = 30;

/// A quasi-clique: sorted vertex list plus its recorded edge set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Sorted, deduplicated read indices.
    pub vertices: Vec<u32>,
    /// Sorted, deduplicated edges (a < b).
    pub edges: Vec<(u32, u32)>,
}

impl Cluster {
    /// A 2-clique from a single edge.
    pub fn from_edge(a: u32, b: u32) -> Cluster {
        let (a, b) = (a.min(b), a.max(b));
        Cluster { vertices: vec![a, b], edges: vec![(a, b)] }
    }

    /// Number of vertices.
    pub fn order(&self) -> usize {
        self.vertices.len()
    }

    /// Edge density relative to a complete graph on the vertex set.
    pub fn density(&self) -> f64 {
        density_of(self.vertices.len(), self.edges.len())
    }

    /// Merge two clusters (vertex union, edge union).
    pub fn merged(&self, other: &Cluster) -> Cluster {
        Cluster {
            vertices: sorted_union(&self.vertices, &other.vertices),
            edges: sorted_union(&self.edges, &other.edges),
        }
    }

    /// True when every vertex of `self` appears in `other`.
    pub fn is_subset_of(&self, other: &Cluster) -> bool {
        if self.vertices.len() > other.vertices.len() {
            return false;
        }
        let mut it = other.vertices.iter();
        'outer: for v in &self.vertices {
            for w in it.by_ref() {
                match w.cmp(v) {
                    Ordering::Equal => continue 'outer,
                    Ordering::Greater => return false,
                    Ordering::Less => {}
                }
            }
            return false;
        }
        true
    }
}

/// `edges / C(vertices, 2)`; 1 for fewer than two vertices.
fn density_of(vertices: usize, edges: usize) -> f64 {
    if vertices < 2 {
        return 1.0;
    }
    edges as f64 / (vertices * (vertices - 1) / 2) as f64
}

/// The one order clusters are ever ranked by: larger first, ties by vertex
/// list ascending. Strict on distinct vertex sets.
fn total_order(a: &Cluster, b: &Cluster) -> Ordering {
    b.order().cmp(&a.order()).then_with(|| a.vertices.cmp(&b.vertices))
}

pub(crate) fn sorted_union<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if j >= b.len() || (i < a.len() && a[i] < b[j]) {
            out.push(a[i]);
            i += 1;
        } else if i >= a.len() || b[j] < a[i] {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
            j += 1;
        }
    }
    out
}

/// `|a ∪ b|` of two sorted, deduplicated slices, counted without building
/// the union.
fn union_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - common
}

/// Outcome of one trial merge of `c` into `a` (Algorithm 4, lines 10–15).
enum Trial {
    /// The union would fall below γ.
    Rejected,
    /// Accepted, and `a` already holds every vertex and edge of `c`.
    Covered,
    /// Accepted, and the union is a new body.
    Grows,
}

/// Decide a merge by counting `|V_a ∪ V_c|` and `|E_a ∪ E_c|`; nothing is
/// allocated, and the decision is the one `a.merged(c).density() >= gamma`
/// makes.
fn try_merge(a: &Cluster, c: &Cluster, gamma: f64) -> Trial {
    let vertices = union_len(&a.vertices, &c.vertices);
    // |E_a ∪ E_c| ≤ |E_a| + |E_c|, and density grows with the edge count:
    // when even the bound misses γ the edge lists need no walk.
    let reachable = density_of(vertices, a.edges.len() + c.edges.len()) >= gamma;
    if !reachable {
        return Trial::Rejected;
    }
    let edges = union_len(&a.edges, &c.edges);
    let dense = density_of(vertices, edges) >= gamma;
    if !dense {
        Trial::Rejected
    } else if vertices == a.vertices.len() && edges == a.edges.len() {
        Trial::Covered
    } else {
        Trial::Grows
    }
}

/// What a Task 7 reducer hands back per surviving cluster of its group.
enum Emitted {
    /// The stored body under this handle came through unchanged.
    Keep(u32),
    /// A body that a merge created.
    Merged(Cluster),
}

/// Task 7's reducer for one vertex group: greedy merging, biggest first
/// (Algorithm 4). `clusters` is in [`total_order`], so ascending handles are
/// that order.
fn reduce_group(
    clusters: &[Cluster],
    dirty: &[bool],
    gamma: f64,
    mut handles: Vec<u32>,
    emit: &mut dyn FnMut(Emitted),
) {
    handles.sort_unstable();
    let mut accepted: Vec<Emitted> = Vec::new();
    'next: for h in handles {
        let c = &clusters[h as usize];
        for slot in &mut accepted {
            let a = match slot {
                // Two clean bodies met in this group last round, in this
                // order, and were rejected.
                Emitted::Keep(k) if !dirty[*k as usize] && !dirty[h as usize] => continue,
                Emitted::Keep(k) => &clusters[*k as usize],
                Emitted::Merged(body) => &*body,
            };
            match try_merge(a, c, gamma) {
                Trial::Rejected => {}
                Trial::Covered => continue 'next,
                Trial::Grows => {
                    *slot = Emitted::Merged(a.merged(c));
                    continue 'next;
                }
            }
        }
        accepted.push(Emitted::Keep(h));
    }
    accepted.into_iter().for_each(emit);
}

/// Result of one enumeration call.
#[derive(Debug, Clone, Default)]
pub struct EnumerationResult {
    /// Maximal clusters after the last round, sorted by vertex list.
    pub clusters: Vec<Cluster>,
    /// Total clusters examined across rounds ("clusters processed").
    pub clusters_processed: u64,
    /// Clusters dropped by the live-cluster cap (0 normally).
    pub clusters_dropped: u64,
    /// Task 7/8 rounds run.
    pub rounds: u32,
    /// False when the level stopped at the round cut-off with its vertex
    /// sets still changing.
    pub converged: bool,
    /// Vertex groups handed to a reducer, summed over rounds.
    pub groups_reduced: u64,
    /// Vertex groups skipped because every cluster in them was clean.
    pub groups_skipped: u64,
    /// Trial merges accepted by the reducers.
    pub merges: u64,
    /// Merged MapReduce counters of every round's job (includes the
    /// fault-tolerance counters: task failures, retries, corrupt frames).
    pub job_stats: JobStats,
}

/// Grow γ-quasi-cliques from `carried`-over clusters plus fresh 2-cliques
/// for `new_edges`, iterating Task 7/Task 8 rounds until stable. Nothing is
/// known about where `carried` came from, so every group is reduced in the
/// first round; a threshold series should keep one [`ClusterStore`].
///
/// # Errors
/// Propagates [`JobError`] when a round's MapReduce job exhausts its task
/// attempts.
pub fn enumerate_quasicliques(
    carried: Vec<Cluster>,
    new_edges: &[(u32, u32)],
    gamma: f64,
    job: &JobConfig,
    max_live_clusters: usize,
) -> Result<EnumerationResult, JobError> {
    let mut store = ClusterStore::default();
    store.add(carried);
    store.advance(new_edges, gamma, job, max_live_clusters)
}

/// The live clusters of a threshold series, kept across levels. A handle is
/// an index into the store and is valid for one round.
///
/// `gamma` must not change between [`ClusterStore::advance`] calls: a clean
/// flag records density tests that failed under it.
#[derive(Debug)]
pub(crate) struct ClusterStore {
    /// In [`total_order`], vertex sets pairwise distinct.
    clusters: Vec<Cluster>,
    /// `dirty[h]`: body `h` did not exist in the previous round's state.
    dirty: Vec<bool>,
    /// Rounds after which a level stops whether or not it is stable
    /// ([`MAX_ROUNDS`]; tests lower it to reach the cut-off).
    max_rounds: u32,
}

impl Default for ClusterStore {
    fn default() -> ClusterStore {
        ClusterStore { clusters: Vec::new(), dirty: Vec::new(), max_rounds: MAX_ROUNDS }
    }
}

/// A body on its way into the next state.
struct Candidate {
    body: Cluster,
    /// The body is not one of the previous state's bodies.
    changed: bool,
    /// The vertex set is one of the previous state's vertex sets.
    known_set: bool,
    /// Unchanged and already clean: two such bodies sat side by side in a
    /// pruned state, so neither contains the other.
    settled: bool,
}

/// Unite `fresh` bodies (any order, repeats allowed) with the bodies of
/// `old` that `kept` retains. Equal vertex sets unite their edge sets; the
/// result is in [`total_order`].
fn join(
    old: Vec<Cluster>,
    was_dirty: &[bool],
    kept: &[bool],
    mut fresh: Vec<Cluster>,
) -> Vec<Candidate> {
    fresh.sort_unstable_by(total_order);
    fresh.dedup_by(|later, first| {
        let same = later.vertices == first.vertices;
        // Groups sharing two clusters each emit the same merged body.
        if same && later.edges != first.edges {
            first.edges = sorted_union(&first.edges, &later.edges);
        }
        same
    });
    let new_body = |body| Candidate { body, changed: true, known_set: false, settled: false };
    let mut out = Vec::with_capacity(old.len() + fresh.len());
    let mut fresh = fresh.into_iter().peekable();
    for (h, mut body) in old.into_iter().enumerate() {
        while let Some(f) = fresh.next_if(|f| total_order(f, &body) == Ordering::Less) {
            out.push(new_body(f));
        }
        let twin = fresh.next_if(|f| f.vertices == body.vertices);
        if kept[h] {
            let mut changed = false;
            if let Some(twin) = twin {
                let united = sorted_union(&body.edges, &twin.edges);
                changed = united.len() != body.edges.len();
                body.edges = united;
            }
            let settled = !changed && !was_dirty[h];
            out.push(Candidate { body, changed, known_set: true, settled });
        } else if let Some(twin) = twin {
            out.push(Candidate { known_set: true, ..new_body(twin) });
        }
    }
    out.extend(fresh.map(new_body));
    out
}

impl ClusterStore {
    /// Add bodies between rounds: new ones and those whose edge set grows
    /// are dirty, the rest keep their flag.
    fn add(&mut self, fresh: Vec<Cluster>) {
        let old = std::mem::take(&mut self.clusters);
        let was_dirty = std::mem::take(&mut self.dirty);
        for c in join(old, &was_dirty, &vec![true; was_dirty.len()], fresh) {
            self.clusters.push(c.body);
            self.dirty.push(!c.settled);
        }
    }

    /// One threshold level: add a 2-clique per new edge, then run Task 7/8
    /// rounds until the vertex sets stop changing or the round limit is
    /// reached. `clusters` of the result is a sorted copy of the store.
    ///
    /// # Errors
    /// Propagates [`JobError`] when a round's MapReduce job exhausts its
    /// task attempts.
    pub(crate) fn advance(
        &mut self,
        new_edges: &[(u32, u32)],
        gamma: f64,
        job: &JobConfig,
        max_live_clusters: usize,
    ) -> Result<EnumerationResult, JobError> {
        self.add(new_edges.iter().map(|&(a, b)| Cluster::from_edge(a, b)).collect());
        let mut result = EnumerationResult {
            clusters_processed: self.clusters.len() as u64,
            ..Default::default()
        };
        let mut groups = distinct_vertices(&self.clusters);
        while result.rounds < self.max_rounds && !result.converged {
            result.rounds += 1;
            if max_live_clusters > 0 && self.clusters.len() > max_live_clusters {
                // Documented safety valve: keep the largest clusters, ties
                // by vertices ascending — a prefix of the total order. What
                // the clean flags recorded about the dropped clusters'
                // groups is void.
                result.clusters_dropped += (self.clusters.len() - max_live_clusters) as u64;
                self.clusters.truncate(max_live_clusters);
                self.dirty.clear();
                self.dirty.resize(max_live_clusters, true);
                groups = distinct_vertices(&self.clusters);
            }
            let (stable, stats) = self.round(gamma, job)?;
            result.converged = stable;
            result.clusters_processed += self.clusters.len() as u64;
            result.groups_reduced += stats.reduce_input_groups;
            result.groups_skipped += groups - stats.reduce_input_groups;
            // Every value a group received either came back or was merged
            // away; counted from the job's own totals, so a retried reduce
            // task is not counted twice.
            result.merges += stats.map_output_records - stats.reduce_output_records;
            result.job_stats.merge(&stats);
        }
        if !result.converged {
            // Stopped mid-flight: start the next level from scratch.
            self.dirty.fill(true);
        }
        result.clusters = self.clusters.clone();
        result.clusters.sort_unstable_by(|a, b| a.vertices.cmp(&b.vertices));
        Ok(result)
    }

    /// One Task 7 job over the dirty groups, then Task 8. Returns whether
    /// the round left the vertex sets as they were, and the job's counters.
    fn round(&mut self, gamma: f64, job: &JobConfig) -> Result<(bool, JobStats), JobError> {
        let (clusters, dirty) = (&self.clusters, &self.dirty);
        // A group is reduced iff it holds a dirty cluster.
        let active: FxHashSet<u32> = clusters
            .iter()
            .zip(dirty)
            .filter(|&(_, &dirty)| dirty)
            .flat_map(|(c, _)| c.vertices.iter().copied())
            .collect();
        // A cluster with a vertex in a skipped group is re-emitted unchanged
        // by that group; one with no vertex in a reduced group takes no part
        // in the job at all.
        let mut kept = vec![false; clusters.len()];
        let mut touched: Vec<u32> = Vec::new();
        for (h, c) in clusters.iter().enumerate() {
            let in_reduced = c.vertices.iter().filter(|v| active.contains(v)).count();
            kept[h] = in_reduced < c.vertices.len();
            if in_reduced > 0 {
                touched.push(h as u32);
            }
        }

        let (emitted, stats) = map_reduce_simple(
            job,
            &touched,
            |&h: &u32, emit: &mut dyn FnMut(u32, u32)| {
                for &v in &clusters[h as usize].vertices {
                    if active.contains(&v) {
                        emit(v, h);
                    }
                }
            },
            |_v: &u32, handles: Vec<u32>, emit: &mut dyn FnMut(Emitted)| {
                reduce_group(clusters, dirty, gamma, handles, emit)
            },
        )?;

        let mut merged = Vec::new();
        for e in emitted {
            match e {
                Emitted::Keep(h) => kept[h as usize] = true,
                Emitted::Merged(body) => merged.push(body),
            }
        }
        Ok((self.settle(&kept, merged), stats))
    }

    /// Task 8: deduplicate the merged bodies by vertex set (against each
    /// other and against the kept ones, uniting edge sets), then prune
    /// clusters strictly contained in another, folding their edges into the
    /// first superset so no recorded edge is lost. Returns whether the
    /// state's vertex sets are those it had before the round.
    fn settle(&mut self, kept: &[bool], merged: Vec<Cluster>) -> bool {
        let before = self.clusters.len();
        let old = std::mem::take(&mut self.clusters);
        let candidates = join(old, &self.dirty, kept, merged);
        self.dirty.clear();
        let mut settled: Vec<bool> = Vec::with_capacity(candidates.len());
        let mut known_sets = true;
        // Walking in total order, a cluster can only be contained in one
        // already placed; look those up by its first vertex.
        let mut member_of: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        // One bit per vertex residue: a set bit the other lacks rules
        // containment out without a look at the other's vertices.
        let signature = |c: &Cluster| c.vertices.iter().fold(0u64, |s, v| s | 1 << (v % 64));
        let mut signatures: Vec<u64> = Vec::with_capacity(candidates.len());
        'next: for c in candidates {
            let signature = signature(&c.body);
            if let Some(supersets) = member_of.get(&c.body.vertices[0]) {
                for &k in supersets {
                    let k = k as usize;
                    if signature & !signatures[k] != 0 || (c.settled && settled[k]) {
                        continue;
                    }
                    if c.body.is_subset_of(&self.clusters[k]) {
                        let united = sorted_union(&self.clusters[k].edges, &c.body.edges);
                        if united.len() != self.clusters[k].edges.len() {
                            self.clusters[k].edges = united;
                            self.dirty[k] = true;
                            settled[k] = false;
                        }
                        continue 'next;
                    }
                }
            }
            let idx = self.clusters.len() as u32;
            for &v in &c.body.vertices {
                member_of.entry(v).or_default().push(idx);
            }
            known_sets &= c.known_set;
            self.clusters.push(c.body);
            self.dirty.push(c.changed);
            settled.push(c.settled);
            signatures.push(signature);
        }
        known_sets && self.clusters.len() == before
    }
}

/// Number of distinct vertices, i.e. of Task 7 vertex groups.
fn distinct_vertices(clusters: &[Cluster]) -> u64 {
    let mut all: Vec<u32> = clusters.iter().flat_map(|c| c.vertices.iter().copied()).collect();
    all.sort_unstable();
    all.dedup();
    all.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quasiclique_reference::reference_enumerate;
    use proptest::prelude::*;

    fn enumerate(edges: &[(u32, u32)], gamma: f64) -> Vec<Cluster> {
        enumerate_quasicliques(Vec::new(), edges, gamma, &JobConfig::with_workers(2), 0)
            .expect("enumeration jobs")
            .clusters
    }

    fn clique(vertices: std::ops::Range<u32>) -> Vec<(u32, u32)> {
        vertices.clone().flat_map(|a| (a + 1..vertices.end).map(move |b| (a, b))).collect()
    }

    #[test]
    fn triangle_becomes_one_cluster() {
        let clusters = enumerate(&[(0, 1), (1, 2), (0, 2)], 2.0 / 3.0);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].vertices, vec![0, 1, 2]);
        assert_eq!(clusters[0].density(), 1.0);
    }

    #[test]
    fn path_merges_under_relaxed_gamma() {
        // Path 0-1-2: density 2/3, allowed at gamma = 2/3.
        let clusters = enumerate(&[(0, 1), (1, 2)], 2.0 / 3.0);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].vertices, vec![0, 1, 2]);
    }

    #[test]
    fn path_stays_split_under_strict_gamma() {
        let clusters = enumerate(&[(0, 1), (1, 2)], 0.9);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn disconnected_components_stay_apart() {
        let clusters = enumerate(&[(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)], 0.6);
        assert_eq!(clusters.len(), 2);
        let mut sizes: Vec<usize> = clusters.iter().map(|c| c.order()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn two_triangles_with_bridge_never_fully_merge() {
        // Two triangles sharing vertex 2. The 5-vertex union has density
        // 6/10 < 2/3, so no cluster may contain all five vertices; clusters
        // can overlap on the bridge vertex (the model permits overlap).
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)];
        let clusters = enumerate(&edges, 2.0 / 3.0);
        assert!(!clusters.is_empty());
        let gamma = 2.0 / 3.0;
        let mut covered: Vec<u32> = Vec::new();
        for c in &clusters {
            assert!(c.order() < 5, "5-vertex union is below gamma: {c:?}");
            assert!(c.density() >= gamma - 1e-9, "density invariant: {c:?}");
            covered.extend(&c.vertices);
        }
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered, vec![0, 1, 2, 3, 4], "all vertices stay covered");
    }

    #[test]
    fn incremental_carryover_extends_clusters() {
        // First threshold: a triangle.
        let r1 = enumerate_quasicliques(
            Vec::new(),
            &[(0, 1), (1, 2), (0, 2)],
            0.6,
            &JobConfig::with_workers(2),
            0,
        )
        .expect("enumeration jobs");
        // Second threshold adds edges attaching vertex 3 densely.
        let r2 = enumerate_quasicliques(
            r1.clusters,
            &[(2, 3), (1, 3)],
            0.6,
            &JobConfig::with_workers(2),
            0,
        )
        .expect("enumeration jobs");
        assert_eq!(r2.clusters.len(), 1);
        assert_eq!(r2.clusters[0].vertices, vec![0, 1, 2, 3]);
        assert!(r2.clusters[0].density() >= 0.6);
    }

    #[test]
    fn task8_prunes_contained_and_keeps_its_edges() {
        let mut store = ClusterStore::default();
        store.add(vec![
            Cluster { vertices: vec![0, 1], edges: vec![(0, 1)] },
            Cluster { vertices: vec![0, 1, 2], edges: vec![(0, 2), (1, 2)] },
        ]);
        assert!(!store.settle(&[true, true], Vec::new()), "a vertex set went away");
        assert_eq!(
            store.clusters,
            vec![Cluster { vertices: vec![0, 1, 2], edges: vec![(0, 1), (0, 2), (1, 2)] }]
        );
        assert_eq!(store.dirty, vec![true], "the fold changed the survivor's body");
    }

    #[test]
    fn equal_vertex_sets_unite_their_edges() {
        let mut store = ClusterStore::default();
        store.add(vec![
            Cluster { vertices: vec![0, 1, 2], edges: vec![(0, 1)] },
            Cluster { vertices: vec![0, 1, 2], edges: vec![(1, 2)] },
        ]);
        assert_eq!(store.clusters.len(), 1);
        assert_eq!(store.clusters[0].edges, vec![(0, 1), (1, 2)]);
        // Against a stored body too, and only a grown edge set is dirty.
        store.dirty = vec![false];
        store.add(vec![Cluster { vertices: vec![0, 1, 2], edges: vec![(0, 1)] }]);
        assert_eq!(store.dirty, vec![false]);
        store.add(vec![Cluster { vertices: vec![0, 1, 2], edges: vec![(0, 2)] }]);
        assert_eq!(store.clusters[0].edges, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(store.dirty, vec![true]);
    }

    #[test]
    fn density_and_subset_helpers() {
        let c = Cluster { vertices: vec![0, 1, 2, 3], edges: vec![(0, 1), (1, 2), (2, 3)] };
        assert!((c.density() - 0.5).abs() < 1e-12);
        let sub = Cluster { vertices: vec![1, 3], edges: vec![] };
        assert!(sub.is_subset_of(&c));
        let non = Cluster { vertices: vec![1, 9], edges: vec![] };
        assert!(!non.is_subset_of(&c));
    }

    #[test]
    fn trial_merge_counts_what_merging_would_build() {
        let a = Cluster { vertices: vec![0, 1, 2], edges: vec![(0, 1), (0, 2), (1, 2)] };
        let inside = Cluster::from_edge(0, 2);
        let outside = Cluster::from_edge(2, 3);
        assert!(matches!(try_merge(&a, &inside, 0.9), Trial::Covered));
        // {0,1,2,3} with four edges: 4/6.
        assert!(matches!(try_merge(&a, &outside, 2.0 / 3.0), Trial::Grows));
        assert!(matches!(try_merge(&a, &outside, 0.7), Trial::Rejected));
        assert!(matches!(try_merge(&a, &outside, f64::NAN), Trial::Rejected));
    }

    #[test]
    fn clique_of_five_fully_merges() {
        // Bootstrapping from 2-cliques requires gamma = 2/3 (the paper's
        // "In order to form the initial quasi-cliques, we set γ ≥ 2/3"):
        // any merge of two 2-cliques passes through a 3-vertex/2-edge state.
        let clusters = enumerate(&clique(0..5), 2.0 / 3.0);
        assert_eq!(clusters.len(), 1, "{clusters:?}");
        assert_eq!(clusters[0].order(), 5);
        assert_eq!(clusters[0].density(), 1.0);
    }

    #[test]
    fn cap_keeps_the_largest_ties_by_vertices_ascending() {
        // Four disjoint edges at a γ no pair of them can meet: nothing
        // merges, so the cap alone decides what is left.
        let edges = [(6, 7), (0, 1), (4, 5), (2, 3)];
        let job = JobConfig::with_workers(2);
        let capped = enumerate_quasicliques(Vec::new(), &edges, 0.9, &job, 2).expect("jobs");
        assert_eq!(capped.clusters_dropped, 2);
        assert_eq!(capped.clusters, vec![Cluster::from_edge(0, 1), Cluster::from_edge(2, 3)]);
        assert!(capped.converged);
        // A larger cluster outranks any smaller one whatever its vertices.
        let mut edges = clique(10..13);
        edges.extend([(0, 1), (2, 3)]);
        let capped = enumerate_quasicliques(Vec::new(), &edges, 2.0 / 3.0, &job, 2).expect("jobs");
        // Round 1 drops three of the five 2-cliques, round 2 nothing.
        assert_eq!(capped.clusters_dropped, 3);
        let reference =
            reference_enumerate(Vec::new(), &edges, 2.0 / 3.0, &job, 2, MAX_ROUNDS).expect("jobs");
        assert_eq!(capped.clusters, reference.clusters);
        assert_eq!(capped.clusters_dropped, reference.clusters_dropped);
    }

    #[test]
    fn second_level_reduces_only_the_component_it_touches() {
        let job = JobConfig::with_workers(2);
        let gamma = 2.0 / 3.0;
        let mut level1 = clique(0..4);
        level1.extend(clique(10..14));
        let mut store = ClusterStore::default();
        let r1 = store.advance(&level1, gamma, &job, 0).expect("jobs");
        assert!(r1.converged);
        assert_eq!(r1.groups_skipped, 0, "a first level has only new clusters");
        assert_eq!(r1.clusters.len(), 2);
        // Vertex 4 joins the first component; 10..14 is left alone.
        let r2 = store.advance(&[(0, 4), (1, 4), (2, 4)], gamma, &job, 0).expect("jobs");
        assert!(r2.converged);
        assert!(r2.merges > 0);
        assert_eq!(r2.groups_reduced + r2.groups_skipped, 9 * u64::from(r2.rounds));
        assert!(r2.groups_skipped >= 4 * u64::from(r2.rounds), "{r2:?}");
        assert_eq!(r2.clusters[0].vertices, vec![0, 1, 2, 3, 4]);
        assert_eq!(r2.clusters[1], r1.clusters[1]);
        // Same answer, same count, as reducing everything.
        let cold = enumerate_quasicliques(r1.clusters, &[(0, 4), (1, 4), (2, 4)], gamma, &job, 0)
            .expect("jobs");
        assert_eq!(cold.clusters, r2.clusters);
        assert_eq!(cold.clusters_processed, r2.clusters_processed);
        assert!(cold.groups_reduced > r2.groups_reduced, "a cold first round reduces every group");
    }

    #[test]
    fn round_limit_is_reported_and_the_next_level_picks_up() {
        let job = JobConfig::with_workers(2);
        let gamma = 2.0 / 3.0;
        let edges = clique(0..6);
        let full = enumerate_quasicliques(Vec::new(), &edges, gamma, &job, 0).expect("jobs");
        assert!(full.converged && full.rounds > 2, "{full:?}");

        let mut store = ClusterStore { max_rounds: 1, ..Default::default() };
        let cut = store.advance(&edges, gamma, &job, 0).expect("jobs");
        assert!(!cut.converged);
        assert_eq!(cut.rounds, 1);
        assert_ne!(cut.clusters, full.clusters);
        // A level with no new edge carries on where the cut-off stopped.
        store.max_rounds = MAX_ROUNDS;
        let resumed = store.advance(&[], gamma, &job, 0).expect("jobs");
        assert!(resumed.converged);
        assert_eq!(resumed.clusters, full.clusters);
    }

    fn undirected(raw: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        raw.into_iter().filter(|&(a, b)| a != b).map(|(a, b)| (a.min(b), a.max(b))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On arbitrary small graphs, every output cluster satisfies the
        /// density invariant, covers only input vertices, contains no
        /// duplicate or subset clusters, and every input edge is inside at
        /// least one cluster.
        #[test]
        fn enumeration_invariants(raw_edges in proptest::collection::vec((0u32..12, 0u32..12), 1..40)) {
            let edges = undirected(raw_edges);
            if edges.is_empty() {
                return Ok(());
            }
            let gamma = 2.0 / 3.0;
            let clusters = enumerate(&edges, gamma);
            for c in &clusters {
                prop_assert!(c.density() >= gamma - 1e-9, "{c:?}");
                prop_assert!(c.vertices.windows(2).all(|w| w[0] < w[1]));
                // γ against the input graph, not the cluster's own
                // bookkeeping: the recorded edges are distinct input edges
                // inside the vertex set, and there are enough of them.
                prop_assert!(c.edges.windows(2).all(|w| w[0] < w[1]), "{c:?}");
                for e in &c.edges {
                    prop_assert!(edges.contains(e), "{e:?} of {c:?} is no input edge");
                    prop_assert!(c.vertices.contains(&e.0) && c.vertices.contains(&e.1), "{c:?}");
                }
                let pairs = c.order() * (c.order() - 1) / 2;
                prop_assert!(c.edges.len() as f64 >= gamma * pairs as f64 - 1e-9, "{c:?}");
            }
            // No subset relations between distinct clusters.
            for (i, a) in clusters.iter().enumerate() {
                for (j, b) in clusters.iter().enumerate() {
                    if i != j {
                        prop_assert!(
                            !(a.is_subset_of(b) && a.vertices != b.vertices),
                            "{a:?} subset of {b:?}"
                        );
                    }
                }
            }
            // Every input edge is captured by some cluster.
            let mut sorted_edges = edges.clone();
            sorted_edges.sort_unstable();
            sorted_edges.dedup();
            for e in &sorted_edges {
                prop_assert!(
                    clusters.iter().any(|c| c.edges.contains(e)),
                    "edge {e:?} lost"
                );
            }
        }

        /// The clusters — vertices and edges — are a function of the edge
        /// *set*: order, repeats and the worker count do not show.
        #[test]
        fn edge_order_repeats_and_workers_do_not_show(
            raw_edges in proptest::collection::vec((0u32..12, 0u32..12), 1..40),
            shuffle in proptest::collection::vec(any::<u32>(), 40),
        ) {
            let edges = undirected(raw_edges);
            let gamma = 2.0 / 3.0;
            let base = enumerate(&edges, gamma);

            let mut keyed: Vec<(u32, (u32, u32))> =
                shuffle.iter().copied().zip(edges.iter().copied()).collect();
            keyed.sort_unstable();
            let permuted: Vec<(u32, u32)> = keyed.into_iter().map(|(_, e)| e).collect();
            prop_assert_eq!(&enumerate(&permuted, gamma), &base);

            let mut doubled = edges.clone();
            doubled.extend(edges.iter().rev());
            prop_assert_eq!(&enumerate(&doubled, gamma), &base);

            for workers in [1, 4] {
                let job = JobConfig::with_workers(workers);
                let r = enumerate_quasicliques(Vec::new(), &edges, gamma, &job, 0).expect("jobs");
                prop_assert_eq!(&r.clusters, &base, "workers = {}", workers);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Differential oracle: through a 1–4 level series the store carried
        /// across levels, the cold public entry point fed its own previous
        /// level, and the body-shipping reference agree on every cluster —
        /// vertices and edges — and on `clusters_processed`, with and
        /// without the live-cluster cap firing, and when a low round limit
        /// cuts levels off unconverged.
        #[test]
        fn matches_reference_level_by_level(
            raw_edges in proptest::collection::vec(((0u32..14, 0u32..14), 0usize..4), 1..60),
            levels in 1usize..5,
            gamma in prop_oneof![Just(0.5), Just(2.0 / 3.0), Just(0.8)],
            cap in prop_oneof![Just(0usize), Just(0), Just(6)],
            max_rounds in prop_oneof![Just(MAX_ROUNDS), Just(MAX_ROUNDS), Just(2)],
        ) {
            let job = JobConfig::with_workers(2);
            let mut store = ClusterStore { max_rounds, ..Default::default() };
            let mut cold_carried = Vec::new();
            let mut reference_carried = Vec::new();
            for level in 0..levels {
                let new_edges = undirected(
                    raw_edges.iter().filter(|(_, l)| l % levels == level).map(|&(e, _)| e).collect(),
                );
                let warm = store.advance(&new_edges, gamma, &job, cap).expect("jobs");
                let cold = if max_rounds == MAX_ROUNDS {
                    enumerate_quasicliques(cold_carried, &new_edges, gamma, &job, cap)
                } else {
                    let mut fresh_store = ClusterStore { max_rounds, ..Default::default() };
                    fresh_store.add(cold_carried);
                    fresh_store.advance(&new_edges, gamma, &job, cap)
                }
                .expect("jobs");
                let reference =
                    reference_enumerate(reference_carried, &new_edges, gamma, &job, cap, max_rounds)
                        .expect("jobs");
                for (name, got) in [("carried store", &warm), ("cold call", &cold)] {
                    prop_assert_eq!(
                        &got.clusters, &reference.clusters, "{} at level {}", name, level
                    );
                    prop_assert_eq!(
                        got.clusters_processed, reference.clusters_processed,
                        "{} at level {}", name, level
                    );
                    prop_assert_eq!(
                        got.clusters_dropped, reference.clusters_dropped,
                        "{} at level {}", name, level
                    );
                }
                prop_assert_eq!(warm.rounds, cold.rounds);
                prop_assert_eq!(warm.converged, cold.converged);
                cold_carried = cold.clusters;
                reference_carried = reference.clusters;
            }
        }

        /// The public entry point promises nothing about `carried`: nested,
        /// repeated and under-dense clusters included, a call and the level
        /// after it still equal the reference.
        #[test]
        fn arbitrary_carried_clusters_match_reference(
            raw_carried in proptest::collection::vec(
                (proptest::collection::btree_set(0u32..10, 2..6), any::<u16>()), 0..8),
            first in proptest::collection::vec((0u32..10, 0u32..10), 0..12),
            second in proptest::collection::vec((0u32..10, 0u32..10), 0..12),
            gamma in prop_oneof![Just(0.5), Just(2.0 / 3.0), Just(0.8)],
        ) {
            let carried: Vec<Cluster> = raw_carried
                .into_iter()
                .map(|(set, mask)| {
                    let vertices: Vec<u32> = set.into_iter().collect();
                    let pairs = vertices
                        .iter()
                        .flat_map(|&a| vertices.iter().filter(move |&&b| a < b).map(move |&b| (a, b)));
                    let edges = pairs.enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, e)| e);
                    Cluster { edges: edges.collect(), vertices }
                })
                .collect();
            let job = JobConfig::with_workers(2);
            let mut store = ClusterStore::default();
            store.add(carried.clone());
            let mut reference_carried = carried;
            for (level, raw) in [first, second].into_iter().enumerate() {
                let new_edges = undirected(raw);
                let got = store.advance(&new_edges, gamma, &job, 0).expect("jobs");
                let reference =
                    reference_enumerate(reference_carried, &new_edges, gamma, &job, 0, MAX_ROUNDS)
                        .expect("jobs");
                prop_assert_eq!(&got.clusters, &reference.clusters, "level {}", level);
                prop_assert_eq!(
                    got.clusters_processed, reference.clusters_processed, "level {}", level
                );
                reference_carried = reference.clusters;
            }
        }
    }
}
