//! Test-only reference for Tasks 7–8: the enumeration as it shipped before
//! the handle shuffle — every cluster body travels through the job as a
//! `(Vec<u32>, Vec<u64>)` record, every trial merge is materialised, every
//! round reduces every vertex group and deduplicates by cloning. Slow and
//! obviously faithful to §4.4; [`crate::quasiclique`]'s tests hold the
//! shipped enumeration to it, level by level. Two things differ from what
//! shipped: the cap breaks size ties by vertices ascending (it used to
//! leave them to hash-map iteration order), and the round limit is an
//! argument so that the cut-off can be reached on a small graph.

use crate::quasiclique::{sorted_union, Cluster};
use mapreduce_lite::{map_reduce_simple, JobConfig, JobError};
use ngs_core::hash::{FxHashMap, FxHashSet};

/// What the reference reports per call: the clusters (sorted by vertices),
/// `clusters_processed` and `clusters_dropped`.
pub(crate) struct ReferenceResult {
    pub clusters: Vec<Cluster>,
    pub clusters_processed: u64,
    pub clusters_dropped: u64,
}

pub(crate) fn reference_enumerate(
    carried: Vec<Cluster>,
    new_edges: &[(u32, u32)],
    gamma: f64,
    job: &JobConfig,
    max_live_clusters: usize,
    max_rounds: u32,
) -> Result<ReferenceResult, JobError> {
    let mut clusters: Vec<Cluster> = carried;
    clusters.extend(new_edges.iter().map(|&(a, b)| Cluster::from_edge(a, b)));
    dedup_clusters(&mut clusters);

    let mut processed = clusters.len() as u64;
    let mut dropped = 0u64;
    for _round in 0..max_rounds {
        if clusters.len() > max_live_clusters && max_live_clusters > 0 {
            // Documented safety valve: keep the largest clusters, ties by
            // vertices ascending.
            clusters.sort_by(|a, b| {
                b.order().cmp(&a.order()).then_with(|| a.vertices.cmp(&b.vertices))
            });
            dropped += (clusters.len() - max_live_clusters) as u64;
            clusters.truncate(max_live_clusters);
        }

        // Task 7: key every cluster by each of its vertices; reducers merge
        // greedily within a vertex group.
        let indexed: Vec<(u32, Cluster)> =
            clusters.iter().enumerate().map(|(i, c)| (i as u32, c.clone())).collect();
        let (merged_lists, _round_stats) = map_reduce_simple(
            job,
            &indexed,
            |(ci, c): &(u32, Cluster), emit: &mut dyn FnMut(u32, (Vec<u32>, Vec<u64>))| {
                // Encode the cluster as (vertices, packed edges) for the
                // shuffle codec.
                let packed: Vec<u64> =
                    c.edges.iter().map(|&(a, b)| ((a as u64) << 32) | b as u64).collect();
                let _ = ci;
                for &v in &c.vertices {
                    emit(v, (c.vertices.clone(), packed.clone()));
                }
            },
            |_v: &u32, raw_group: Vec<(Vec<u32>, Vec<u64>)>, emit: &mut dyn FnMut(Cluster)| {
                let mut group: Vec<Cluster> = raw_group
                    .into_iter()
                    .map(|(vertices, packed)| Cluster {
                        vertices,
                        edges: packed
                            .into_iter()
                            .map(|p| ((p >> 32) as u32, (p & 0xFFFF_FFFF) as u32))
                            .collect(),
                    })
                    .collect();
                // Greedy merging, biggest first (deterministic order).
                group.sort_by(|a, b| {
                    b.order().cmp(&a.order()).then_with(|| a.vertices.cmp(&b.vertices))
                });
                let mut accepted: Vec<Cluster> = Vec::new();
                'next: for c in group {
                    for a in &mut accepted {
                        let m = a.merged(&c);
                        if m.density() >= gamma {
                            *a = m;
                            continue 'next;
                        }
                    }
                    accepted.push(c);
                }
                for c in accepted {
                    emit(c);
                }
            },
        )?;

        // Task 8: deduplicate by vertex set (uniting edge sets), then prune
        // non-maximal clusters.
        let mut next = merged_lists;
        dedup_clusters(&mut next);
        prune_subsets(&mut next);
        processed += next.len() as u64;

        let stable = next.len() == clusters.len() && {
            let mut a: Vec<&Cluster> = next.iter().collect();
            let mut b: Vec<&Cluster> = clusters.iter().collect();
            a.sort_by(|x, y| x.vertices.cmp(&y.vertices));
            b.sort_by(|x, y| x.vertices.cmp(&y.vertices));
            a.iter().zip(&b).all(|(x, y)| x.vertices == y.vertices)
        };
        clusters = next;
        if stable {
            break;
        }
    }
    clusters.sort_by(|a, b| a.vertices.cmp(&b.vertices));
    Ok(ReferenceResult { clusters, clusters_processed: processed, clusters_dropped: dropped })
}

fn key_hash(c: &Cluster) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in &c.vertices {
        h ^= ngs_core::hash::hash_u64(v as u64 + 1);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Merge clusters with identical vertex sets (edge-set union).
fn dedup_clusters(clusters: &mut Vec<Cluster>) {
    let mut by_key: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (i, c) in clusters.iter().enumerate() {
        by_key.entry(key_hash(c)).or_default().push(i);
    }
    let mut keep: Vec<Cluster> = Vec::with_capacity(by_key.len());
    let mut consumed: FxHashSet<usize> = FxHashSet::default();
    for (_, idxs) in by_key {
        for &i in &idxs {
            if consumed.contains(&i) {
                continue;
            }
            let mut acc = clusters[i].clone();
            for &j in &idxs {
                if j != i && !consumed.contains(&j) && clusters[j].vertices == acc.vertices {
                    acc.edges = sorted_union(&acc.edges, &clusters[j].edges);
                    consumed.insert(j);
                }
            }
            consumed.insert(i);
            keep.push(acc);
        }
    }
    *clusters = keep;
}

/// Remove clusters whose vertex set is strictly contained in another's.
fn prune_subsets(clusters: &mut Vec<Cluster>) {
    // Sort by descending order; a cluster can only be a subset of a larger
    // (or equal-size, but dedup removed those) one. Check containment via a
    // per-vertex inverted index over the kept clusters.
    clusters.sort_by(|a, b| b.order().cmp(&a.order()).then_with(|| a.vertices.cmp(&b.vertices)));
    let mut kept: Vec<Cluster> = Vec::with_capacity(clusters.len());
    let mut member_of: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    'outer: for c in clusters.drain(..) {
        // Candidate supersets: kept clusters containing c's first vertex.
        if let Some(cands) = member_of.get(&c.vertices[0]) {
            for &ki in cands {
                if c.is_subset_of(&kept[ki]) {
                    // Fold the pruned cluster's edges into the superset so
                    // no recorded edge is lost (density only gets more
                    // accurate — these edges lie within the vertex set).
                    kept[ki].edges = sorted_union(&kept[ki].edges, &c.edges);
                    continue 'outer;
                }
            }
        }
        let idx = kept.len();
        for &v in &c.vertices {
            member_of.entry(v).or_default().push(idx);
        }
        kept.push(c);
    }
    *clusters = kept;
}
