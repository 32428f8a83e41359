//! Phase I, Tasks 4–5: edge validation (§4.4.1).
//!
//! "The entire exercise of generating read pairs based on sketching can be
//! seen as a filter to produce pairs worthy of further evaluation. Any user
//! defined similarity function F can then be applied" — the paper names
//! pairwise sequence alignment and its own sketch-based function as the
//! choices. [`Validator`] offers both, plus a middle option (full k-mer
//! containment, Cd-hit-style word counting) that scales to large candidate
//! sets without alignment cost.

use crate::shingle::{sorted_intersection_size, ShingleArena};
use ngs_core::Read;
use rayon::prelude::*;

/// The similarity function `F` applied to candidate pairs.
#[derive(Debug, Clone)]
pub enum Validator {
    /// Full pairwise alignment: `max(fitting, overlap)` identity — the most
    /// faithful but O(|r|²) per pair.
    Alignment {
        /// Minimum suffix–prefix overlap for the overlap component.
        min_overlap: usize,
    },
    /// Containment similarity over the *full* shingle sets (not sketches):
    /// `|H_i ∩ H_j| / min(|H_i|, |H_j|)`.
    KmerContainment {
        /// Shingle length.
        k: usize,
    },
}

/// A validated edge `(i, j, F)`.
type ScoredEdge = (u32, u32, f64);

/// What a validation pass did besides keeping edges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ValidateStats {
    /// k-mer windows hashed because no arena of the validator's `k` was
    /// handed in.
    pub shingles_hashed: u64,
    /// Steps of all containment merges.
    pub merge_steps: u64,
    /// Merges abandoned because the pair could no longer reach the floor.
    pub early_exits: u64,
}

/// Validate candidate `edges` with `F`, keeping pairs scoring at least
/// `floor`. Returns `(i, j, score)` triples, sorted.
pub fn validate_edges(
    reads: &[Read],
    edges: &[(u32, u32)],
    validator: &Validator,
    floor: f64,
) -> Vec<(u32, u32, f64)> {
    validate_edges_on(reads, None, edges, validator, floor).0
}

/// [`validate_edges`] that reads the shingle sets from `arena` when it was
/// hashed with the validator's `k`, and hashes the reads itself otherwise.
pub(crate) fn validate_edges_on(
    reads: &[Read],
    arena: Option<&ShingleArena>,
    edges: &[(u32, u32)],
    validator: &Validator,
    floor: f64,
) -> (Vec<ScoredEdge>, ValidateStats) {
    match validator {
        Validator::Alignment { min_overlap } => {
            let min_overlap = *min_overlap;
            let kept = edges
                .par_iter()
                .filter_map(|&(a, b)| {
                    let ra = &reads[a as usize].seq;
                    let rb = &reads[b as usize].seq;
                    let score = ngs_align::fitting_identity(ra, rb)
                        .max(ngs_align::overlap_identity(ra, rb, min_overlap));
                    (score >= floor).then_some((a, b, score))
                })
                .collect();
            (kept, ValidateStats::default())
        }
        Validator::KmerContainment { k } => match arena.filter(|arena| arena.k() == *k) {
            Some(arena) => containment_edges(arena, edges, floor),
            None => {
                let own = ShingleArena::build(reads, *k);
                let (kept, mut stats) = containment_edges(&own, edges, floor);
                stats.shingles_hashed = own.windows();
                (kept, stats)
            }
        },
    }
}

/// The smallest `count` with `count as f64 / denom as f64 >= floor` — the
/// comparison that keeps an edge — or `denom + 1` when not even `denom`
/// passes it. The quotient never decreases in `count`, so everything from
/// the returned count up passes and nothing below it does.
fn min_common(denom: usize, floor: f64) -> usize {
    let passes = |count: usize| count as f64 / denom as f64 >= floor;
    // Land next to the answer arithmetically, then settle it with the very
    // comparison: rounding in the product may be off by one either way.
    let mut count = ((floor * denom as f64).ceil().max(0.0) as usize).min(denom + 1);
    while count > 0 && passes(count - 1) {
        count -= 1;
    }
    while count <= denom && !passes(count) {
        count += 1;
    }
    count
}

/// Edges handed to one pool task.
const BLOCK: usize = 2048;

/// `KmerContainment` over the shingle sets of `arena`.
fn containment_edges(
    arena: &ShingleArena,
    edges: &[(u32, u32)],
    floor: f64,
) -> (Vec<ScoredEdge>, ValidateStats) {
    // `need[d]`: common hashes a pair whose smaller set has `d` must reach.
    let longest = (0..arena.len()).map(|i| arena.set(i).len()).max().unwrap_or(0);
    let need: Vec<usize> = (0..=longest).map(|denom| min_common(denom, floor)).collect();

    let blocks: Vec<(Vec<ScoredEdge>, ValidateStats)> = edges
        .par_chunks(BLOCK)
        .map(|block| {
            let mut kept = Vec::with_capacity(block.len());
            let mut stats = ValidateStats::default();
            for &(a, b) in block {
                let (ha, hb) = (arena.set(a as usize), arena.set(b as usize));
                let denom = ha.len().min(hb.len());
                if denom == 0 || need[denom] > denom {
                    continue;
                }
                let (common, steps) = sorted_intersection_size(ha, hb, need[denom]);
                stats.merge_steps += steps as u64;
                let Some(common) = common else {
                    stats.early_exits += 1;
                    continue;
                };
                let score = common as f64 / denom as f64;
                if score >= floor {
                    kept.push((a, b, score));
                }
            }
            (kept, stats)
        })
        .collect();

    let mut kept = Vec::with_capacity(blocks.iter().map(|(k, _)| k.len()).sum());
    let mut stats = ValidateStats::default();
    for (block_kept, block_stats) in blocks {
        kept.extend(block_kept);
        stats.merge_steps += block_stats.merge_steps;
        stats.early_exits += block_stats.early_exits;
    }
    (kept, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn reads() -> Vec<Read> {
        let g: Vec<u8> = (0..200).map(|i| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
        let mut mutated = g.clone();
        for p in (5..200).step_by(20) {
            mutated[p] = b"TGCA"[(p / 20) % 4];
        }
        let unrelated: Vec<u8> = (0..200).map(|i| b"GATC"[(i * 5 + 2 * (i / 7)) % 4]).collect();
        vec![
            Read::new("base", &g),
            Read::new("copy", &g),
            Read::new("mutated", &mutated),
            Read::new("contained", &g[40..160]),
            Read::new("unrelated", &unrelated),
        ]
    }

    #[test]
    fn alignment_validator_scores_sensibly() {
        let rs = reads();
        let edges = vec![(0u32, 1u32), (0, 2), (0, 3), (0, 4)];
        let v = validate_edges(&rs, &edges, &Validator::Alignment { min_overlap: 30 }, 0.0);
        let score = |a: u32, b: u32| {
            v.iter().find(|&&(x, y, _)| (x, y) == (a, b)).map(|&(_, _, s)| s).unwrap()
        };
        assert_eq!(score(0, 1), 1.0);
        assert_eq!(score(0, 3), 1.0); // containment
        assert!(score(0, 2) > 0.9 && score(0, 2) < 1.0);
        assert!(score(0, 4) < score(0, 2));
    }

    #[test]
    fn kmer_validator_orders_pairs_like_alignment() {
        let rs = reads();
        let edges = vec![(0u32, 1u32), (0, 2), (0, 3), (0, 4)];
        let v = validate_edges(&rs, &edges, &Validator::KmerContainment { k: 9 }, 0.0);
        let score = |a: u32, b: u32| {
            v.iter().find(|&&(x, y, _)| (x, y) == (a, b)).map(|&(_, _, s)| s).unwrap()
        };
        assert_eq!(score(0, 1), 1.0);
        assert_eq!(score(0, 3), 1.0);
        assert!(score(0, 2) > score(0, 4));
    }

    #[test]
    fn floor_filters_weak_edges() {
        let rs = reads();
        let edges = vec![(0u32, 4u32)];
        let v = validate_edges(&rs, &edges, &Validator::KmerContainment { k: 9 }, 0.5);
        assert!(v.is_empty());
    }
    #[test]
    fn min_common_is_the_first_count_that_passes() {
        for denom in 0..=70usize {
            for floor in [-1.0, 0.0, 0.1, 1.0 / 3.0, 0.6, 0.7, 0.95, 1.0, 1.5, f64::NAN] {
                let first =
                    (0..=denom).find(|&c| c as f64 / denom as f64 >= floor).unwrap_or(denom + 1);
                assert_eq!(min_common(denom, floor), first, "denom {denom} floor {floor}");
            }
        }
    }

    /// The definition, set by set: no arena, no merge, no early exit.
    fn reference(
        reads: &[Read],
        edges: &[(u32, u32)],
        k: usize,
        floor: f64,
    ) -> Vec<(u32, u32, f64)> {
        let sets: Vec<BTreeSet<u64>> = reads
            .iter()
            .map(|r| {
                let mut set = BTreeSet::new();
                ngs_kmer::for_each_kmer(&r.seq, k, |_, v| {
                    set.insert(ngs_core::hash::hash_u64(v));
                });
                set
            })
            .collect();
        edges
            .iter()
            .filter_map(|&(a, b)| {
                let (ha, hb) = (&sets[a as usize], &sets[b as usize]);
                let denom = ha.len().min(hb.len());
                let score = ha.intersection(hb).count() as f64 / denom as f64;
                (denom > 0 && score >= floor).then_some((a, b, score))
            })
            .collect()
    }

    proptest! {
        /// Differential oracle for `KmerContainment`: the same triples in the
        /// same order with bit-equal scores, on reads shorter than `k`,
        /// all-`N` reads, exact duplicates, and unsorted, repeated edges. The
        /// early exit must never change a kept score or drop a pair at the
        /// floor.
        #[test]
        fn containment_matches_set_reference(
            raw in proptest::collection::vec(
                (proptest::collection::vec(0usize..9, 0..90), 0usize..5),
                0..14,
            ),
            raw_edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..60),
            k in prop_oneof![Just(3usize), Just(5), Just(8)],
            floor in prop_oneof![Just(0.0), Just(0.6), Just(1.0)],
        ) {
            let mut reads: Vec<Read> = Vec::new();
            for (i, (codes, kind)) in raw.iter().enumerate() {
                // `N` one base in nine; now and then a whole read of them,
                // or an exact copy of the read before.
                let seq: Vec<u8> = match kind {
                    0 if i > 0 => reads[i - 1].seq.clone(),
                    1 => vec![b'N'; codes.len()],
                    _ => codes.iter().map(|&c| b"ACGTACGTN"[c]).collect(),
                };
                reads.push(Read::new(format!("r{i}"), &seq));
            }
            let n = reads.len() as u32;
            let edges: Vec<(u32, u32)> =
                raw_edges.iter().filter(|_| n > 0).map(|&(a, b)| (a % n, b % n)).collect();

            let got = validate_edges(&reads, &edges, &Validator::KmerContainment { k }, floor);
            let want = reference(&reads, &edges, k, floor);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!((g.0, g.1, g.2.to_bits()), (w.0, w.1, w.2.to_bits()));
            }
        }
    }
}
