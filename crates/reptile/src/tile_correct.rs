//! Tile validation and correction — Algorithm 1 (§2.3).
//!
//! A decision about tile `t = α₁ ||_l α₂` is made from its high-quality
//! occurrence count `O_g(t)` and the counts of its *d-mutant tiles*
//! (Definition 2.2), located through the Hamming-graph neighbourhoods of its
//! constituent k-mers: `{t' = α₁' ||_l α₂' | (α₁', α₂') ∈ N^{d₁}×N^{d₂}}`.
//! "As a rule of thumb, there must be compelling evidence before a
//! correction is made." — and how compelling is known before the search:
//! `decide_from` reads nothing off the mutant list but the mutants whose
//! `O_g` reaches a floor fixed by `O_g(t)` alone (`evidence_floor`), so
//! the search keeps only those and visits only first k-mers that start one.

use crate::params::ReptileParams;
use ngs_kmer::neighbor::NeighborIndex;
use ngs_kmer::packed::{decode_kmer, hamming_distance, packed_base, Kmer};
use ngs_kmer::tile::{compose_tile, Tile};
use ngs_kmer::TileTable;

/// Outcome of Algorithm 1 on one tile placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileDecision {
    /// The tile is trusted as observed.
    Valid,
    /// The tile should be replaced by `tile`.
    Corrected {
        /// The replacement tile (packed, same length).
        tile: Tile,
    },
    /// Insufficient evidence to validate or correct ("ambiguities").
    Unresolved,
}

/// What Algorithm 1's d-mutant enumerations cost: exact counts, summed per
/// read and folded into the collector once per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Tile placements that entered mutant enumeration (`O_g < C_g`).
    pub enumerations: u64,
    /// Neighbour-index probes: one per enumeration entered with `d₁ > 0`.
    pub neighbor_probes: u64,
    /// First-k-mer runs of the tile table scanned: the tile's own and those
    /// of the neighbours holding a tile at or above the evidence floor.
    pub tile_runs_scanned: u64,
    /// Tile-table entries those runs held.
    pub tile_entries_scanned: u64,
    /// Observed d-mutant tiles at or above the evidence floor.
    pub mutants_found: u64,
}

impl EnumStats {
    /// Accumulate another run's counters.
    pub fn merge(&mut self, other: &EnumStats) {
        self.enumerations += other.enumerations;
        self.neighbor_probes += other.neighbor_probes;
        self.tile_runs_scanned += other.tile_runs_scanned;
        self.tile_entries_scanned += other.tile_entries_scanned;
        self.mutants_found += other.mutants_found;
    }
}

/// Buffers one read's tile decisions reuse, so Algorithm 1 allocates
/// nothing per tile, and the counters they add up.
#[derive(Default)]
pub struct TileScratch {
    /// Anchor neighbours of the tile's first k-mer, each with the largest
    /// `O_g` among the tiles it starts.
    side1: Vec<(Kmer, u32)>,
    /// The tile's observed d-mutant tiles at or above the evidence floor,
    /// with their high-quality counts.
    mutants: Vec<(Tile, u32)>,
    /// Enumeration cost so far.
    pub stats: EnumStats,
}

/// The least `O_g` at which a d-mutant tile bears on the decision about a
/// tile with high-quality count `og < C_g` — the comparison [`decide_from`]
/// makes, as the `f64` it makes it in: `O_g(t)·C_r` for a moderately
/// supported tile, `C_m` for a weak one. With no mutant at or above it
/// either branch returns what it returns on an empty list, so mutants below
/// it need not be found. Never below `C_m`, since `C_r ≥ 1`.
fn evidence_floor(og: u32, params: &ReptileParams) -> f64 {
    if og >= params.cm {
        og as f64 * params.cr
    } else {
        params.cm as f64
    }
}

/// Enumerate the observed d-mutant tiles of `(a1, a2)` (excluding the tile
/// itself) whose `O_g` is at least `need`, with their high-quality counts,
/// ascending, into `scratch.mutants`.
///
/// Definition 2.2 asks for the *observed* tiles `α₁' ||_l α₂'` with
/// `α₁' ∈ {α₁} ∪ N^{d₁}(α₁)` and `α₂' ∈ {α₂} ∪ N^{d₂}(α₂)`. The observed
/// tiles starting with one `α₁'` are one run of the sorted tile table, so
/// only side 1 is probed (not at all when `d₁ = 0`) and each run is filtered
/// by its second k-mer being within `d₂` of `α₂`. `index` holds the anchors
/// of `tiles` ([`crate::anchors`]): the first k-mers that start a tile with
/// `O_g ≥ C_m`, which `need` is never below, each with the largest `O_g` of
/// its run — so a neighbour whose best tile is below `need` is passed over
/// without a look at the table. `α₁`'s own run is scanned whatever it holds.
#[allow(clippy::too_many_arguments)] // Algorithm 1's inputs plus the floor
fn mutant_tiles(
    a1: Kmer,
    a2: Kmer,
    (d1, d2): (usize, usize),
    need: f64,
    params: &ReptileParams,
    tiles: &TileTable,
    index: &NeighborIndex<'_>,
    scratch: &mut TileScratch,
) {
    let k = params.k;
    let original =
        compose_tile(a1, a2, k, params.tile_overlap).expect("read-derived tile must be consistent");
    let second_kmer = (1u64 << (2 * k)) - 1;
    let TileScratch { side1, mutants, stats } = scratch;
    stats.enumerations += 1;
    mutants.clear();
    side1.clear();
    if d1 > 0 {
        index.neighbor_counts_into(a1, d1, side1);
        stats.neighbor_probes += 1;
    }
    let strong_neighbors =
        side1.iter().filter(|&&(_, max_og)| max_og as f64 >= need).map(|&(m1, _)| m1);
    for m1 in std::iter::once(a1).chain(strong_neighbors) {
        let run = tiles.first_kmer_run(m1);
        stats.tile_runs_scanned += 1;
        stats.tile_entries_scanned += run.len() as u64;
        for e in run {
            if e.counts.og as f64 >= need
                && e.tile != original
                && e.counts.oc > 0
                && hamming_distance(e.tile & second_kmer, a2) as usize <= d2
            {
                mutants.push((e.tile, e.counts.og));
            }
        }
    }
    // Runs ascend, but `a1`'s comes first whatever its rank among the
    // neighbours. A tile has one first k-mer, so nothing repeats.
    mutants.sort_unstable();
    stats.mutants_found += mutants.len() as u64;
}

/// The first enumeration, kept verbatim as an oracle: probe a neighbour
/// index over the reads' k-spectrum on both sides and look every pair of the
/// product up in the tile table. It knows no evidence floor.
#[cfg(test)]
fn reference_mutant_tiles(
    a1: Kmer,
    a2: Kmer,
    (d1, d2): (usize, usize),
    params: &ReptileParams,
    tiles: &TileTable,
    index: &NeighborIndex<'_>,
) -> Vec<(Tile, u32)> {
    /// Candidate k-mers for one side of a tile: the original, then its
    /// observed Hamming neighbours within the side's budget.
    fn side_candidates<'a>(
        index: &NeighborIndex<'_>,
        kmer: Kmer,
        budget: usize,
        neighbors: &'a mut Vec<Kmer>,
    ) -> impl Iterator<Item = Kmer> + Clone + 'a {
        index.neighbor_kmers_into(kmer, budget, neighbors);
        std::iter::once(kmer).chain(neighbors.iter().copied())
    }

    let k = params.k;
    let l = params.tile_overlap;
    let original = compose_tile(a1, a2, k, l).expect("read-derived tile must be consistent");
    let (mut side1, mut side2, mut mutants) = (Vec::new(), Vec::new(), Vec::new());
    let c2 = side_candidates(index, a2, d2, &mut side2);
    for m1 in side_candidates(index, a1, d1, &mut side1) {
        for m2 in c2.clone() {
            let Some(t) = compose_tile(m1, m2, k, l) else { continue };
            if t == original {
                continue;
            }
            let counts = tiles.counts(t);
            if counts.oc > 0 {
                mutants.push((t, counts.og));
            }
        }
    }
    mutants.sort_unstable();
    mutants.dedup();
    mutants
}

/// Definition 2.2 read off the table, the oracle for [`mutant_tiles`]: every
/// observed tile other than `(a1, a2)` whose first k-mer is within `d₁` of
/// `α₁` and whose second is within `d₂` of `α₂`, whatever its `O_g`.
#[cfg(test)]
fn definitional_mutant_tiles(
    a1: Kmer,
    a2: Kmer,
    (d1, d2): (usize, usize),
    params: &ReptileParams,
    tiles: &TileTable,
) -> Vec<(Tile, u32)> {
    let (k, l) = (params.k, params.tile_overlap);
    let original = compose_tile(a1, a2, k, l).expect("read-derived tile must be consistent");
    tiles
        .iter()
        .filter(|&(t, counts)| {
            let (first, second) = ngs_kmer::tile::split_tile(t, k, l);
            counts.oc > 0
                && t != original
                && hamming_distance(first, a1) as usize <= d1
                && hamming_distance(second, a2) as usize <= d2
        })
        .map(|(t, counts)| (t, counts.og))
        .collect()
}

/// Positions (within the tile) where `a` and `b` differ, ascending.
pub fn differing_positions(a: Tile, b: Tile, m: usize) -> impl Iterator<Item = usize> {
    (0..m).filter(move |&i| packed_base(a, m, i) != packed_base(b, m, i))
}

/// Algorithm 1: decide the fate of the tile `(a1, a2)` as read from a read,
/// given the read's quality scores over the tile span (`None` when the
/// dataset has no qualities).
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's inputs
pub fn correct_tile(
    a1: Kmer,
    a2: Kmer,
    d1: usize,
    d2: usize,
    tile_quals: Option<&[u8]>,
    params: &ReptileParams,
    tiles: &TileTable,
    index: &NeighborIndex<'_>,
    scratch: &mut TileScratch,
) -> TileDecision {
    let t = compose_tile(a1, a2, params.k, params.tile_overlap)
        .expect("read-derived tile must be consistent");
    let og = tiles.og(t);

    // Lines 1–3: unconditional validation above Cg.
    if og >= params.cg {
        return TileDecision::Valid;
    }

    let need = evidence_floor(og, params);
    mutant_tiles(a1, a2, (d1, d2), need, params, tiles, index, scratch);
    decide_from(t, og, &scratch.mutants, tile_quals, params)
}

/// Algorithm 1 from line 4 on: the fate of tile `t`, whose high-quality
/// count `og` is below `C_g`, given its observed d-mutant tiles.
fn decide_from(
    t: Tile,
    og: u32,
    mutants: &[(Tile, u32)],
    tile_quals: Option<&[u8]>,
    params: &ReptileParams,
) -> TileDecision {
    // Lines 4–9: no mutant tiles.
    if mutants.is_empty() {
        return if og >= params.cm { TileDecision::Valid } else { TileDecision::Unresolved };
    }

    if og >= params.cm {
        // Lines 10–15: moderately supported tile; correct only on compelling
        // relative evidence: the one strong mutant closest to the tile.
        let threshold = (og as f64) * params.cr;
        let strong = mutants.iter().filter(|&&(_, mog)| mog as f64 >= threshold);
        let Some(min_d) = strong.clone().map(|&(mt, _)| hamming_distance(t, mt)).min() else {
            return TileDecision::Valid;
        };
        let mut closest = strong.filter(|&&(mt, _)| hamming_distance(t, mt) == min_d);
        let (Some(&(target, _)), None) = (closest.next(), closest.next()) else {
            return TileDecision::Unresolved;
        };
        // Quality gate: at least one corrected base must be low-quality.
        if let Some(quals) = tile_quals {
            let touched_lowq = differing_positions(t, target, params.tile_len())
                .any(|i| quals.get(i).is_none_or(|&q| q < params.qm));
            if !touched_lowq {
                return TileDecision::Unresolved;
            }
        }
        TileDecision::Corrected { tile: target }
    } else {
        // Lines 16–21: weakly supported tile; correct only to a unique
        // strong mutant.
        let mut strong = mutants.iter().filter(|&&(_, mog)| mog >= params.cm);
        match (strong.next(), strong.next()) {
            (Some(&(tile, _)), None) => TileDecision::Corrected { tile },
            _ => TileDecision::Unresolved,
        }
    }
}

/// Debug helper: render a packed tile as ASCII (used in tests and traces).
pub fn tile_string(t: Tile, m: usize) -> String {
    String::from_utf8(decode_kmer(t, m)).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchors;
    use ngs_core::Read;
    use ngs_kmer::neighbor::NeighborStrategy;
    use ngs_kmer::packed::{encode_kmer, mutate_base};
    use ngs_kmer::tile::split_tile;
    use ngs_kmer::{KSpectrum, TileCounts, TileEntry};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Build a tiny corpus where `good` occurs `n_good` times and `bad`
    /// occurs once, then return everything a tile decision needs.
    struct Fixture {
        params: ReptileParams,
        anchors: KSpectrum,
        tiles: TileTable,
    }

    fn fixture(reads: Vec<Read>, k: usize) -> Fixture {
        let mut params = ReptileParams::defaults(1 << (2 * k));
        params.k = k;
        params.tile_overlap = 0;
        params.cg = 8;
        params.cm = 2;
        params.cr = 2.0;
        params.qm = u8::MAX; // no quality gating in these tests
        let tiles = TileTable::build(&reads, k, 0, 0);
        Fixture { anchors: anchors(&tiles, params.cm), params, tiles }
    }

    fn decide(f: &Fixture, a1: &[u8], a2: &[u8], d: usize) -> TileDecision {
        let index = NeighborIndex::build(
            &f.anchors,
            d,
            NeighborStrategy::MaskedReplicas { chunks: f.params.neighbor_chunks() },
        );
        correct_tile(
            encode_kmer(a1).unwrap(),
            encode_kmer(a2).unwrap(),
            d,
            d,
            None,
            &f.params,
            &f.tiles,
            &index,
            &mut TileScratch::default(),
        )
    }

    fn repeat_reads(seq: &[u8], n: usize) -> Vec<Read> {
        (0..n).map(|i| Read::new(format!("r{i}"), seq)).collect()
    }

    #[test]
    fn high_count_tile_validated() {
        let f = fixture(repeat_reads(b"ACGTATTGCA", 10), 5);
        assert_eq!(decide(&f, b"ACGTA", b"TTGCA", 1), TileDecision::Valid);
    }

    #[test]
    fn lone_tile_with_no_neighbors_unresolved() {
        let mut reads = repeat_reads(b"ACGTATTGCA", 1);
        reads.push(Read::new("far", b"GGGGGGGGGG"));
        let f = fixture(reads, 5);
        // Og = 1 < Cm = 2, no mutant tiles anywhere near.
        assert_eq!(decide(&f, b"ACGTA", b"TTGCA", 1), TileDecision::Unresolved);
    }

    #[test]
    fn erroneous_tile_corrected_to_dominant() {
        // 9 clean copies, 1 copy with an error in the second k-mer.
        let mut reads = repeat_reads(b"ACGTATTGCA", 9);
        reads.push(Read::new("err", b"ACGTATTGGA"));
        let f = fixture(reads, 5);
        match decide(&f, b"ACGTA", b"TTGGA", 1) {
            TileDecision::Corrected { tile } => {
                assert_eq!(tile_string(tile, 10), "ACGTATTGCA");
            }
            other => panic!("expected correction, got {other:?}"),
        }
    }

    #[test]
    fn error_in_first_kmer_corrected() {
        let mut reads = repeat_reads(b"ACGTATTGCA", 9);
        reads.push(Read::new("err", b"ACTTATTGCA"));
        let f = fixture(reads, 5);
        match decide(&f, b"ACTTA", b"TTGCA", 1) {
            TileDecision::Corrected { tile } => {
                assert_eq!(tile_string(tile, 10), "ACGTATTGCA");
            }
            other => panic!("expected correction, got {other:?}"),
        }
    }

    #[test]
    fn ambiguous_equidistant_targets_unresolved() {
        // Two equally strong variants, the query sits one substitution from
        // each: contextual ambiguity must block correction (Fig. 2.1's α₂
        // vs α₂″ without context).
        let mut reads = repeat_reads(b"ACGTATTGCA", 6);
        reads.extend(repeat_reads(b"ACGTATTACA", 6));
        reads.push(Read::new("err", b"ACGTATTCCA"));
        let f = fixture(reads, 5);
        // TTCCA is distance 1 from both TTGCA and TTACA.
        assert_eq!(decide(&f, b"ACGTA", b"TTCCA", 1), TileDecision::Unresolved);
    }

    #[test]
    fn context_disambiguates_variants() {
        // Same two variants, but the first k-mer context only co-occurs with
        // one of them — the d-mutant tile through the other context does not
        // exist in the tile table, so correction succeeds.
        let mut reads = repeat_reads(b"ACGTATTGCA", 6); // context ACGTA + TTGCA
        reads.extend(repeat_reads(b"TTTTATTACA", 6)); // context TTTTA + TTACA
        reads.push(Read::new("err", b"ACGTATTCCA"));
        let f = fixture(reads, 5);
        match decide(&f, b"ACGTA", b"TTCCA", 1) {
            TileDecision::Corrected { tile } => {
                assert_eq!(tile_string(tile, 10), "ACGTATTGCA");
            }
            other => panic!("expected contextual correction, got {other:?}"),
        }
    }

    #[test]
    fn moderate_tile_without_stronger_mutant_valid() {
        // Tile occurs 3 times (>= Cm), a mutant occurs 4 times (< Cr ratio).
        let mut reads = repeat_reads(b"ACGTATTGCA", 3);
        reads.extend(repeat_reads(b"ACGTATTGGA", 4));
        let f = fixture(reads, 5);
        assert_eq!(decide(&f, b"ACGTA", b"TTGCA", 1), TileDecision::Valid);
    }

    #[test]
    fn quality_gate_blocks_high_quality_corrections() {
        // The erroneous tile occurs Cm times so Algorithm 1 takes the
        // moderately-supported branch, which is the one with the quality
        // gate (the low-count branch corrects unconditionally).
        let mut reads = repeat_reads(b"ACGTATTGCA", 9);
        reads.push(Read::new("err1", b"ACGTATTGGA"));
        reads.push(Read::new("err2", b"ACGTATTGGA"));
        let mut f = fixture(reads, 5);
        f.params.qm = 10; // corrections must touch a base with q < 10
        let index =
            NeighborIndex::build(&f.anchors, 1, NeighborStrategy::MaskedReplicas { chunks: 5 });
        let quals = vec![30u8; 10]; // all bases high quality
        let dec = correct_tile(
            encode_kmer(b"ACGTA").unwrap(),
            encode_kmer(b"TTGGA").unwrap(),
            1,
            1,
            Some(&quals),
            &f.params,
            &f.tiles,
            &index,
            &mut TileScratch::default(),
        );
        assert_eq!(dec, TileDecision::Unresolved);
    }

    fn masked_index<'s>(spectrum: &'s KSpectrum, params: &ReptileParams) -> NeighborIndex<'s> {
        let strategy = NeighborStrategy::MaskedReplicas { chunks: params.neighbor_chunks() };
        NeighborIndex::build(spectrum, params.d, strategy)
    }

    /// For every placement of every query read, with `d₁ = 0` and `d₁ = d`,
    /// against Definition 2.2 read off `tiles`: (i) the run scan at the
    /// placement's evidence floor lists exactly the definitional mutants at
    /// or above it, and counts what it did; (ii) Algorithm 1 decides from
    /// those as it decides from all of them — the exactness of the floor —
    /// and `correct_tile` returns that decision; (iii) when `reads_spectrum`
    /// is given (the both-strand k-spectrum of the reads `tiles` was built
    /// from), the product enumeration over it lists all of them, so asking
    /// for observed second k-mers beside observed tiles added nothing.
    fn assert_matches_reference(
        params: &ReptileParams,
        tiles: &TileTable,
        queries: &[Read],
        reads_spectrum: Option<&KSpectrum>,
    ) {
        let anchors = anchors(tiles, params.cm);
        let index = masked_index(&anchors, params);
        let product_index = reads_spectrum.map(|spectrum| masked_index(spectrum, params));
        let (k, m, d) = (params.k, params.tile_len(), params.d);
        let mut scratch = TileScratch::default();
        for r in queries {
            for q in 0..=r.len().saturating_sub(m) {
                let Some(span) = r.seq.get(q..q + m) else { continue };
                let (Some(a1), Some(a2)) = (encode_kmer(&span[..k]), encode_kmer(&span[m - k..]))
                else {
                    continue;
                };
                let quals = r.qual.as_deref().map(|v| &v[q..q + m]);
                let t = compose_tile(a1, a2, k, params.tile_overlap).unwrap();
                let og = tiles.og(t);
                let need = evidence_floor(og, params);
                assert!(need >= params.cm as f64);
                for d1 in [0, d] {
                    let ctx = format!("read {} at {q}, d1={d1}", r.id);
                    let all = definitional_mutant_tiles(a1, a2, (d1, d), params, tiles);
                    let want: Vec<_> =
                        all.iter().copied().filter(|&(_, mog)| mog as f64 >= need).collect();
                    let before = scratch.stats;
                    mutant_tiles(a1, a2, (d1, d), need, params, tiles, &index, &mut scratch);
                    assert_eq!(scratch.mutants, want, "{ctx}");
                    let cost = scratch.stats;
                    assert_eq!(cost.enumerations, before.enumerations + 1, "{ctx}");
                    assert_eq!(
                        cost.neighbor_probes,
                        before.neighbor_probes + u64::from(d1 > 0),
                        "{ctx}"
                    );
                    assert_eq!(cost.mutants_found, before.mutants_found + want.len() as u64);
                    assert!(cost.tile_runs_scanned > before.tile_runs_scanned, "{ctx}");
                    if d1 == 0 {
                        assert_eq!(cost.tile_runs_scanned, before.tile_runs_scanned + 1, "{ctx}");
                    }

                    let decision = decide_from(t, og, &all, quals, params);
                    assert_eq!(decide_from(t, og, &want, quals, params), decision, "{ctx}");
                    let expect = if og >= params.cg { TileDecision::Valid } else { decision };
                    let got =
                        correct_tile(a1, a2, d1, d, quals, params, tiles, &index, &mut scratch);
                    assert_eq!(got, expect, "{ctx}");

                    if let Some(product_index) = &product_index {
                        let product =
                            reference_mutant_tiles(a1, a2, (d1, d), params, tiles, product_index);
                        assert_eq!(product, all, "{ctx}");
                    }
                }
            }
        }
    }

    /// splitmix64, so a failing case prints a seed instead of its reads.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_genome(len: usize, rng: &mut u64) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[(next(rng) % 4) as usize]).collect()
    }

    /// Reads off `genome` with one base in twelve substituted, so observed
    /// neighbours and mutant tiles are plentiful, and one in sixty an `N`.
    fn noisy_reads(
        genome: &[u8],
        n: usize,
        read_len: usize,
        with_quals: bool,
        rng: &mut u64,
    ) -> Vec<Read> {
        (0..n)
            .map(|i| {
                let at = (next(rng) % (genome.len() - read_len + 1) as u64) as usize;
                let mut seq = genome[at..at + read_len].to_vec();
                for b in seq.iter_mut() {
                    if next(rng).is_multiple_of(12) {
                        *b = b"ACGT"[(next(rng) % 4) as usize];
                    }
                    if next(rng).is_multiple_of(60) {
                        *b = b'N';
                    }
                }
                if with_quals {
                    let qual = (0..read_len).map(|_| 10 + (next(rng) % 30) as u8).collect();
                    Read::with_qual(format!("r{i}"), seq, qual)
                } else {
                    Read::new(format!("r{i}"), seq)
                }
            })
            .collect()
    }

    /// `tiles` as no read set would leave it: some entries with `O_c = 0`,
    /// and extra tiles whose second k-mer was mutated and so need not occur
    /// in any read.
    fn tampered(tiles: &TileTable, rng: &mut u64) -> TileTable {
        let (k, l) = (tiles.k(), tiles.overlap());
        let mut entries: BTreeMap<Tile, TileCounts> = tiles.iter().collect();
        for (t, c) in tiles.iter() {
            match next(rng) % 8 {
                0 => entries.insert(t, TileCounts { oc: 0, og: c.og }),
                1 => {
                    let (a1, a2) = split_tile(t, k, l);
                    // Mutate outside the overlap, so the pair still composes.
                    let at = l + (next(rng) % (k - l) as u64) as usize;
                    let m2 = mutate_base(a2, k, at, 1 + (next(rng) % 3) as u8);
                    let extra = compose_tile(a1, m2, k, l).unwrap();
                    let og = (next(rng) % 12) as u32;
                    entries.entry(extra).or_insert(TileCounts { oc: og + 1, og });
                    None
                }
                _ => None,
            };
        }
        let entries = entries.into_iter().map(|(tile, counts)| TileEntry { tile, counts });
        TileTable::from_sorted(k, l, entries.collect()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// ROADMAP 4(a): the floor-bounded run scan against Definition 2.2
        /// and, where a k-spectrum of the reads exists, the product
        /// enumeration against the same — reads of the index, reads near it
        /// and reads the index never saw, over the built table and over one
        /// no read set would leave.
        #[test]
        fn run_scan_enumeration_matches_product_enumeration(
            k in 3usize..=8,
            l in 0usize..=2,
            d in 1usize..=2,
            with_quals in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            let mut params = ReptileParams::defaults(1 << (2 * k));
            params.k = k;
            params.d = d;
            params.tile_overlap = l;
            params.cg = 6;
            params.cm = 2;
            params.qc = if with_quals { 20 } else { 0 };
            params.qm = if with_quals { 25 } else { u8::MAX };
            params.validate();
            let read_len = params.tile_len() + 6;
            let genome = random_genome(5 * read_len, &mut rng);
            let reads = noisy_reads(&genome, 90, read_len, with_quals, &mut rng);
            let spectrum = KSpectrum::from_reads_both_strands(&reads, k);
            let tiles = TileTable::build(&reads, k, l, params.qc);

            let mut queries = reads.clone();
            // Near the index: fresh draws off the same genome, noisier.
            let near = noisy_reads(&genome, 20, read_len, with_quals, &mut rng);
            queries.extend(noisy_reads(&near[0].seq, 6, read_len, with_quals, &mut rng));
            queries.extend(near);
            // Absent from it: another genome (the `ngs-serve` case).
            let elsewhere = random_genome(2 * read_len, &mut rng);
            queries.extend(noisy_reads(&elsewhere, 10, read_len, with_quals, &mut rng));
            assert_matches_reference(&params, &tiles, &queries, Some(&spectrum));
            assert_matches_reference(&params, &tampered(&tiles, &mut rng), &queries, None);
        }
    }

    /// What the run scan keeps of a table assembled entry by entry. A tile
    /// whose second k-mer no read holds is a tile of the table all the same:
    /// the scan and the definitional oracle agree that it is a mutant (the
    /// product enumeration over the reads' k-spectrum never proposed it, and
    /// no built table holds one). An entry with no occurrences is none.
    #[test]
    fn run_scan_keeps_the_spectrum_and_zero_count_rules() {
        let mut reads = repeat_reads(b"ACGTATTGCA", 9);
        reads.push(Read::new("err", b"ACGTATTGGA"));
        let f = fixture(reads.clone(), 5);
        let spectrum = KSpectrum::from_reads_both_strands(&reads, 5);
        let tile = |s: &[u8]| encode_kmer(s).unwrap();
        let (a1, a2) = (tile(b"ACGTA"), tile(b"TTGGA"));
        let good = tile(b"ACGTATTGCA");
        let assemble = |change: &dyn Fn(&mut BTreeMap<Tile, TileCounts>)| {
            let mut entries: BTreeMap<Tile, TileCounts> = f.tiles.iter().collect();
            change(&mut entries);
            let entries = entries.into_iter().map(|(tile, counts)| TileEntry { tile, counts });
            TileTable::from_sorted(5, 0, entries.collect()).unwrap()
        };
        let need = f.params.cm as f64;
        let enumerate = |tiles: &TileTable| {
            let anchors = anchors(tiles, f.params.cm);
            let index = masked_index(&anchors, &f.params);
            let mut scratch = TileScratch::default();
            mutant_tiles(a1, a2, (1, 1), need, &f.params, tiles, &index, &mut scratch);
            let mut want = definitional_mutant_tiles(a1, a2, (1, 1), &f.params, tiles);
            want.retain(|&(_, og)| og as f64 >= need);
            assert_eq!(scratch.mutants, want);
            want
        };
        assert_eq!(enumerate(&f.tiles), vec![(good, 9)]);

        // A strong tile one base from the query whose second k-mer no read
        // holds: a probe of the spectrum's neighbours never proposes it.
        let unseen = tile(b"ACGTATTGGC");
        assert!(!spectrum.contains(tile(b"TTGGC")));
        let with_unseen = assemble(&|e| {
            e.insert(unseen, TileCounts { oc: 9, og: 9 });
        });
        assert_eq!(enumerate(&with_unseen), vec![(good, 9), (unseen, 9)]);
        let product_index = masked_index(&spectrum, &f.params);
        assert_eq!(
            reference_mutant_tiles(a1, a2, (1, 1), &f.params, &with_unseen, &product_index),
            vec![(good, 9)]
        );

        // An entry with no occurrences is no observed tile.
        let zeroed = assemble(&|e| {
            e.insert(good, TileCounts { oc: 0, og: 9 });
        });
        assert!(zeroed.first_kmer_run(a1).iter().any(|e| e.tile == good));
        assert_eq!(enumerate(&zeroed), vec![]);
    }

    #[test]
    fn differing_positions_reported() {
        let a = encode_kmer(b"ACGTAA").unwrap();
        let b = encode_kmer(b"ACCTAT").unwrap();
        assert_eq!(differing_positions(a, b, 6).collect::<Vec<_>>(), vec![2, 5]);
    }
}
