//! HDFS-lite: a miniature block store.
//!
//! §1.3.1 describes the parts of HDFS that matter to the dataflow: "Every
//! file in HDFS is divided into physical blocks, distributed among
//! different nodes, termed DataNode. The metadata recording the block
//! locations for each file is stored in a NameNode … To tolerate node
//! failure, file blocks are duplicated in the system." This module models
//! that structure on one machine — fixed-size blocks, round-robin
//! placement over simulated data nodes, a replication factor, and a
//! name-node table mapping file → block locations — including the repair
//! half of the contract:
//!
//! * every block carries a checksum, verified on [`BlockStore::read`]
//!   (a corrupt replica is skipped, not returned);
//! * [`BlockStore::fail_node`] marks a node dead; [`BlockStore::re_replicate`]
//!   then copies under-replicated blocks from surviving replicas onto
//!   live nodes, restoring the replication factor — HDFS's NameNode
//!   re-replication on DataNode loss;
//! * [`BlockStore::scrub`] sweeps all replicas against their checksums
//!   and drops corrupt copies, the analogue of the HDFS block scanner.
//!
//! It backs the spill path in tests and lets the CLOSET driver report
//! HDFS-style storage and recovery counters.

use crate::codec::checksum;
use std::collections::BTreeMap;

/// Block store configuration.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Block size in bytes (Hadoop default 64 MB; tests use tiny blocks).
    pub block_size: usize,
    /// Copies kept of every block.
    pub replication: usize,
    /// Simulated data nodes.
    pub data_nodes: usize,
}

impl Default for DfsConfig {
    fn default() -> DfsConfig {
        DfsConfig { block_size: 64 << 20, replication: 2, data_nodes: 32 }
    }
}

/// Metadata for one stored block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Index of the block within its file.
    pub index: usize,
    /// Data nodes holding a replica.
    pub replicas: Vec<usize>,
    /// Payload length (≤ block size).
    pub len: usize,
    /// [`checksum`] of the payload, fixed at write time.
    pub checksum: u64,
}

/// An in-memory block store with HDFS-like placement and repair.
pub struct BlockStore {
    cfg: DfsConfig,
    /// "NameNode": file name → block metadata.
    namenode: BTreeMap<String, Vec<BlockMeta>>,
    /// "DataNodes": per-node block payloads keyed by (file, index).
    datanodes: Vec<BTreeMap<(String, usize), Vec<u8>>>,
    /// Liveness per node; dead nodes receive no new replicas.
    alive: Vec<bool>,
    next_node: usize,
    re_replicated_total: u64,
}

impl BlockStore {
    /// Create an empty store.
    ///
    /// # Panics
    /// Panics when replication exceeds the node count or any dimension is 0.
    pub fn new(cfg: DfsConfig) -> BlockStore {
        assert!(cfg.block_size > 0 && cfg.data_nodes > 0 && cfg.replication > 0);
        assert!(cfg.replication <= cfg.data_nodes, "replication exceeds node count");
        let datanodes = (0..cfg.data_nodes).map(|_| BTreeMap::new()).collect();
        let alive = vec![true; cfg.data_nodes];
        BlockStore {
            cfg,
            namenode: BTreeMap::new(),
            datanodes,
            alive,
            next_node: 0,
            re_replicated_total: 0,
        }
    }

    /// Live data nodes, in index order.
    fn live_nodes(&self) -> Vec<usize> {
        (0..self.cfg.data_nodes).filter(|&n| self.alive[n]).collect()
    }

    /// Store `data` under `name`, splitting into blocks and replicating
    /// across live nodes. Overwrites any existing file of the same name.
    ///
    /// Returns the replication actually achieved per block: the configured
    /// factor when enough live nodes remain, otherwise the live-node count
    /// (0 when every node is dead — the metadata is recorded but the
    /// payload is lost). A degraded write is never silent: the deficit is
    /// visible through [`BlockStore::under_replicated`] and repairable by
    /// [`BlockStore::re_replicate`] once spare live nodes exist, mirroring
    /// how HDFS accepts writes below the target factor and lets the
    /// NameNode heal them later.
    #[must_use = "fewer live nodes than the replication factor degrade the write; check the achieved replication"]
    pub fn write(&mut self, name: &str, data: &[u8]) -> usize {
        self.delete(name);
        let live = self.live_nodes();
        let achieved = self.cfg.replication.min(live.len());
        let mut metas = Vec::new();
        for (index, chunk) in data.chunks(self.cfg.block_size.max(1)).enumerate() {
            let mut replicas = Vec::with_capacity(achieved);
            for r in 0..achieved {
                let node = live[(self.next_node + r) % live.len()];
                self.datanodes[node].insert((name.to_string(), index), chunk.to_vec());
                replicas.push(node);
            }
            self.next_node = (self.next_node + 1) % live.len().max(1);
            metas.push(BlockMeta { index, replicas, len: chunk.len(), checksum: checksum(chunk) });
        }
        // Zero-length files still need a metadata entry.
        self.namenode.insert(name.to_string(), metas);
        achieved
    }

    /// Read a file back, concatenating its blocks. Each block comes from
    /// the first replica whose payload exists *and* matches the block
    /// checksum. A checksum mismatch is not just skipped: the corrupt
    /// replica is dropped on the spot and, once the read completes, the
    /// damaged blocks are re-replicated from their surviving intact copies
    /// (scrub-on-read — HDFS reports a corrupt replica to the NameNode
    /// when a client read trips over it, rather than waiting for the next
    /// scanner sweep). Healed blocks show up in
    /// [`BlockStore::re_replicated_blocks`]. `None` when the file is
    /// unknown or some block has no intact replica left — corrupt copies
    /// of such blocks are still dropped, so the damage is visible to
    /// [`BlockStore::under_replicated`] instead of lingering as garbage.
    pub fn read(&mut self, name: &str) -> Option<Vec<u8>> {
        let metas = self.namenode.get_mut(name)?;
        let mut out = Some(Vec::new());
        let mut scrubbed = false;
        for meta in metas {
            let key = (name.to_string(), meta.index);
            let mut chunk = None;
            let datanodes = &mut self.datanodes;
            meta.replicas.retain(|&node| {
                if chunk.is_some() {
                    return true; // already served; leave the tail unverified
                }
                match datanodes[node].get(&key) {
                    Some(payload) if checksum(payload) == meta.checksum => {
                        chunk = Some(payload.clone());
                        true
                    }
                    Some(_) => {
                        // Verified corrupt: drop the copy now so repair can
                        // see the deficit.
                        datanodes[node].remove(&key);
                        scrubbed = true;
                        false
                    }
                    None => false, // lost with its node; nothing to drop
                }
            });
            match (chunk, &mut out) {
                (Some(chunk), Some(out)) => out.extend_from_slice(&chunk),
                // Keep scanning the remaining blocks even after the read
                // has failed: their corrupt replicas should be dropped too.
                _ => out = None,
            }
        }
        if scrubbed {
            self.re_replicate();
        }
        out
    }

    /// Remove a file and its blocks.
    pub fn delete(&mut self, name: &str) {
        if let Some(metas) = self.namenode.remove(name) {
            for meta in metas {
                for &node in &meta.replicas {
                    self.datanodes[node].remove(&(name.to_string(), meta.index));
                }
            }
        }
    }

    /// Simulate a data-node failure: the node is marked dead and all its
    /// blocks vanish. Files remain readable while every block retains at
    /// least one live replica; call [`BlockStore::re_replicate`] to
    /// restore full redundancy before the next failure.
    pub fn fail_node(&mut self, node: usize) {
        if let Some(n) = self.datanodes.get_mut(node) {
            n.clear();
            self.alive[node] = false;
        }
    }

    /// Blocks currently holding fewer intact replicas than the
    /// replication factor.
    pub fn under_replicated(&self) -> usize {
        self.namenode
            .iter()
            .flat_map(|(name, metas)| metas.iter().map(move |m| (name, m)))
            .filter(|(name, meta)| {
                let intact = meta
                    .replicas
                    .iter()
                    .filter(|&&node| {
                        self.alive[node]
                            && self.datanodes[node]
                                .get(&(name.to_string(), meta.index))
                                .is_some_and(|p| checksum(p) == meta.checksum)
                    })
                    .count();
                intact < self.cfg.replication
            })
            .count()
    }

    /// Restore full replication after node failures or scrubbed
    /// corruption: for every under-replicated block with at least one
    /// intact replica, copy the payload onto live nodes that lack it.
    /// Returns the number of blocks repaired; blocks with no intact
    /// replica are unrecoverable and left as-is.
    pub fn re_replicate(&mut self) -> usize {
        let mut repaired = 0;
        let replication = self.cfg.replication;
        let live: Vec<usize> = (0..self.cfg.data_nodes).filter(|&n| self.alive[n]).collect();
        for (name, metas) in self.namenode.iter_mut() {
            for meta in metas.iter_mut() {
                let key = (name.clone(), meta.index);
                // Keep only replicas that are live, present, and intact.
                let datanodes = &self.datanodes;
                meta.replicas.retain(|&node| {
                    self.alive[node]
                        && datanodes[node].get(&key).is_some_and(|p| checksum(p) == meta.checksum)
                });
                if meta.replicas.len() >= replication {
                    continue;
                }
                let Some(&source) = meta.replicas.first() else {
                    continue; // no intact copy survives: data lost
                };
                let payload = self.datanodes[source][&key].clone();
                let before = meta.replicas.len();
                for &node in &live {
                    if meta.replicas.len() >= replication {
                        break;
                    }
                    if meta.replicas.contains(&node) {
                        continue;
                    }
                    self.datanodes[node].insert(key.clone(), payload.clone());
                    meta.replicas.push(node);
                }
                // Only count blocks that actually gained a replica; with no
                // spare live node there is nothing to repair onto.
                if meta.replicas.len() > before {
                    repaired += 1;
                    self.re_replicated_total += 1;
                }
            }
        }
        repaired
    }

    /// Verify every stored replica against its block checksum, dropping
    /// corrupt copies (the HDFS block scanner). Returns the number of
    /// replicas dropped; follow with [`BlockStore::re_replicate`] to
    /// restore redundancy from the surviving copies.
    pub fn scrub(&mut self) -> usize {
        let mut dropped = 0;
        for (name, metas) in self.namenode.iter_mut() {
            for meta in metas.iter_mut() {
                let key = (name.clone(), meta.index);
                let datanodes = &mut self.datanodes;
                meta.replicas.retain(|&node| {
                    let intact =
                        datanodes[node].get(&key).is_some_and(|p| checksum(p) == meta.checksum);
                    if !intact {
                        datanodes[node].remove(&key);
                        dropped += 1;
                    }
                    intact
                });
            }
        }
        dropped
    }

    /// Deliberately corrupt one replica's payload (test instrumentation
    /// for the scrub/read verification paths). Returns `false` when the
    /// replica does not exist.
    pub fn corrupt_replica(&mut self, name: &str, index: usize, node: usize) -> bool {
        match self.datanodes.get_mut(node).and_then(|n| n.get_mut(&(name.to_string(), index))) {
            Some(payload) => {
                if payload.is_empty() {
                    payload.push(0xFF);
                } else {
                    payload[0] ^= 0xFF;
                }
                true
            }
            None => false,
        }
    }

    /// Number of stored files.
    pub fn file_count(&self) -> usize {
        self.namenode.len()
    }

    /// Total bytes held across all data nodes (including replication).
    pub fn stored_bytes(&self) -> u64 {
        self.datanodes.iter().map(|n| n.values().map(|v| v.len() as u64).sum::<u64>()).sum()
    }

    /// Blocks restored to full replication over this store's lifetime
    /// (for [`crate::JobStats::re_replicated_blocks`]).
    pub fn re_replicated_blocks(&self) -> u64 {
        self.re_replicated_total
    }

    /// Block metadata for a file.
    pub fn blocks_of(&self, name: &str) -> Option<&[BlockMeta]> {
        self.namenode.get(name).map(|v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_store(replication: usize) -> BlockStore {
        BlockStore::new(DfsConfig { block_size: 8, replication, data_nodes: 4 })
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = tiny_store(2);
        let data: Vec<u8> = (0..37).collect();
        assert_eq!(s.write("f", &data), 2);
        assert_eq!(s.read("f"), Some(data));
        assert_eq!(s.blocks_of("f").unwrap().len(), 5); // ceil(37/8)
    }

    #[test]
    fn replication_doubles_storage() {
        let mut s = tiny_store(2);
        assert_eq!(s.write("f", &[0u8; 32]), 2);
        assert_eq!(s.stored_bytes(), 64);
    }

    #[test]
    fn survives_single_node_failure() {
        let mut s = tiny_store(2);
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        assert_eq!(s.write("f", &data), 2);
        s.fail_node(0);
        assert_eq!(s.read("f"), Some(data));
    }

    #[test]
    fn unreplicated_store_loses_data_on_failure() {
        let mut s = tiny_store(1);
        assert_eq!(s.write("f", &[1u8; 32]), 1);
        // Some block lives on node 0 with replication 1; failing enough
        // nodes must eventually lose the file.
        for node in 0..4 {
            s.fail_node(node);
        }
        assert_eq!(s.read("f"), None);
    }

    #[test]
    fn delete_frees_space() {
        let mut s = tiny_store(2);
        assert_eq!(s.write("f", &[0u8; 32]), 2);
        s.delete("f");
        assert_eq!(s.stored_bytes(), 0);
        assert_eq!(s.read("f"), None);
        assert_eq!(s.file_count(), 0);
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut s = tiny_store(2);
        assert_eq!(s.write("f", b"first content here"), 2);
        assert_eq!(s.write("f", b"second"), 2);
        assert_eq!(s.read("f"), Some(b"second".to_vec()));
        assert_eq!(s.file_count(), 1);
    }

    #[test]
    fn empty_file_supported() {
        let mut s = tiny_store(2);
        assert_eq!(s.write("empty", b""), 2);
        assert_eq!(s.read("empty"), Some(Vec::new()));
        assert_eq!(s.file_count(), 1);
    }

    #[test]
    #[should_panic(expected = "replication exceeds node count")]
    fn over_replication_rejected() {
        BlockStore::new(DfsConfig { block_size: 8, replication: 9, data_nodes: 4 });
    }

    #[test]
    fn re_replication_survives_second_failure() {
        let mut s = tiny_store(2);
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        assert_eq!(s.write("f", &data), 2);
        // First failure: still readable, but under-replicated.
        s.fail_node(0);
        assert!(s.under_replicated() > 0);
        let repaired = s.re_replicate();
        assert!(repaired > 0);
        assert_eq!(s.under_replicated(), 0);
        assert_eq!(s.re_replicated_blocks(), repaired as u64);
        // Second failure: every block still has an intact live replica.
        s.fail_node(1);
        assert_eq!(s.read("f"), Some(data));
    }

    #[test]
    fn without_re_replication_two_failures_can_lose_data() {
        // Control for the test above: replicas land on consecutive nodes,
        // so failing both copies of some block loses the file.
        let mut s = tiny_store(2);
        assert_eq!(s.write("f", &[7u8; 32]), 2);
        s.fail_node(0);
        s.fail_node(1);
        let lost = s.read("f").is_none();
        let under = s.under_replicated();
        assert!(lost || under > 0, "two failures must leave damage without repair");
    }

    #[test]
    fn read_skips_corrupt_replica() {
        let mut s = tiny_store(2);
        let data: Vec<u8> = (100..164).collect();
        assert_eq!(s.write("f", &data), 2);
        let node = s.blocks_of("f").unwrap()[0].replicas[0];
        assert!(s.corrupt_replica("f", 0, node));
        // First replica is corrupt; the checksum check falls through to
        // the intact copy.
        assert_eq!(s.read("f"), Some(data));
    }

    #[test]
    fn read_scrubs_corrupt_replica_and_heals_in_place() {
        let mut s = tiny_store(2);
        let data: Vec<u8> = (0..40).collect();
        assert_eq!(s.write("f", &data), 2);
        let node = s.blocks_of("f").unwrap()[2].replicas[0];
        assert!(s.corrupt_replica("f", 2, node));
        // The read serves intact bytes AND repairs as a side effect: the
        // corrupt copy is dropped and the block re-replicated from the
        // surviving replica, without an explicit scrub() sweep.
        assert_eq!(s.read("f"), Some(data.clone()));
        assert_eq!(s.re_replicated_blocks(), 1);
        assert_eq!(s.under_replicated(), 0);
        assert_eq!(s.blocks_of("f").unwrap()[2].replicas.len(), 2);
        // Every surviving replica of the healed block passes its checksum.
        for &n in &s.blocks_of("f").unwrap()[2].replicas.clone() {
            let payload = s.datanodes[n][&("f".to_string(), 2)].clone();
            assert_eq!(checksum(&payload), s.blocks_of("f").unwrap()[2].checksum);
        }
        // A second read needs no further repair.
        assert_eq!(s.read("f"), Some(data));
        assert_eq!(s.re_replicated_blocks(), 1);
    }

    #[test]
    fn read_with_no_intact_replica_drops_garbage_and_reports_loss() {
        let mut s = tiny_store(2);
        assert_eq!(s.write("f", &[9u8; 20]), 2);
        let replicas = s.blocks_of("f").unwrap()[0].replicas.clone();
        for node in replicas {
            assert!(s.corrupt_replica("f", 0, node));
        }
        // Both copies corrupt: the read fails rather than returning
        // garbage, and the verified-corrupt copies are gone.
        assert_eq!(s.read("f"), None);
        assert!(s.blocks_of("f").unwrap()[0].replicas.is_empty());
        assert!(s.under_replicated() > 0);
    }

    #[test]
    fn scrub_drops_corrupt_copies_and_re_replication_heals() {
        let mut s = tiny_store(2);
        assert_eq!(s.write("f", &[3u8; 40]), 2);
        let node = s.blocks_of("f").unwrap()[1].replicas[1];
        assert!(s.corrupt_replica("f", 1, node));
        assert_eq!(s.scrub(), 1);
        assert_eq!(s.under_replicated(), 1);
        assert_eq!(s.re_replicate(), 1);
        assert_eq!(s.under_replicated(), 0);
        assert_eq!(s.read("f"), Some(vec![3u8; 40]));
    }

    #[test]
    fn degraded_write_returns_achieved_replication() {
        let mut s = tiny_store(3);
        s.fail_node(0);
        s.fail_node(1);
        // Two live nodes remain for a replication factor of 3: the write
        // degrades instead of panicking and reports what it achieved.
        assert_eq!(s.write("f", &[5u8; 16]), 2);
        assert_eq!(s.read("f"), Some(vec![5u8; 16]));
        // The deficit is visible, not hidden: both blocks under-replicated.
        assert_eq!(s.under_replicated(), 2);
        // With no spare live node, repair places nothing and says so.
        assert_eq!(s.re_replicate(), 0);
        assert_eq!(s.re_replicated_blocks(), 0);
        assert_eq!(s.under_replicated(), 2);
        // All nodes dead: zero replicas achieved; the read reports the
        // loss instead of returning garbage.
        s.fail_node(2);
        s.fail_node(3);
        assert_eq!(s.write("g", &[1u8; 8]), 0);
        assert_eq!(s.read("g"), None);
    }

    #[test]
    fn re_replication_avoids_dead_nodes() {
        let mut s = tiny_store(2);
        assert_eq!(s.write("f", &[9u8; 16]), 2);
        s.fail_node(0);
        s.re_replicate();
        for meta in s.blocks_of("f").unwrap() {
            assert!(!meta.replicas.contains(&0), "replica placed on dead node");
            assert_eq!(meta.replicas.len(), 2);
        }
    }
}
