//! Simulated cost of the *graph reading procedure*: parsing the edge list
//! from SSD and materialising an in-memory format — the quantity Fig. 19(a)
//! compares between CSR and CSDB (and part of every end-to-end time in
//! Fig. 12, which includes graph reading).
//!
//! Model: the text edge list streams from SSD; parsing costs fixed CPU work
//! per stored non-zero; format construction differs — a conventional CSR
//! loader groups edges with a comparison sort (`log₂ nnz` ops per nnz),
//! while CSDB's degree blocks come from counting passes (O(1) per nnz plus
//! O(1) per node); finally the structure's bytes stream to the operand
//! device. The counting-sort advantage is what makes CSDB's reading ~1.35×
//! faster in the paper.

use crate::csdb::Csdb;
use crate::csr::Csr;
use omega_hetmem::{
    AccessClass, AccessOp, AccessPattern, BandwidthModel, DeviceKind, Locality, SimDuration,
};

/// Which in-memory format the loader builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    Csr,
    Csdb,
}

/// Bytes of one edge-list text line (`u\td\n` with ~7-digit ids).
const TEXT_BYTES_PER_EDGE: u64 = 16;
/// CPU ops to tokenise and convert one stored nnz.
const PARSE_OPS_PER_NNZ: u64 = 12;
/// CPU ops per nnz for CSDB's counting passes (degree count + bucket fill).
const CSDB_BUILD_OPS_PER_NNZ: u64 = 6;
/// CPU ops per node for CSDB's degree-block index construction.
const CSDB_BUILD_OPS_PER_NODE: u64 = 2;

/// Simulated time to read a graph of `nodes` / `nnz` stored non-zeros into
/// `format`, with the structure written to `device` (node 0, local).
pub(crate) fn read_time(
    format: GraphFormat,
    nodes: u64,
    nnz: u64,
    structure_bytes: u64,
    model: &BandwidthModel,
    device: DeviceKind,
) -> SimDuration {
    const GIB: f64 = (1u64 << 30) as f64;
    // SSD stream of the text file (each undirected edge = one line; stored
    // nnz is both directions).
    let file_bytes = (nnz / 2).max(1) * TEXT_BYTES_PER_EDGE;
    let ssd_bw = model
        .class(AccessClass::new(
            DeviceKind::Ssd,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Seq,
        ))
        .peak_gib_s;
    let io_s = file_bytes as f64 / (ssd_bw * GIB);

    // CPU: parse + build.
    let build_ops = match format {
        GraphFormat::Csr => {
            // Comparison sort to group by (row, col).
            let log = (64 - nnz.max(2).leading_zeros() as u64).max(1);
            nnz * log
        }
        GraphFormat::Csdb => nnz * CSDB_BUILD_OPS_PER_NNZ + nodes * CSDB_BUILD_OPS_PER_NODE,
    };
    let cpu_s = (nnz * PARSE_OPS_PER_NNZ + build_ops) as f64 / model.cpu_ops_per_sec;

    // Structure write-out to the operand device.
    let w_bw = model
        .class(AccessClass::new(
            device,
            Locality::Local,
            AccessOp::Write,
            AccessPattern::Seq,
        ))
        .peak_gib_s;
    let write_s = structure_bytes as f64 / (w_bw * GIB);

    SimDuration::from_secs_f64(io_s + cpu_s + write_s)
}

/// Reading time for a concrete CSR.
pub fn csr_read_time(csr: &Csr, model: &BandwidthModel, device: DeviceKind) -> SimDuration {
    read_time(
        GraphFormat::Csr,
        csr.rows() as u64,
        csr.nnz() as u64,
        csr.size_bytes(),
        model,
        device,
    )
}

/// Reading time for a concrete CSDB.
pub fn csdb_read_time(csdb: &Csdb, model: &BandwidthModel, device: DeviceKind) -> SimDuration {
    read_time(
        GraphFormat::Csdb,
        csdb.rows() as u64,
        csdb.nnz() as u64,
        csdb.size_bytes(),
        model,
        device,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::RmatConfig;

    #[test]
    fn csdb_reads_faster_than_csr() {
        let model = BandwidthModel::paper_machine();
        let csr = RmatConfig::social(1 << 12, 60_000, 4)
            .generate_csr()
            .unwrap();
        let csdb = Csdb::from_csr(&csr).unwrap();
        let t_csr = csr_read_time(&csr, &model, DeviceKind::Pm);
        let t_csdb = csdb_read_time(&csdb, &model, DeviceKind::Pm);
        let speedup = t_csr.ratio(t_csdb);
        // Paper: ~1.35x. Accept the same shape (clearly faster, < 2x).
        assert!(
            speedup > 1.15 && speedup < 2.0,
            "CSDB read speedup {speedup} out of the expected band"
        );
    }

    #[test]
    fn read_time_scales_with_size() {
        let model = BandwidthModel::paper_machine();
        let small = read_time(
            GraphFormat::Csr,
            1_000,
            10_000,
            100_000,
            &model,
            DeviceKind::Pm,
        );
        let large = read_time(
            GraphFormat::Csr,
            10_000,
            100_000,
            1_000_000,
            &model,
            DeviceKind::Pm,
        );
        assert!(large > small * 5);
    }

    #[test]
    fn dram_write_out_beats_pm() {
        let model = BandwidthModel::paper_machine();
        let pm = read_time(
            GraphFormat::Csdb,
            1_000,
            50_000,
            10_000_000,
            &model,
            DeviceKind::Pm,
        );
        let dram = read_time(
            GraphFormat::Csdb,
            1_000,
            50_000,
            10_000_000,
            &model,
            DeviceKind::Dram,
        );
        assert!(dram < pm);
    }
}
