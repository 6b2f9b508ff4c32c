//! Conversions between CSR and CSDB spaces.

use crate::csdb::Csdb;
use crate::csr::Csr;
use crate::Result;

/// Build a CSDB from CSR (thin alias around [`Csdb::from_csr`], kept for
/// discoverability alongside the other conversion directions).
pub fn csr_to_csdb(csr: &Csr) -> Result<Csdb> {
    Csdb::from_csr(csr)
}

/// Recover the CSR in the original id space.
pub fn csdb_to_csr(csdb: &Csdb) -> Csr {
    csdb.to_csr_original()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path4() -> Csr {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.build_csr().unwrap()
    }

    #[test]
    fn roundtrip_csr_csdb_csr() {
        let csr = path4();
        let csdb = csr_to_csdb(&csr).unwrap();
        assert_eq!(csdb_to_csr(&csdb), csr);
    }
}
