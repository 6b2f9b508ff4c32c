//! Round trips between the CSR and CSDB spaces ([`Csdb::from_csr`] and
//! [`Csdb::to_csr_original`]) through the degree permutation.

mod tests {
    use crate::builder::GraphBuilder;
    use crate::csdb::Csdb;
    use crate::csr::Csr;

    // A path's degree order (1, 2, 2, 1) permutes its rows.
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
        let csdb = Csdb::from_csr(&csr).unwrap();
        assert_eq!(csdb.to_csr_original(), csr);
    }
}
