//! Names no program path calls, kept for h2bench (`benchmark/`): each
//! forwards to the constructor it stands for.

use crate::{tenant::BatchScheduler, MatvecService, TenantTable};
use h2_core::H2Operator;
use h2_linalg::Scalar;
use std::sync::Arc;

/// The scheduler's one policy. Held by `benchmark/src/probes.rs` and
/// `benchmark/src/workloads/serve.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueMode {
    /// Weighted deficit round robin.
    Wdrr,
}

impl<T> BatchScheduler<T> {
    /// [`BatchScheduler::with_table`]. Held by `benchmark/src/probes.rs`.
    #[doc(hidden)]
    pub fn new(table: TenantTable, _mode: QueueMode) -> BatchScheduler<T> {
        BatchScheduler::with_table(table)
    }
}

impl<S: Scalar, O: H2Operator<S>> MatvecService<O, S> {
    /// [`MatvecService::for_tenants`]. Held by `benchmark/src/workloads/serve.rs`.
    #[doc(hidden)]
    pub fn with_tenants(op: Arc<O>, batch: usize, table: TenantTable, _: QueueMode) -> Self {
        MatvecService::for_tenants(op, batch, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_constructors_are_the_table_constructors() {
        let table = TenantTable::parse("[a]\nweight = 3.0\n\n[b]\nweight = 1.0\n").unwrap();
        let mut shim: BatchScheduler<u32> = BatchScheduler::new(table.clone(), QueueMode::Wdrr);
        let mut direct = BatchScheduler::with_table(table.clone());
        for k in 0..12 {
            shim.push(k % 2, k as u32).unwrap();
            direct.push(k % 2, k as u32).unwrap();
        }
        while !direct.is_empty() {
            assert_eq!(shim.next_batch(3), direct.next_batch(3));
        }
        assert!(shim.is_empty());

        let op = Arc::new(h2_core::H2Matrix::build(
            &h2_points::gen::uniform_cube(200, 3, 1),
            Arc::new(h2_kernels::Coulomb),
            &h2_core::H2Config::default(),
        ));
        let svc = MatvecService::with_tenants(op.clone(), 4, table, QueueMode::Wdrr);
        let ticket = svc.submit_for("b", vec![1.0; 200]).unwrap();
        svc.drain();
        assert_eq!(ticket.wait().unwrap(), op.matvec(&vec![1.0; 200]));
    }
}
