//! Named registry of shared H² operators with versioned hot-swap.
//!
//! Operators are expensive to build and cheap to share: the registry hands
//! out `Arc<H2MatrixS<S>>` clones so any number of services/threads can
//! apply the same operator concurrently (the matvec is `&self`). The
//! registry is homogeneous in the storage scalar `S` (default `f64`): a
//! deployment serving both widths keeps one `OperatorRegistry<f64>` and one
//! `OperatorRegistry<f32>`, dispatching on [`crate::codec::stored_scalar`].
//!
//! ## Versioned entries and the swap protocol
//!
//! Each name maps to a **versioned slot** rather than a bare `Arc`: the
//! slot holds the current operator behind its own lock plus an update
//! counter. Dynamic operators (see `h2_core::update`) mutate through
//! [`OperatorRegistry::update_with`], which runs **clone → apply → swap**:
//! the current operator is cloned, the update closure runs on the private
//! clone, and only on success is the clone atomically swapped in. The
//! consequences are exactly the serving semantics we want:
//!
//! - a matvec that called [`OperatorRegistry::get`] before the swap holds
//!   its own `Arc` and finishes on the epoch it started on;
//! - a submission after the swap sees the new epoch;
//! - a failed update leaves the registry untouched — no torn operator is
//!   ever observable;
//! - concurrent updaters to the same entry are serialized by a per-slot
//!   update mutex, so no update is silently lost, while readers are never
//!   blocked by an in-progress clone/apply.

use crate::error::LoadError;
use h2_core::{CacheBudget, H2MatrixS};
use h2_kernels::Kernel;
use h2_linalg::Scalar;
use h2_telemetry::Exposition;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One registry slot: the current operator plus its swap history. Readers
/// clone the inner `Arc` under a short read lock; swappers replace it under
/// the write lock; updaters additionally serialize on `update_lock` so the
/// clone-apply phase (which can be long) never blocks readers and never
/// races another updater.
struct Versioned<S: Scalar> {
    op: RwLock<Arc<H2MatrixS<S>>>,
    updates: AtomicU64,
    update_lock: Mutex<()>,
}

impl<S: Scalar> Versioned<S> {
    fn new(op: Arc<H2MatrixS<S>>) -> Self {
        Versioned {
            op: RwLock::new(op),
            updates: AtomicU64::new(0),
            update_lock: Mutex::new(()),
        }
    }

    fn current(&self) -> Arc<H2MatrixS<S>> {
        self.op.read().unwrap().clone()
    }
}

/// What [`OperatorRegistry::update_with`] hands back for a known name: the
/// freshly installed operator plus the closure's value on success, or the
/// closure's error (registry untouched) on failure.
pub type UpdateOutcome<S, R, E> = Result<(Arc<H2MatrixS<S>>, R), E>;

/// A concurrent name → versioned operator slot map over storage scalar `S`.
#[derive(Default)]
pub struct OperatorRegistry<S: Scalar = f64> {
    map: RwLock<HashMap<String, Arc<Versioned<S>>>>,
}

impl<S: Scalar> OperatorRegistry<S> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `op` under `name` in a fresh versioned slot (update count
    /// 0), returning the operator it replaced (if any).
    pub fn insert(
        &self,
        name: impl Into<String>,
        op: Arc<H2MatrixS<S>>,
    ) -> Option<Arc<H2MatrixS<S>>> {
        self.map
            .write()
            .unwrap()
            .insert(name.into(), Arc::new(Versioned::new(op)))
            .map(|old| old.current())
    }

    /// Looks up the current operator under `name`. The returned `Arc` is a
    /// stable snapshot: a later [`Self::swap`] or [`Self::update_with`]
    /// does not affect it, so an in-flight sweep finishes on the epoch it
    /// started on.
    pub fn get(&self, name: &str) -> Option<Arc<H2MatrixS<S>>> {
        self.map.read().unwrap().get(name).map(|v| v.current())
    }

    /// Atomically replaces the operator in `name`'s existing slot,
    /// returning the previous operator. Unlike [`Self::insert`] the slot
    /// (and its update count, which increments) survives; returns `None`
    /// without registering anything when the name is unknown.
    pub fn swap(&self, name: &str, op: Arc<H2MatrixS<S>>) -> Option<Arc<H2MatrixS<S>>> {
        let slot = self.map.read().unwrap().get(name).cloned()?;
        let old = std::mem::replace(&mut *slot.op.write().unwrap(), op);
        slot.updates.fetch_add(1, Ordering::Relaxed);
        Some(old)
    }

    /// Clone-apply-swap update of a registered operator: clones the current
    /// operator, runs `f` on the private clone, and — only if `f` returns
    /// `Ok` — swaps the clone in and bumps the slot's update count. Readers
    /// holding the previous `Arc` are unaffected; a failed closure leaves
    /// the registry exactly as it was. Returns `None` for an unknown name,
    /// otherwise `f`'s result alongside the newly installed handle.
    pub fn update_with<R, E>(
        &self,
        name: &str,
        f: impl FnOnce(&mut H2MatrixS<S>) -> Result<R, E>,
    ) -> Option<UpdateOutcome<S, R, E>> {
        let slot = self.map.read().unwrap().get(name).cloned()?;
        let _serialized = slot.update_lock.lock().unwrap();
        let mut work = (*slot.current()).clone();
        Some(match f(&mut work) {
            Ok(r) => {
                let fresh = Arc::new(work);
                *slot.op.write().unwrap() = fresh.clone();
                slot.updates.fetch_add(1, Ordering::Relaxed);
                Ok((fresh, r))
            }
            Err(e) => Err(e),
        })
    }

    /// How many swap/update operations `name`'s slot has absorbed since it
    /// was inserted (`None` for an unknown name).
    pub fn update_count(&self, name: &str) -> Option<u64> {
        self.map
            .read()
            .unwrap()
            .get(name)
            .map(|v| v.updates.load(Ordering::Relaxed))
    }

    /// Removes and returns the named operator.
    pub fn remove(&self, name: &str) -> Option<Arc<H2MatrixS<S>>> {
        self.map
            .write()
            .unwrap()
            .remove(name)
            .map(|old| old.current())
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.read().unwrap().keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered operators.
    pub fn len(&self) -> usize {
        self.map.read().unwrap().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.map.read().unwrap().is_empty()
    }

    /// Loads an operator file (see [`crate::codec::load`]) and registers it
    /// under `name`, returning the shared handle.
    pub fn load_file(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
        kernel: Arc<dyn Kernel>,
    ) -> Result<Arc<H2MatrixS<S>>, LoadError> {
        self.load_file_with_budget(name, path, kernel, CacheBudget::Off)
    }

    /// Like [`Self::load_file`], but installs a per-operator block-cache
    /// budget before the operator is frozen behind its `Arc` (files never
    /// persist a cache — it is a runtime tier). The budget only takes
    /// effect for on-the-fly operators; normal-mode files ignore it.
    pub fn load_file_with_budget(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
        kernel: Arc<dyn Kernel>,
        budget: CacheBudget,
    ) -> Result<Arc<H2MatrixS<S>>, LoadError> {
        let mut op = crate::codec::load::<S>(path, kernel)?;
        op.set_cache_budget(budget);
        let op = Arc::new(op);
        self.insert(name, op.clone());
        Ok(op)
    }

    /// Loads an operator file by `mmap` (see [`crate::codec::load_mmap`])
    /// and registers it under `name`. The operator's matrix payloads stay
    /// on the mapped pages — near-zero resident bytes at load, surfaced
    /// per entry as `h2_registry_operator_mapped_bytes` — while behaving
    /// bitwise-identically to [`Self::load_file`].
    pub fn load_file_mmap(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
        kernel: Arc<dyn Kernel>,
    ) -> Result<Arc<H2MatrixS<S>>, LoadError> {
        self.load_file_mmap_with_budget(name, path, kernel, CacheBudget::Off)
    }

    /// Like [`Self::load_file_mmap`] with a per-operator block-cache budget
    /// (only meaningful for on-the-fly operators, as with
    /// [`Self::load_file_with_budget`]).
    pub fn load_file_mmap_with_budget(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
        kernel: Arc<dyn Kernel>,
        budget: CacheBudget,
    ) -> Result<Arc<H2MatrixS<S>>, LoadError> {
        let mut op = crate::codec::load_mmap::<S>(path, kernel)?;
        op.set_cache_budget(budget);
        let op = Arc::new(op);
        self.insert(name, op.clone());
        Ok(op)
    }

    /// Resident bytes per registry entry, sorted by name: the operator's
    /// exact logical footprint (`memory_report().total()`, which includes
    /// any cached-tier blocks) next to the cached-tier share alone, plus
    /// the builder provenance the operator was constructed with. This is
    /// what `h2serve metrics` reports per entry.
    pub fn resident_bytes(&self) -> Vec<RegistryEntryBytes> {
        let mut v: Vec<RegistryEntryBytes> = self
            .map
            .read()
            .unwrap()
            .iter()
            .map(|(name, slot)| {
                let op = slot.current();
                let report = op.memory_report();
                RegistryEntryBytes {
                    name: name.clone(),
                    total_bytes: report.total(),
                    cached_bytes: report.cached_blocks,
                    mapped_bytes: report.mapped_bytes,
                    builder: op.provenance(),
                    epoch: op.epoch(),
                    updates: slot.updates.load(Ordering::Relaxed),
                }
            })
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Describes [`Self::resident_bytes`] to `out`, read at call time: one
    /// `operator`-labeled gauge sample per entry and family (the families
    /// are declared even for an empty registry). The builder-provenance
    /// family is info-style: constant 1, with the provenance in the
    /// `builder` and `code` labels. Registry names are caller-chosen
    /// strings; the writer escapes them, so a hostile name cannot break out
    /// of its label or forge extra samples.
    pub fn expose(&self, out: &mut Exposition) {
        let rows = self.resident_bytes();
        let names: Vec<&str> = rows.iter().map(|e| e.name.as_str()).collect();
        out.gauge("h2_registry_operator_resident_bytes")
            .per("operator", &names, |i| rows[i].total_bytes);
        out.gauge("h2_registry_operator_cached_bytes")
            .per("operator", &names, |i| rows[i].cached_bytes);
        out.gauge("h2_registry_operator_mapped_bytes")
            .per("operator", &names, |i| rows[i].mapped_bytes);
        let mut family = out.gauge("h2_registry_operator_builder");
        for e in &rows {
            let (builder, code) = (e.builder.name(), e.builder.code().to_string());
            family.sample(
                &[("operator", &e.name), ("builder", builder), ("code", &code)],
                1,
            );
        }
        out.gauge("h2_registry_operator_epoch")
            .per("operator", &names, |i| rows[i].epoch);
        out.gauge("h2_registry_operator_updates")
            .per("operator", &names, |i| rows[i].updates);
    }
}

/// One row of [`OperatorRegistry::resident_bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistryEntryBytes {
    /// Registry name of the operator.
    pub name: String,
    /// Exact logical footprint in bytes (tree, generators, blocks, cache).
    pub total_bytes: usize,
    /// Bytes held by the budgeted cache tier (0 without a cache).
    pub cached_bytes: usize,
    /// Bytes served from `mmap`ed operator-file pages (0 for owned loads).
    /// These live in the OS page cache, not this process's heap, so they
    /// are *excluded* from `total_bytes`.
    pub mapped_bytes: usize,
    /// Construction pipeline the operator came from (persisted through the
    /// codec's provenance byte; unknown codes surface as `unknown`).
    pub builder: h2_core::BuilderProvenance,
    /// The operator's own update epoch (`H2MatrixS::epoch`): how many
    /// incremental update batches the operator has absorbed over its life,
    /// including before it was saved/loaded.
    pub epoch: u64,
    /// Swap/update operations this registry slot has absorbed since
    /// insertion (resets on [`OperatorRegistry::insert`], not on load).
    pub updates: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_core::{BasisMethod, BlockKind, CacheBudget, H2Config, H2Matrix, MemoryMode};
    use h2_kernels::Coulomb;
    use h2_points::gen;

    fn tiny_with(cache_budget: CacheBudget) -> Arc<H2Matrix> {
        let pts = gen::uniform_cube(200, 2, 1);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-4, 2),
            mode: MemoryMode::OnTheFly,
            leaf_size: 32,
            eta: 0.7,
            cache_budget,
            ..H2Config::default()
        };
        Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg))
    }

    fn tiny() -> Arc<H2Matrix> {
        tiny_with(CacheBudget::Off)
    }

    /// What a holder of an operator can see of its cached tier.
    #[derive(Debug, PartialEq)]
    struct Residency {
        keys: Vec<(BlockKind, usize, usize, u64)>,
        resident_bytes: usize,
        hits_per_product: u64,
    }

    fn residency(op: &H2Matrix) -> Residency {
        let cache = op.cache().expect("budgeted operator");
        let hits = cache.stats().hits;
        let _ = op.matvec(&vec![1.0; op.n()]);
        Residency {
            keys: cache.keys(),
            resident_bytes: cache.resident_bytes(),
            hits_per_product: cache.stats().hits - hits,
        }
    }

    /// Four points in four corners of the square: their paths dirty most
    /// leaves, so most resident pairs have a dirty endpoint.
    fn four_corners() -> h2_points::PointSet {
        h2_points::PointSet::new(2, vec![0.21, 0.23, 0.81, 0.17, 0.27, 0.79, 0.83, 0.77])
    }

    #[test]
    fn insert_get_remove() {
        let reg: OperatorRegistry = OperatorRegistry::new();
        assert!(reg.is_empty());
        let op = tiny();
        assert!(reg.insert("a", op.clone()).is_none());
        assert!(Arc::ptr_eq(&reg.get("a").unwrap(), &op));
        assert_eq!(reg.names(), vec!["a".to_string()]);
        let replaced = reg.insert("a", tiny());
        assert!(replaced.is_some_and(|r| Arc::ptr_eq(&r, &op)));
        assert!(reg.remove("a").is_some());
        assert!(reg.get("a").is_none());
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn update_with_swaps_atomically_and_in_flight_handles_survive() {
        let reg: OperatorRegistry = OperatorRegistry::new();
        reg.insert("live", tiny());
        assert_eq!(reg.update_count("live"), Some(0));
        // An "in-flight sweep": a handle taken before the update.
        let before = reg.get("live").unwrap();
        let b = vec![1.0; before.n()];
        let y_before = before.matvec(&b);
        let extra = h2_points::PointSet::new(2, vec![0.41, 0.43, 0.51, 0.53]);
        let (after, report) = reg
            .update_with("live", |op| op.insert_points(&extra))
            .expect("name is registered")
            .expect("insert succeeds");
        assert_eq!(report.inserted, 2);
        assert_eq!(after.epoch(), 1);
        assert_eq!(reg.update_count("live"), Some(1));
        // New submissions see the new epoch; the old handle is untouched
        // and still applies on the operator it started with.
        assert!(Arc::ptr_eq(&reg.get("live").unwrap(), &after));
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.matvec(&b), y_before);
        assert_eq!(after.n(), before.n() + 2);
        // Epoch and update count surface per entry (and from there in the
        // gauges; see tests/observability.rs).
        let rows = reg.resident_bytes();
        assert_eq!(rows[0].epoch, 1);
        assert_eq!(rows[0].updates, 1);

        // The same with a cached tier: the old handle keeps the table it
        // started with, whatever the update and the new epoch's products do.
        reg.insert("cached", tiny_with(CacheBudget::Ratio(0.5)));
        let before = reg.get("cached").unwrap();
        let fresh = residency(&before);
        assert!(fresh.hits_per_product > 0, "half a budget must hit");
        let (after, _) = reg
            .update_with("cached", |op| op.insert_points(&four_corners()))
            .unwrap()
            .unwrap();
        let updated = residency(&after);
        let epochs = |r: &Residency| r.keys.iter().map(|key| key.3).max();
        assert_eq!(epochs(&updated), Some(1), "re-planned at epoch 1");
        assert_eq!(residency(&before), fresh, "old handle after the update");
        assert_eq!(epochs(&fresh), Some(0));
    }

    #[test]
    fn failed_update_leaves_registry_untouched() {
        let reg: OperatorRegistry = OperatorRegistry::new();
        reg.insert("live", tiny());
        let before = reg.get("live").unwrap();
        // Wrong dimension: the update closure fails before any mutation.
        let bad = h2_points::PointSet::new(3, vec![0.1, 0.2, 0.3]);
        let err = reg
            .update_with("live", |op| op.insert_points(&bad))
            .expect("name is registered")
            .err()
            .expect("dimension mismatch must fail");
        assert!(matches!(
            err,
            h2_core::UpdateError::DimMismatch {
                expected: 2,
                got: 3
            }
        ));
        assert!(Arc::ptr_eq(&reg.get("live").unwrap(), &before));
        assert_eq!(reg.update_count("live"), Some(0));
        // Unknown names: None without registering anything.
        assert!(reg
            .update_with("ghost", |op| op.insert_points(&bad))
            .is_none());
        assert!(reg.swap("ghost", tiny()).is_none());
        assert!(reg.update_count("ghost").is_none());
        assert_eq!(reg.len(), 1);

        // A closure that fails after it has updated its private clone: the
        // registered operator's cached tier is what it was.
        reg.insert("cached", tiny_with(CacheBudget::Ratio(0.5)));
        let live = reg.get("cached").unwrap();
        let fresh = residency(&live);
        assert!(fresh.hits_per_product > 0, "half a budget must hit");
        let aborted = reg.update_with("cached", |op| {
            op.insert_points(&four_corners()).expect("insert succeeds");
            Err::<(), _>("changed my mind")
        });
        assert_eq!(aborted.unwrap().err(), Some("changed my mind"));
        assert!(Arc::ptr_eq(&reg.get("cached").unwrap(), &live));
        assert_eq!(residency(&live), fresh, "live operator after the abort");
    }

    #[test]
    fn swap_replaces_in_slot_and_counts() {
        let reg: OperatorRegistry = OperatorRegistry::new();
        let first = tiny();
        reg.insert("op", first.clone());
        let second = tiny();
        let old = reg.swap("op", second.clone()).expect("slot exists");
        assert!(Arc::ptr_eq(&old, &first));
        assert!(Arc::ptr_eq(&reg.get("op").unwrap(), &second));
        assert_eq!(reg.update_count("op"), Some(1));
        // A fresh insert resets the slot and its count.
        reg.insert("op", tiny());
        assert_eq!(reg.update_count("op"), Some(0));
    }

    #[test]
    fn load_file_registers() {
        let reg: OperatorRegistry = OperatorRegistry::new();
        let op = tiny();
        let path = std::env::temp_dir().join("h2serve_registry_test.h2op");
        crate::codec::save(&op, &path).unwrap();
        let loaded = reg.load_file("disk", &path, Arc::new(Coulomb)).unwrap();
        std::fs::remove_file(&path).ok();
        let b = vec![1.0; op.n()];
        assert_eq!(op.matvec(&b), loaded.matvec(&b));
        assert!(reg.get("disk").is_some());
    }

    #[test]
    fn resident_bytes_reports_every_entry() {
        let reg: OperatorRegistry = OperatorRegistry::new();
        let a = tiny();
        let b = tiny();
        reg.insert("beta", b.clone());
        reg.insert("alpha", a.clone());
        let rows = reg.resident_bytes();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "alpha");
        assert_eq!(rows[1].name, "beta");
        assert_eq!(rows[0].total_bytes, a.memory_report().total());
        assert_eq!(rows[0].cached_bytes, 0, "no budget, no cached tier");
        assert_eq!(rows[0].builder, h2_core::BuilderProvenance::AnchorNet);
    }

    #[test]
    fn registry_surfaces_sketched_provenance() {
        let pts = gen::uniform_cube(200, 2, 1);
        let cfg = H2Config {
            builder: h2_core::BuilderStrategy::sketched_for_tol(1e-4, 2),
            mode: MemoryMode::OnTheFly,
            leaf_size: 32,
            eta: 0.7,
            seed: 9,
            ..H2Config::default()
        };
        let op = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        let reg: OperatorRegistry = OperatorRegistry::new();
        reg.insert("rand", op);
        let rows = reg.resident_bytes();
        assert_eq!(rows[0].builder, h2_core::BuilderProvenance::Sketched);
        assert_eq!(
            (rows[0].builder.name(), rows[0].builder.code()),
            ("sketched", 1)
        );
    }

    #[test]
    fn load_file_with_budget_installs_a_per_operator_cache() {
        let reg: OperatorRegistry = OperatorRegistry::new();
        let op = tiny();
        let path = std::env::temp_dir().join("h2serve_registry_budget_test.h2op");
        crate::codec::save(&op, &path).unwrap();
        let cached = reg
            .load_file_with_budget("warm", &path, Arc::new(Coulomb), CacheBudget::Ratio(0.5))
            .unwrap();
        let cold = reg
            .load_file_with_budget("cold", &path, Arc::new(Coulomb), CacheBudget::Off)
            .unwrap();
        std::fs::remove_file(&path).ok();
        let stats = cached.cache_stats().expect("budget installs a cache");
        assert!(stats.budget_bytes > 0);
        assert!(stats.resident_bytes > 0);
        assert!(cold.cache_stats().is_none());
        // A budget moves no bit of the product, and the registry's
        // per-entry report sees the cached bytes.
        let b = vec![1.0; op.n()];
        assert_eq!(cached.matvec(&b), cold.matvec(&b));
        let rows = reg.resident_bytes();
        let warm = rows.iter().find(|r| r.name == "warm").unwrap();
        let cold_row = rows.iter().find(|r| r.name == "cold").unwrap();
        assert_eq!(warm.cached_bytes, stats.resident_bytes);
        assert_eq!(cold_row.cached_bytes, 0);
        assert!(warm.total_bytes > cold_row.total_bytes);
    }

    #[test]
    fn load_file_mmap_registers_with_near_zero_resident_bytes() {
        // Normal mode so dense blocks dominate the owned footprint.
        let pts = gen::uniform_cube(300, 2, 1);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-4, 2),
            mode: MemoryMode::Normal,
            leaf_size: 32,
            eta: 0.7,
            ..H2Config::default()
        };
        let op = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        let path = std::env::temp_dir().join("h2serve_registry_mmap_test.h2op");
        crate::codec::save(&op, &path).unwrap();
        let reg: OperatorRegistry = OperatorRegistry::new();
        let owned = reg.load_file("owned", &path, Arc::new(Coulomb)).unwrap();
        let mapped = reg
            .load_file_mmap("mapped", &path, Arc::new(Coulomb))
            .unwrap();
        std::fs::remove_file(&path).ok();
        let b: Vec<f64> = (0..op.n()).map(|i| (0.17 * i as f64).sin()).collect();
        assert_eq!(owned.matvec(&b), mapped.matvec(&b), "mmap must be bitwise");
        let rows = reg.resident_bytes();
        let o = rows.iter().find(|r| r.name == "owned").unwrap();
        let m = rows.iter().find(|r| r.name == "mapped").unwrap();
        assert_eq!(o.mapped_bytes, 0);
        assert!(m.mapped_bytes > 0);
        assert!(
            (m.total_bytes as f64) < 0.5 * o.total_bytes as f64,
            "mapped slot resident {} vs owned {}",
            m.total_bytes,
            o.total_bytes
        );
    }

    #[test]
    fn f32_registry_round_trips_and_rejects_f64_files() {
        let pts = gen::uniform_cube(200, 2, 1);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-4, 2),
            mode: MemoryMode::OnTheFly,
            leaf_size: 32,
            eta: 0.7,
            ..H2Config::default()
        };
        let op = Arc::new(H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg));
        let path = std::env::temp_dir().join("h2serve_registry_f32_test.h2op");
        crate::codec::save(op.as_ref(), &path).unwrap();
        let reg32: OperatorRegistry<f32> = OperatorRegistry::new();
        let loaded = reg32.load_file("disk", &path, Arc::new(Coulomb)).unwrap();
        let b = vec![1.0f32; op.n()];
        assert_eq!(op.matvec(&b), loaded.matvec(&b));
        // The f64 registry refuses the same file with the typed error.
        let reg64: OperatorRegistry = OperatorRegistry::new();
        let err = reg64
            .load_file("disk", &path, Arc::new(Coulomb))
            .err()
            .expect("width mismatch must fail");
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            err,
            LoadError::PrecisionMismatch {
                stored: "f32",
                requested: "f64",
            }
        ));
    }
}
