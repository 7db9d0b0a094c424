//! The codec's memory contract, measured on the heap: saving an operator
//! holds no buffer of the file's size, and loading one holds the operator
//! and no copy of the file.
//!
//! A counting global allocator tracks the live heap and its high-water
//! mark. The file has one test, so no other test allocates beside it.

use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use h2_serve::codec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Peak;

#[global_allocator]
static ALLOC: Peak = Peak;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

/// `f`'s result and the live heap's high-water mark while it ran, in bytes
/// above the live heap when it started.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - start)
}

const MIB: usize = 1 << 20;

#[test]
fn save_and_load_hold_the_operator_once() {
    let pts = gen::uniform_cube(2000, 3, 7);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-5, 3),
        mode: MemoryMode::Normal,
        leaf_size: 64,
        ..H2Config::default()
    };
    let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
    let r = h2.memory_report();
    let payload = r.bases + r.transfers + r.coupling_blocks + r.nearfield_blocks;
    assert!(payload > 8 * MIB, "a {payload}-byte payload shows no gap");

    let dir = std::env::temp_dir().join(format!("h2serve-stream-peak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let path = dir.join("op.h2");

    let (written, save_peak) = peak_above_start(|| codec::save(&h2, &path));
    let written = written.expect("save");
    assert!(written as usize > payload);
    assert!(
        save_peak <= MIB,
        "save of a {written}-byte file peaked {save_peak} bytes above its start"
    );

    drop(h2);
    let (loaded, load_peak) = peak_above_start(|| codec::load::<f64>(&path, Arc::new(Coulomb)));
    let loaded = loaded.expect("load");
    assert_eq!(loaded.memory_report().generators(), r.generators());
    assert!(
        load_peak <= payload + MIB,
        "load of a {payload}-byte payload peaked {load_peak} bytes above its start"
    );
    println!(
        "payload {payload} B, file {written} B: save peak {save_peak} B, load peak {load_peak} B"
    );
    std::fs::remove_dir_all(&dir).ok();
}
