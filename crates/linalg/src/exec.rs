//! The scoped step executor: the one threading mechanism of the workspace.
//!
//! Work is a list of **steps**, each a number of independent **tasks**.
//! [`run`] executes it on the calling thread plus helpers that live for that
//! one call (no pool, no state and no live thread afterwards): every thread
//! takes tasks of the current step off a shared counter until none is left,
//! meets the others at a barrier, and goes on to the next step. The five
//! sweeps of a product are one such list ([`run`] directly, with a scratch
//! state per thread); every parallel loop of construction is a single-step
//! call through [`map`], [`for_each_chunk`] or [`for_each_with`] (a tree
//! pass maps over its subtrees, one task each; a block plan fills its slab
//! one block per task, with one scratch per thread), each task writing the
//! output slot of its own item.
//!
//! ## Who owns a thread
//!
//! The caller. Helpers are spawned inside one `std::thread::scope` per call
//! and joined before it returns; a call that needs one thread (a single
//! task, or width 1) spawns nothing. How wide a call may run is the
//! [`width`] of the calling thread: the width a [`Width`] guard installed
//! around it, else the machine's available parallelism.
//!
//! ## A task runs at width 1
//!
//! While a thread — the caller or a helper — executes the tasks of a [`run`],
//! [`width`] answers 1 on it, so an executor call nested inside a task (a
//! large `gemm` inside a per-node row ID) runs inline instead of spawning
//! threads of its own.
//!
//! ## Same results at any width
//!
//! The executor hands out *which thread* runs a task, never *what* the task
//! computes or where its result goes: a task is a function of its step and
//! index, and writes only what that index owns. Callers that keep tasks pure
//! therefore get bitwise identical results at every width.
//!
//! ## Panics
//!
//! A thread that stopped coming to the barriers would hang the others, so a
//! panicking task is caught, the thread keeps claiming (and skipping) tasks
//! to the end of the step list, and the panic is resumed on the caller with
//! its own message once every helper has been joined.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};

thread_local! {
    /// Width installed on this thread (0 = none).
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
}

/// The machine's available parallelism, read once.
fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many threads an executor call made from this thread may use: the
/// width of the innermost [`Width::install`] around the caller, else the
/// machine's available parallelism; 1 inside a task.
pub fn width() -> usize {
    match INSTALLED.get() {
        0 => available(),
        n => n,
    }
}

/// A width to run work at — the one sizing mechanism. It owns no thread:
/// [`Width::install`] only makes [`width`] answer it for the duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Width(usize);

impl Width {
    /// `threads` wide; 0 means the machine's available parallelism.
    pub fn new(threads: usize) -> Self {
        Width(if threads == 0 { available() } else { threads })
    }

    /// Runs `op` on the calling thread with this width installed (restored
    /// on return and on unwind). The width belongs to this thread only.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.set(self.0);
            }
        }
        let _restore = Restore(INSTALLED.replace(self.0));
        op()
    }
}

/// Threads worth using at `width` for steps of `steps[s]` tasks each: no
/// more than tasks that can ever run at the same time, at least the caller.
pub fn threads_for(width: usize, steps: &[usize]) -> usize {
    let widest = steps.iter().copied().max().unwrap_or(1);
    width.min(widest).max(1)
}

/// Runs `task(local, s, t)` for every task `t < steps[s]` of every step `s`,
/// steps in order with a barrier between them, on `locals.len()` threads:
/// the caller (with `locals[0]`) and one scoped helper per further local,
/// which is the thread's private state for the call. The caller runs
/// `on_step(s)` as it enters step `s`, when every thread is past the
/// previous step's barrier. See the module docs for widths and panics.
pub fn run<L: Send>(
    locals: &mut [L],
    steps: &[usize],
    task: impl Fn(&mut L, usize, usize) + Sync,
    on_step: impl FnMut(usize),
) {
    let (mine, helpers) = locals.split_first_mut().expect("the caller needs a local");
    let shared = Shared {
        steps,
        claimed: steps.iter().map(|_| AtomicUsize::new(0)).collect(),
        barrier: Barrier::new(1 + helpers.len()),
        task,
    };
    let shared = &shared;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = helpers
            .iter_mut()
            .map(|local| scope.spawn(move || shared.work(local, |_| ())))
            .collect();
        shared.work(mine, on_step);
        for helper in helpers {
            // Keep the helper's own panic message.
            helper.join().unwrap_or_else(|panic| resume_unwind(panic));
        }
    });
}

/// What every thread of one [`run`] shares.
struct Shared<'s, F> {
    steps: &'s [usize],
    /// Per step, how many of its tasks have been taken.
    claimed: Vec<AtomicUsize>,
    barrier: Barrier,
    task: F,
}

impl<F> Shared<'_, F> {
    /// One thread's share: take tasks of the current step until none is
    /// left, meet the others at the barrier, go on to the next step.
    fn work<L>(&self, local: &mut L, mut on_step: impl FnMut(usize))
    where
        F: Fn(&mut L, usize, usize),
    {
        let mut panic = None;
        // Runs `f` unless a panic is already being carried to the end.
        let mut carry = |f: &mut dyn FnMut()| {
            if panic.is_none() {
                panic = catch_unwind(AssertUnwindSafe(f)).err();
            }
        };
        Width(1).install(|| {
            for (s, (&tasks, claimed)) in self.steps.iter().zip(&self.claimed).enumerate() {
                carry(&mut || on_step(s));
                // Relaxed: the counter only hands out task indices; what
                // the tasks write is published by the barrier and the join.
                loop {
                    let t = claimed.fetch_add(1, Ordering::Relaxed);
                    if t >= tasks {
                        break;
                    }
                    carry(&mut || (self.task)(local, s, t));
                }
                self.barrier.wait();
            }
        });
        if let Some(panic) = panic {
            resume_unwind(panic);
        }
    }
}

/// Runs `f(c, chunk)` for the `c`-th `chunk`-element piece of `data` (the
/// last may be shorter) as one step on up to `width` threads. Every piece
/// goes to exactly one task, so the result does not depend on the width;
/// with one piece or `width` 1 it is a plain loop on the caller.
pub fn for_each_chunk<T: Send>(
    width: usize,
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let mut pieces: Vec<&mut [T]> = data.chunks_mut(chunk.max(1)).collect();
    let threads = threads_for(width, &[pieces.len()]);
    for_each_with(&mut vec![(); threads], &mut pieces, |_, c, piece| {
        f(c, piece)
    });
}

/// Runs `f(local, k, &mut items[k])` for every item as one step on
/// `locals.len()` threads, each with its own local (scratch a task reuses
/// for the items its thread takes). Every item goes to exactly one task;
/// with one item or one local it is a plain loop on the caller.
pub fn for_each_with<T: Send, L: Send>(
    locals: &mut [L],
    items: &mut [T],
    f: impl Fn(&mut L, usize, &mut T) + Sync,
) {
    let tasks = items.len();
    if locals.len() == 1 || tasks <= 1 {
        let local = &mut locals[0];
        return items
            .iter_mut()
            .enumerate()
            .for_each(|(k, item)| f(local, k, item));
    }
    // Every task takes the next item: `tasks` takes in all. The lock is
    // held for the take only, never while `f` runs.
    let items = Mutex::new(items.iter_mut().enumerate());
    let task = |local: &mut L, _, _| {
        let next = items.lock().expect("taking an item cannot panic").next();
        let (k, item) = next.expect("one item per task");
        f(local, k, item);
    };
    run(locals, &[tasks], task, |_| ());
}

/// `items.iter().map(f).collect()` as one step at the caller's [`width`]:
/// results in item order, each written by its task into its own slot.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for_each_chunk(width(), &mut slots, 1, |i, slot| {
        slot[0] = Some(f(&items[i]))
    });
    let filled = slots.into_iter();
    filled.map(|r| r.expect("every task ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn width_is_the_installed_one_and_nests() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!((width(), Width::new(0)), (host, Width(host)));
        Width::new(3).install(|| {
            assert_eq!(width(), 3);
            Width::new(5).install(|| assert_eq!(width(), 5));
            assert_eq!(width(), 3);
            // The width belongs to the installing thread only.
            let other = std::thread::spawn(width);
            assert_eq!(other.join().unwrap(), host);
        });
        let unwound = catch_unwind(|| Width::new(7).install(|| panic!("boom")));
        assert!(unwound.is_err());
        assert_eq!(width(), host);
    }

    #[test]
    fn steps_run_in_order_and_every_task_once() {
        for threads in [1, 2, 3, 8] {
            let steps = [5, 0, 1, 9];
            let log = Mutex::new(Vec::new());
            let mut entered = Vec::new();
            let mut locals = vec![0usize; threads];
            run(
                &mut locals,
                &steps,
                |mine, s, t| {
                    *mine += 1;
                    log.lock().unwrap().push((s, t));
                },
                |s| entered.push(s),
            );
            assert_eq!(entered, [0, 1, 2, 3]);
            assert_eq!(locals.iter().sum::<usize>(), 15);
            let log = log.into_inner().unwrap();
            // A barrier separates the steps; inside one any order goes.
            assert!(log.windows(2).all(|w| w[0].0 <= w[1].0), "{log:?}");
            let mut sorted = log.clone();
            sorted.sort_unstable();
            let all = (0..4).flat_map(|s| (0..steps[s]).map(move |t| (s, t)));
            assert_eq!(sorted, all.collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_and_chunks_are_the_sequential_result_at_any_width() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for w in [1, 2, 3, 8, 200] {
            let got = Width::new(w).install(|| map(&items, |x| x * x + 1));
            assert_eq!(got, expect, "width {w}");
            let mut data = vec![0usize; 50];
            for_each_chunk(w, &mut data, 7, |c, piece| piece.fill(c + 1));
            let by_hand: Vec<usize> = (0..50).map(|i| i / 7 + 1).collect();
            assert_eq!(data, by_hand, "width {w}");
        }
        assert_eq!(map(&[] as &[u8], |x| *x), Vec::<u8>::new());
        for_each_chunk(4, &mut [] as &mut [u8], 0, |_, _| unreachable!());
    }

    #[test]
    fn a_task_runs_at_width_one_on_caller_and_helper() {
        // Both tasks are in flight at once, so one of them is on a helper.
        let meet = Barrier::new(2);
        let seen = Width::new(2).install(|| {
            map(&[(); 2], |()| {
                meet.wait();
                let me = std::thread::current().id();
                // A nested call spawns nothing: every piece runs right here.
                let mut inner = [me; 16];
                let nested = Mutex::new(Vec::new());
                for_each_chunk(width(), &mut inner, 1, |_, _| {
                    nested.lock().unwrap().push(std::thread::current().id())
                });
                let nested = nested.into_inner().unwrap();
                (me, width(), nested.iter().all(|&id| id == me))
            })
        });
        assert_ne!(seen[0].0, seen[1].0, "two tasks, two threads");
        assert!(seen.iter().all(|&(_, w, inline)| w == 1 && inline));
        assert_eq!(width(), available(), "restored after the call");
    }

    #[test]
    fn a_panicking_task_surfaces_its_message_and_nobody_hangs() {
        let meet = Barrier::new(2);
        let ran = AtomicUsize::new(0);
        let mut locals = [(), ()];
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            run(
                &mut locals,
                &[2, 4, 1],
                |_, s, t| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if s == 0 {
                        // Both threads are inside step 0 when one panics.
                        meet.wait();
                        assert!(t != 1, "task {t} of step 0 failed");
                    }
                },
                |_| (),
            )
        }));
        let panic = unwound.expect_err("the panic reaches the caller");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("task 1 of step 0 failed"), "{message}");
        // The thread that panicked skipped its later tasks; the other ran
        // what it took, and every barrier was met (the call returned).
        assert!((2..=7).contains(&ran.load(Ordering::Relaxed)));
        assert_eq!(width(), available());
    }
}
