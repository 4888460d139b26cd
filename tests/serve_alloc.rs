//! Asserts the acceptance criterion that the `DispatchIndex::lookup_ref`
//! hot path is allocation-free: a counting global allocator observes
//! zero allocations across a full warmed-up probe sweep, including
//! ambiguous hits (whose witnesses are served as pool borrows instead
//! of cloned `Vec`s).
//!
//! Lives in its own integration-test binary because installing a
//! `#[global_allocator]` is process-global and the counting wrapper
//! needs `unsafe` (the library crates `forbid(unsafe_code)`; test
//! binaries are separate crates).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cpplookup::chg::fixtures;
use cpplookup::hiergen::families;
use cpplookup::prelude::*;

thread_local! {
    /// Allocations observed on this thread while [`COUNTING`] is set.
    /// Thread-local so allocator traffic from other test threads run by
    /// the harness cannot pollute the measurement.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping only
// touches plain thread-local `Cell`s (`try_with`: allocation during TLS
// teardown is simply not counted rather than panicking).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTING.try_with(|counting| {
            if counting.get() {
                let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNTING.try_with(|counting| {
            if counting.get() {
                let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
            }
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on and returns how many
/// allocations it performed on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.set(0);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.get()
}

#[test]
fn lookup_ref_hot_path_is_allocation_free() {
    // fig1's E::m is the paper's ambiguity; the wide diamond adds bulk
    // and more ambiguous rows. Both indexes together cover resolved,
    // ambiguous, and not-found verdicts.
    let ambiguous_g = fixtures::fig1();
    let bulk_g = families::wide_diamond(8, Inheritance::NonVirtual);
    let indexes = [
        (
            DispatchIndex::from_backend(LookupTable::build(&ambiguous_g)),
            &ambiguous_g,
        ),
        (
            DispatchIndex::from_backend(LookupTable::build(&bulk_g)),
            &bulk_g,
        ),
    ];
    let mut shape_counts = [0u64; 3];
    for (index, g) in &indexes {
        let mut probes: Vec<_> = g
            .classes()
            .flat_map(|c| g.member_ids().map(move |m| (c, m)))
            .collect();
        // Both fixtures declare one member visible everywhere, so add a
        // miss explicitly to cover the not-found shape.
        probes.push((
            g.classes().next().unwrap(),
            cpplookup::MemberId::from_index(g.member_name_count() + 1),
        ));
        // Warm up: fault in pages, lazily initialized TLS, anything
        // one-time — the acceptance criterion is about the steady state.
        for &(c, m) in &probes {
            std::hint::black_box(index.lookup_ref(c, m));
        }
        let allocs = count_allocs(|| {
            for _ in 0..16 {
                for &(c, m) in &probes {
                    match std::hint::black_box(index.lookup_ref(c, m)) {
                        OutcomeRef::Resolved {
                            class,
                            least_virtual,
                        } => {
                            std::hint::black_box((class, least_virtual));
                            shape_counts[0] += 1;
                        }
                        OutcomeRef::Ambiguous { witnesses } => {
                            // Walk the borrowed witness set too: this is
                            // exactly the path that used to clone a Vec.
                            for lv in witnesses.iter() {
                                std::hint::black_box(lv);
                            }
                            shape_counts[1] += 1;
                        }
                        OutcomeRef::NotFound => shape_counts[2] += 1,
                    }
                }
            }
        });
        assert_eq!(
            allocs,
            0,
            "lookup_ref allocated {allocs} times over {} probes",
            probes.len() * 16
        );
    }
    assert!(
        shape_counts.iter().all(|&n| n > 0),
        "sweep must exercise resolved/ambiguous/not-found ({shape_counts:?})"
    );
}

/// The SWAR batch path inherits the criterion: once the caller's output
/// buffer has been warmed to capacity, `lookup_batch_into` performs
/// zero allocations per stripe — the whole point of taking `&mut Vec`
/// instead of returning a fresh one.
#[test]
fn lookup_batch_into_hot_path_is_allocation_free() {
    let ambiguous_g = fixtures::fig1();
    let bulk_g = families::wide_diamond(8, Inheritance::NonVirtual);
    for g in [&ambiguous_g, &bulk_g] {
        let index = DispatchIndex::from_backend(LookupTable::build(g));
        let mut probes: Vec<_> = g
            .classes()
            .flat_map(|c| g.member_ids().map(move |m| (c, m)))
            .collect();
        // A guaranteed miss, so the batch covers the not-found shape.
        probes.push((
            g.classes().next().unwrap(),
            cpplookup::MemberId::from_index(g.member_name_count() + 1),
        ));
        let mut out = Vec::new();
        // Warm up: grows `out` to its steady-state capacity and faults
        // in anything one-time, exactly like the single-probe test.
        index.lookup_batch_into(&probes, &mut out);
        let expected: Vec<_> = probes
            .iter()
            .map(|&(c, m)| index.lookup_ref(c, m).to_outcome())
            .collect();
        let allocs = count_allocs(|| {
            for _ in 0..16 {
                index.lookup_batch_into(&probes, &mut out);
                for r in &out {
                    if let OutcomeRef::Ambiguous { witnesses } = r {
                        for lv in witnesses.iter() {
                            std::hint::black_box(lv);
                        }
                    }
                }
                std::hint::black_box(out.len());
            }
        });
        assert_eq!(
            allocs,
            0,
            "lookup_batch_into allocated {allocs} times over {} probes × 16",
            probes.len()
        );
        // And the reused buffer still holds the right answers.
        let got: Vec<_> = out.iter().map(|r| r.to_outcome()).collect();
        assert_eq!(got, expected);
    }
}

/// Contrast case documenting *why* `lookup_ref` exists: the owned
/// `lookup` necessarily allocates on ambiguous hits (it materializes
/// the witness `Vec`), which is exactly what the ref path avoids.
#[test]
fn owned_lookup_allocates_on_ambiguous_hits() {
    let g = fixtures::fig1();
    let index = DispatchIndex::from_backend(LookupTable::build(&g));
    let e = g.class_by_name("E").unwrap();
    let m = g.member_by_name("m").unwrap();
    assert!(matches!(
        index.lookup_ref(e, m),
        OutcomeRef::Ambiguous { .. }
    ));
    let allocs = count_allocs(|| {
        std::hint::black_box(index.lookup(e, m));
    });
    assert!(allocs > 0, "owned ambiguous lookup should allocate");
}
