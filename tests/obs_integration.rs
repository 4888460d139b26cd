//! Cross-layer observability test: the engine's cache metrics must
//! agree, to the entry, with what the incremental-invalidation theory
//! predicts for a scripted edit-then-lookup sequence.
//!
//! A lazy engine that has swept every `(class, member)` pair holds a
//! complete cache (Present *and* Absent entries). An edit then drops
//! exactly its dirty closure — `{b} ∪ derived_of(b)` crossed with the
//! affected members — so three independently obtained numbers must
//! coincide:
//!
//! 1. `entries_invalidated` as counted by the engine's metrics,
//! 2. the dirty-set size reported by the `EditApplied` trace event,
//!    and
//! 3. the closure size recomputed here from the public `Chg` API,
//!    which is also the number of cache misses the next full sweep
//!    takes.

use std::sync::Arc;

use cpplookup::hiergen::{random_hierarchy, RandomConfig};
use cpplookup::obs;
use cpplookup::prelude::*;

/// Sweeps every `(class, member)` pair and returns the sweep's
/// `(hits, misses)` deltas.
fn sweep(engine: &LookupEngine) -> (u64, u64) {
    let before = engine.stats();
    let queries: Vec<(ClassId, MemberId)> = engine
        .chg()
        .classes()
        .flat_map(|c| engine.chg().member_ids().map(move |m| (c, m)))
        .collect();
    engine.lookup_batch(&queries);
    let after = engine.stats();
    (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    )
}

/// The dirty closure of adding an edge below `derived`, computed from
/// the *post-edit* hierarchy with the public `Chg` API only: every
/// member visible at `derived` or at any class transitively derived
/// from it.
fn edge_closure_size(engine: &LookupEngine, derived: ClassId) -> u64 {
    let chg = engine.chg();
    std::iter::once(derived)
        .chain(chg.derived_of(derived))
        .map(|d| {
            chg.member_ids()
                .filter(|&m| chg.is_member_visible(d, m))
                .count() as u64
        })
        .sum()
}

#[test]
fn cache_metrics_match_dirty_closure_across_edits() {
    let chg = random_hierarchy(&RandomConfig::realistic(120, 42));
    let pairs = (chg.class_count() * chg.member_name_count()) as u64;
    let mut engine = LookupEngine::with_options(chg, EngineOptions::lazy());
    // Full sweeps emit several events per query; size the buffer so the
    // EditApplied events at the end of the script are never dropped.
    let sink = Arc::new(obs::MemorySink::with_capacity(1 << 20));
    engine.set_event_sink(Some(sink.clone()));

    // Cold sweep: every pair misses, none hit; the cache is now total.
    let (hits, misses) = sweep(&engine);
    assert_eq!((hits, misses), (0, pairs));
    assert_eq!(engine.stats().cached_entries, pairs);

    // Warm sweep: pure hits.
    let (hits, misses) = sweep(&engine);
    assert_eq!((hits, misses), (pairs, 0));

    // Script: declare a fresh member, then splice a new inheritance
    // edge between two previously unrelated classes.
    let k3 = engine.chg().class_by_name("K3").unwrap();
    let invalidated_before = engine.stats().entries_invalidated;
    engine.add_member(k3, "obs_probe").unwrap();
    let member_invalidated = engine.stats().entries_invalidated - invalidated_before;
    // The cache held no entries for a brand-new member name, so the
    // edit invalidates nothing even though its dirty set is the whole
    // derived closure of K3.
    assert_eq!(member_invalidated, 0);
    let member_closure = 1 + engine.chg().derived_of(k3).count() as u64;

    // Sweep again: misses are exactly the new member's dirty closure
    // (the probe is Absent everywhere else, and Absent is cached too —
    // so only genuinely dirty keys recompute)... plus the new member
    // column for the previously swept classes, which was never cached.
    let fresh_column = engine.chg().class_count() as u64;
    let (_, misses) = sweep(&engine);
    assert_eq!(misses, fresh_column);
    assert!(member_closure <= fresh_column);

    // Now the edge edit, against a total cache again. Pick the first
    // pair of classes with no inheritance relation in either direction
    // (so the edit is legal) where the derived side already sees some
    // member (so the closure is nonempty).
    let (derived, base) = {
        let chg = engine.chg();
        chg.classes()
            .flat_map(|d| chg.classes().map(move |b| (d, b)))
            .find(|&(d, b)| {
                d != b
                    && !chg.is_base_of(b, d)
                    && !chg.is_base_of(d, b)
                    && chg.member_ids().any(|m| chg.is_member_visible(d, m))
            })
            .expect("a realistic hierarchy has unrelated classes")
    };
    let invalidated_before = engine.stats().entries_invalidated;
    engine
        .add_edge(derived, base, Inheritance::NonVirtual)
        .unwrap();
    let edge_invalidated = engine.stats().entries_invalidated - invalidated_before;

    // (1) metrics == (3) closure recomputed from the Chg API.
    let closure = edge_closure_size(&engine, derived);
    assert!(closure > 0, "workload edit must dirty something");
    assert_eq!(edge_invalidated, closure);

    // (3) is also the next sweep's miss count: only dirty keys recompute.
    let (hits, misses) = sweep(&engine);
    let pairs_now = (engine.chg().class_count() * engine.chg().member_name_count()) as u64;
    assert_eq!(misses, closure);
    assert_eq!(hits, pairs_now - closure);

    // (2) the EditApplied trace events carry the same numbers.
    let edits: Vec<(usize, usize)> = sink
        .events()
        .iter()
        .filter_map(|e| match *e {
            obs::Event::EditApplied {
                dirty, invalidated, ..
            } => Some((dirty, invalidated)),
            _ => None,
        })
        .collect();
    assert_eq!(edits.len(), 2, "one event per scripted edit");
    assert_eq!(edits[0], (member_closure as usize, 0));
    assert_eq!(edits[1], (closure as usize, closure as usize));
}

/// The batched compiler's build metrics: on an interface-heavy family
/// (many members, each visible in a small slice of the hierarchy) the
/// member-frontier pruning must skip a nonzero — in fact dominant —
/// share of the `|N|·|M|` pair grid, and each build must land in the
/// `build_nodes_visited_total{strategy}` family and the `build_seconds`
/// histogram. Counters are process-global, so the test works in deltas.
/// Serializes the tests that build whole tables: the build counters are
/// process-global, and delta-based assertions must not see each other's
/// builds.
static BUILD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn build_metrics_report_frontier_pruning() {
    let _serial = BUILD_LOCK.lock().unwrap();
    let registry = obs::global();
    let visited = |label: &str| {
        registry
            .counter_family("build_nodes_visited_total", "", "strategy")
            .with_label(label)
            .get()
    };
    let pruned = || registry.counter("build_members_pruned_total", "").get();
    let builds = || {
        registry
            .histogram("build_seconds", "", cpplookup::obs::Histogram::latency_ns())
            .snapshot()
            .count
    };

    let g = cpplookup::hiergen::families::interface_heavy(40, 3);
    let pairs = (g.class_count() * g.member_name_count()) as u64;
    let (visited0, pruned0, builds0) = (visited("batched"), pruned(), builds());
    let table = cpplookup::LookupTable::build(&g);
    let (dv, dp) = (visited("batched") - visited0, pruned() - pruned0);
    assert!(dp > 0, "interface-heavy families must prune");
    assert_eq!(
        dv + dp,
        pairs,
        "live pairs + pruned pairs must tile the |N|·|M| grid"
    );
    assert_eq!(dv, table.stats().entries as u64, "live pairs == entries");
    assert!(dp > dv, "interfaces are invisible to most classes");
    assert_eq!(builds() - builds0, 1, "one build_seconds observation");

    // The parallel strategy reports under its own label, same totals.
    let (par0, pruned1) = (visited("batched-parallel"), pruned());
    cpplookup::LookupTable::build_parallel(&g, Default::default(), 4);
    assert_eq!(visited("batched-parallel") - par0, dv);
    assert_eq!(pruned() - pruned1, dp);
}

#[test]
fn eager_engines_never_miss_after_edits() {
    let _serial = BUILD_LOCK.lock().unwrap();
    let chg = random_hierarchy(&RandomConfig::realistic(60, 7));
    let mut engine = LookupEngine::with_options(chg, EngineOptions::default());
    let (_, misses) = sweep(&engine);
    assert_eq!(misses, 0, "eager cache is complete from construction");

    let k2 = engine.chg().class_by_name("K2").unwrap();
    engine.add_member(k2, "probe").unwrap();
    let stats = engine.stats();
    // Eager backing recomputes the dirty set inside apply(): the member
    // edit's closure reappears as recomputed entries...
    assert_eq!(
        stats.entries_recomputed,
        1 + engine.chg().derived_of(k2).count() as u64
    );
    // ...so the very next sweep still never misses.
    let (_, misses) = sweep(&engine);
    assert_eq!(misses, 0);
}

/// `mph_build_seconds` observes hash constructions only: placing a v2
/// snapshot's serialized hash and patching a directory on edit run
/// none, and an edit that overflows the directory's spill folds it
/// into exactly one new hash. The histogram is process-global, so the
/// test works in deltas under the build lock.
#[test]
fn mph_build_seconds_counts_only_hash_constructions() {
    let _serial = BUILD_LOCK.lock().unwrap();
    let builds = || {
        obs::global()
            .histogram(
                "mph_build_seconds",
                "",
                cpplookup::obs::Histogram::latency_ns(),
            )
            .snapshot()
            .count
    };
    let chg = random_hierarchy(&RandomConfig::realistic(120, 42));

    // Promoting a v2 snapshot places the hash it ships.
    let bytes = Snapshot::compile(&chg).into_bytes();
    let before = builds();
    let index = DispatchIndex::from_backend(&SnapshotTable::from_bytes(bytes).unwrap());
    assert_eq!(index.directory_kind(), DirectoryKind::Mph);
    assert_eq!(builds() - before, 0, "snapshot promotion built a hash");

    // Edits whose new keys fit the spill patch the directory.
    let mut serving = IndexedEngine::new(LookupEngine::new(chg));
    let n = serving.handle().load().index().entry_count();
    let (leaf, root) = {
        let chg = serving.engine().chg();
        let derived = |c: ClassId| chg.derived_of(c).count();
        let leaf = chg.classes().find(|&c| derived(c) == 0).unwrap();
        (leaf, chg.classes().max_by_key(|&c| derived(c)).unwrap())
    };
    let member = |class: ClassId, name: String| Edit::AddMember {
        class,
        name,
        decl: MemberDecl::public(MemberKind::Function),
    };
    let before = builds();
    serving.apply(&[member(leaf, "leaf_probe".into())]).unwrap();
    serving
        .apply(&[Edit::AddClass {
            name: "Fresh".into(),
        }])
        .unwrap();
    assert_eq!(serving.handle().load().index().spilled_keys(), 1);
    assert_eq!(builds() - before, 0, "non-folding edits built a hash");

    // One transaction adding more keys than the spill may hold folds
    // it into a single rebuilt hash.
    let per_member = 1 + serving.engine().chg().derived_of(root).count();
    let batch: Vec<Edit> = (0..n / 8 / per_member + 1)
        .map(|i| member(root, format!("fold_probe_{i}")))
        .collect();
    let before = builds();
    serving.apply(&batch).unwrap();
    assert_eq!(serving.handle().load().index().spilled_keys(), 0);
    assert_eq!(builds() - before, 1, "a fold builds exactly one hash");
}
