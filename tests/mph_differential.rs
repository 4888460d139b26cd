//! Differential tests of the two probe directories: the minimal
//! perfect hash directory (the serving default since the MPH tentpole)
//! must be observationally identical to the open-addressed directory it
//! replaced — same `OutcomeRef` for every live `(class, member)` pair,
//! same `NotFound` for every dead key — across the full generator
//! corpus, both statics rules, and proptest-fuzzed probe streams that
//! deliberately stray outside the live id ranges. Edited indexes are
//! checked too: a directory patched edit by edit (cells overwritten in
//! place, new keys spilled, the spill folded into a rebuilt hash) must
//! answer exactly what a table built from scratch answers.

use std::sync::Arc;

use cpplookup::hiergen::{edit_script, families, random_hierarchy, EditScriptConfig, RandomConfig};
use cpplookup::lookup::PublishedIndex;
use cpplookup::prelude::*;
use proptest::prelude::*;

/// The same twelve deterministic families as the golden snapshot
/// corpus (`tests/corpus.rs`), spanning chains, diamonds, grids,
/// interface forests, the g++ trap, and seeded random hierarchies.
fn corpus() -> Vec<(&'static str, Chg)> {
    vec![
        ("chain_12", families::chain(12, None)),
        ("chain_12_virtual_3", families::chain(12, Some(3))),
        (
            "stacked_diamonds_3_nonvirtual",
            families::stacked_diamonds(3, Inheritance::NonVirtual),
        ),
        (
            "stacked_diamonds_3_virtual",
            families::stacked_diamonds(3, Inheritance::Virtual),
        ),
        (
            "stacked_diamonds_overridden_3",
            families::stacked_diamonds_overridden(3, Inheritance::Virtual),
        ),
        (
            "wide_diamond_6",
            families::wide_diamond(6, Inheritance::Virtual),
        ),
        ("pyramid_4", families::pyramid(4, Inheritance::NonVirtual)),
        ("interface_heavy_6x3", families::interface_heavy(6, 3)),
        ("grid_3x3", families::grid(3, 3)),
        ("gxx_trap_3", families::gxx_trap(3)),
        (
            "random_stress_42",
            random_hierarchy(&RandomConfig::stress(42)),
        ),
        (
            "random_realistic_20_7",
            random_hierarchy(&RandomConfig::realistic(20, 7)),
        ),
    ]
}

/// Exhaustive sweep: every pair in (and a margin beyond) the live id
/// ranges, under both statics rules, through both directories — the
/// outcomes must match pairwise, and both batch paths must match the
/// single-probe path.
#[test]
fn mph_and_open_directories_agree_on_the_full_corpus() {
    for (name, g) in corpus() {
        for statics in [StaticRule::Cpp, StaticRule::Ignore] {
            let table = LookupTable::build_with(&g, LookupOptions { statics });
            let mph = DispatchIndex::from_backend(table);
            assert_eq!(mph.directory_kind(), DirectoryKind::Mph, "{name}");
            let open = mph.with_directory_kind(DirectoryKind::Open);
            assert_eq!(open.directory_kind(), DirectoryKind::Open, "{name}");
            let probes: Vec<_> = (0..g.class_count() + 3)
                .flat_map(|c| {
                    (0..g.member_name_count() + 3)
                        .map(move |m| (ClassId::from_index(c), MemberId::from_index(m)))
                })
                .collect();
            for &(c, m) in &probes {
                assert_eq!(
                    mph.lookup_ref(c, m),
                    open.lookup_ref(c, m),
                    "{name} statics={statics:?} probe ({}, {})",
                    c.index(),
                    m.index()
                );
            }
            let mut mph_batch = Vec::new();
            let mut open_batch = Vec::new();
            mph.lookup_batch_into(&probes, &mut mph_batch);
            open.lookup_batch_into(&probes, &mut open_batch);
            assert_eq!(mph_batch.len(), probes.len(), "{name}");
            assert_eq!(mph_batch, open_batch, "{name} statics={statics:?}");
            for (r, &(c, m)) in mph_batch.iter().zip(&probes) {
                assert_eq!(r, &mph.lookup_ref(c, m), "{name} batch vs single");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzzed dead keys: probes drawn far outside the live ranges (and
    /// landing on dead pairs inside them) must come back `NotFound`
    /// from the MPH directory — an alien key hashes *somewhere* in
    /// range, so this is exactly the key-compare rejection working —
    /// and both directories must agree probe for probe.
    #[test]
    fn fuzzed_probes_never_diverge(
        family in 0usize..12,
        raw in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..128),
    ) {
        let (name, g) = corpus().swap_remove(family);
        let mph = DispatchIndex::from_backend(LookupTable::build(&g));
        let open = mph.with_directory_kind(DirectoryKind::Open);
        let probes: Vec<_> = raw
            .iter()
            .map(|&(c, m)| {
                (
                    ClassId::from_index(c as usize),
                    MemberId::from_index(m as usize),
                )
            })
            .collect();
        let mut batch = Vec::new();
        mph.lookup_batch_into(&probes, &mut batch);
        for (i, &(c, m)) in probes.iter().enumerate() {
            let got = mph.lookup_ref(c, m);
            prop_assert_eq!(&got, &open.lookup_ref(c, m), "{} probe {}", name, i);
            prop_assert_eq!(&got, &batch[i], "{} batch probe {}", name, i);
            if mph.entry(c, m).is_none() {
                prop_assert_eq!(&got, &OutcomeRef::NotFound, "{} dead key {}", name, i);
            }
        }
    }
}

/// Rows an edit can change, from the post-edit hierarchy: the edited
/// class and every class derived from it. A new class lies beyond the
/// old row count, which a refresh always re-probes.
fn touched_rows(chg: &Chg, edit: &Edit) -> Vec<(ClassId, MemberId)> {
    let root = match edit {
        Edit::AddClass { .. } => return Vec::new(),
        Edit::AddMember { class, .. } => *class,
        Edit::AddEdge { derived, .. } => *derived,
    };
    std::iter::once(root)
        .chain(chg.derived_of(root))
        .map(|c| (c, MemberId::from_index(0)))
        .collect()
}

/// Every `(class, member)` pair of `chg` plus two dead ids past each
/// range, and one probe far out of range on both axes.
fn all_probes(chg: &Chg) -> Vec<(ClassId, MemberId)> {
    let mut probes: Vec<_> = (0..chg.class_count() + 2)
        .flat_map(|c| {
            (0..chg.member_name_count() + 2)
                .map(move |m| (ClassId::from_index(c), MemberId::from_index(m)))
        })
        .collect();
    probes.push((
        ClassId::from_index(u32::MAX as usize),
        MemberId::from_index(u32::MAX as usize),
    ));
    probes
}

/// Asserts that `index` answers every probe of `probes` — through
/// `lookup_ref`, `entry`, and `lookup_batch_into` at odd stripe
/// lengths — as `table` (built over `chg`) does.
fn assert_serves_table(
    label: &str,
    index: &DispatchIndex,
    chg: &Chg,
    table: &LookupTable,
    probes: &[(ClassId, MemberId)],
) {
    let live = |c: ClassId, m: MemberId| {
        c.index() < chg.class_count() && m.index() < chg.member_name_count()
    };
    let expected: Vec<LookupOutcome> = probes
        .iter()
        .map(|&(c, m)| {
            if live(c, m) {
                table.lookup(c, m)
            } else {
                LookupOutcome::NotFound
            }
        })
        .collect();
    for (i, &(c, m)) in probes.iter().enumerate() {
        assert_eq!(
            index.lookup_ref(c, m).to_outcome(),
            expected[i],
            "{label}: lookup_ref ({}, {})",
            c.index(),
            m.index()
        );
        let entry = live(c, m).then(|| table.entry(c, m).cloned()).flatten();
        assert_eq!(
            index.entry(c, m),
            entry,
            "{label}: entry ({}, {})",
            c.index(),
            m.index()
        );
    }
    let mut out = Vec::new();
    for stride in [7, 13] {
        for (chunk, want) in probes.chunks(stride).zip(expected.chunks(stride)) {
            index.lookup_batch_into(chunk, &mut out);
            let got: Vec<LookupOutcome> = out.iter().map(|o| o.to_outcome()).collect();
            assert_eq!(got, want, "{label}: lookup_batch_into stride {stride}");
        }
    }
}

/// An edit script over a realistic family, long enough that the MPH
/// directory's spill crosses its fold bound at least once, replayed on
/// both directory kinds: the MPH kind through `IndexedEngine`, the open
/// kind through `DispatchIndex::refreshed`. After every edit both must
/// serve what `LookupTable::build` of the same hierarchy serves, and an
/// `Arc` pinned at an earlier epoch must keep answering that epoch.
#[test]
fn patched_directories_match_a_rebuilt_table_across_an_edit_script() {
    let (base, edits) = edit_script(&EditScriptConfig::realistic(40, 80, 3));
    let mut serving = IndexedEngine::new(LookupEngine::new(base.clone()));
    let handle = serving.handle();
    let mut engine = LookupEngine::new(base);
    let mut open = DispatchIndex::from_backend(&engine).with_directory_kind(DirectoryKind::Open);
    let mut pinned: Option<(Arc<PublishedIndex>, Chg, LookupTable)> = None;
    let (mut spilled_max, mut folds) = (0, 0);
    for (i, edit) in edits.iter().enumerate() {
        let spilled_before = handle.load().index().spilled_keys();
        serving.apply(std::slice::from_ref(edit)).unwrap();
        engine.apply(std::slice::from_ref(edit)).unwrap();
        open = open.refreshed(&engine, &touched_rows(engine.chg(), edit));
        assert_eq!(open.directory_kind(), DirectoryKind::Open);

        let current = handle.load();
        let index = current.index();
        assert_eq!(index.directory_kind(), DirectoryKind::Mph);
        let spilled = index.spilled_keys();
        spilled_max = spilled_max.max(spilled);
        if spilled < spilled_before {
            folds += 1;
        }
        let chg = serving.engine().chg();
        let table = LookupTable::build(chg);
        let probes = all_probes(chg);
        assert_serves_table(&format!("mph, edit {i}"), index, chg, &table, &probes);
        assert_serves_table(&format!("open, edit {i}"), &open, chg, &table, &probes);
        if pinned.is_none() && spilled > 0 {
            pinned = Some((current.clone(), chg.clone(), table));
        }
    }
    assert!(spilled_max > 0, "no edit spilled a key");
    assert!(folds > 0, "the script never crossed the fold bound");
    let (old, chg, table) = pinned.expect("an epoch with a spill was pinned");
    assert!(old.epoch() < handle.epoch());
    assert!(old.index().spilled_keys() > 0);
    assert_serves_table("pinned epoch", old.index(), &chg, &table, &all_probes(&chg));
}
