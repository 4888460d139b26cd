//! Seeded inputs: hierarchies, probe streams, and edit scripts, plus
//! the in-process reference answers every wire outcome is checked
//! against.

use cpplookup_chg::{
    apply_edits, Access, Chg, ClassId, Edit, Inheritance, MemberDecl, MemberId, MemberKind,
};
use cpplookup_core::{
    EngineOptions, IndexedEngine, LeastVirtual, LookupEngine, LookupOutcome, LookupTable,
};
use cpplookup_hiergen::{edit_script, random_hierarchy, EditScriptConfig, RandomConfig};
use cpplookup_server::protocol::{WireLv, WireOutcome};

/// SplitMix64: small, fast, and deterministic in its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n`, sampled by inverting a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// The hierarchy seed. It is fixed, so every run of a workload serves
/// the same working set (see NOTES.md); the run's seed varies the probe
/// draws, the tenant skew, and the edit script instead.
pub const HIERARCHY_SEED: u64 = 42;

/// The realistic hierarchy every workload starts from.
pub fn hierarchy(classes: usize) -> Chg {
    random_hierarchy(&RandomConfig::realistic(classes, HIERARCHY_SEED))
}

/// Every `(class, member)` pair the compiled table holds an entry for —
/// the key set the dispatch directory is built over.
pub fn entry_keys(table: &LookupTable, chg: &Chg) -> Vec<(ClassId, MemberId)> {
    chg.classes()
        .flat_map(|c| table.members_of(c).map(move |m| (c, m)))
        .collect()
}

/// A lookup outcome rendered with names, as the wire carries it.
pub fn wire_outcome(chg: &Chg, outcome: &LookupOutcome) -> WireOutcome {
    let lv = |lv: &LeastVirtual| match lv {
        LeastVirtual::Omega => WireLv::Omega,
        LeastVirtual::Class(c) => WireLv::Class(chg.class_name(*c).to_owned()),
    };
    match outcome {
        LookupOutcome::NotFound => WireOutcome::NotFound,
        LookupOutcome::Resolved {
            class,
            least_virtual,
        } => WireOutcome::Resolved {
            class: chg.class_name(*class).to_owned(),
            least_virtual: lv(least_virtual),
        },
        LookupOutcome::Ambiguous { witnesses } => WireOutcome::Ambiguous {
            witnesses: witnesses.iter().map(lv).collect(),
        },
    }
}

/// A probe by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Probe {
    pub class: String,
    pub member: String,
}

impl Probe {
    pub fn of(chg: &Chg, c: ClassId, m: MemberId) -> Probe {
        Probe {
            class: chg.class_name(c).to_owned(),
            member: chg.member_name(m).to_owned(),
        }
    }
}

/// `n` distinct probes sampled uniformly from the table's entries, in
/// sampled order (rank 0 is the hottest under a zipf draw).
pub fn probe_pool(
    keys: &[(ClassId, MemberId)],
    n: usize,
    rng: &mut Rng,
) -> Vec<(ClassId, MemberId)> {
    let n = n.min(keys.len());
    let mut picked = std::collections::HashSet::with_capacity(n);
    let mut pool = Vec::with_capacity(n);
    while pool.len() < n {
        let k = keys[rng.below(keys.len())];
        if picked.insert(k) {
            pool.push(k);
        }
    }
    pool
}

/// A generated edit, as the wire directive the server parses and as
/// the [`Edit`] that directive means.
pub struct ScriptedEdit {
    pub directive: String,
    pub edit: Edit,
    /// A probe whose answer shows the edit took effect (checked after
    /// restart against the final reference state).
    pub witness: Probe,
}

/// `count` edits from `hiergen::edit_script`, drawn from `seed`, over
/// the same realistic hierarchy [`hierarchy`] builds, rendered as wire
/// directives. The returned edits carry exactly what the server's
/// directive parser builds (public function members, public edges), so
/// the in-process reference applies the same change the server does.
///
/// Each edit's witness is a probe whose reference answer differs before
/// and after that edit, so a check after restart shows whether the edit
/// was replayed. An edge that changes no lookup (its base has no
/// members to inherit, or the derived class already sees them the same
/// way) has no witness; such edges are left out of the script, and it
/// is an error if fewer than `count` edits remain.
pub fn edit_directives(
    classes: usize,
    seed: u64,
    count: usize,
) -> Result<Vec<ScriptedEdit>, String> {
    let (base, edits) = edit_script(&EditScriptConfig {
        seed,
        ..EditScriptConfig::realistic(classes, 2 * count + 8, HIERARCHY_SEED)
    });
    let any_member = base
        .member_ids()
        .next()
        .map(|m| base.member_name(m).to_owned())
        .unwrap_or_else(|| "m0".to_owned());
    // Lazy engines answer the few probes the witness search asks
    // without compiling a table per edit.
    let lazy = |chg: Chg| LookupEngine::with_options(chg, EngineOptions::lazy());
    let mut engine = lazy(base);
    let mut out = Vec::with_capacity(count);
    for e in edits {
        if out.len() == count {
            break;
        }
        let chg = engine.chg();
        let (directive, edit, candidates) = match e {
            Edit::AddClass { name } => (
                format!("class {name}"),
                Edit::AddClass { name: name.clone() },
                vec![Probe {
                    class: name,
                    member: any_member.clone(),
                }],
            ),
            Edit::AddMember { class, name, .. } => {
                let cname = chg.class_name(class).to_owned();
                (
                    format!("member {cname} {name}"),
                    Edit::AddMember {
                        class,
                        name: name.clone(),
                        decl: MemberDecl::public(MemberKind::Function),
                    },
                    vec![Probe {
                        class: cname,
                        member: name,
                    }],
                )
            }
            Edit::AddEdge {
                derived,
                base: b,
                inheritance,
                ..
            } => {
                let (d, bn) = (chg.class_name(derived), chg.class_name(b));
                let virt = if inheritance == Inheritance::Virtual {
                    " virtual"
                } else {
                    ""
                };
                // The base's own members first, then every member name.
                let members = chg
                    .declared_members(b)
                    .iter()
                    .map(|&(m, _)| m)
                    .chain(chg.member_ids());
                (
                    format!("edge {d} {bn}{virt}"),
                    Edit::AddEdge {
                        derived,
                        base: b,
                        inheritance,
                        access: Access::Public,
                    },
                    members
                        .map(|m| Probe {
                            class: d.to_owned(),
                            member: chg.member_name(m).to_owned(),
                        })
                        .collect(),
                )
            }
        };
        let next = apply_edits(engine.chg(), std::slice::from_ref(&edit))
            .map_err(|x| format!("edit script: `{directive}` rejected: {x}"))?;
        let next = lazy(next);
        let witness = candidates
            .into_iter()
            .find(|p| engine_answer(&next, p) != engine_answer(&engine, p));
        if let Some(witness) = witness {
            engine = next;
            out.push(ScriptedEdit {
                directive,
                edit,
                witness,
            });
        }
    }
    if out.len() < count {
        return Err(format!(
            "edit script of seed {seed}: only {} of {count} edits change a lookup",
            out.len()
        ));
    }
    Ok(out)
}

/// A named probe's answer from an engine, `None` for an unknown name.
fn engine_answer(engine: &LookupEngine, p: &Probe) -> Option<WireOutcome> {
    let chg = engine.chg();
    let (c, m) = (chg.class_by_name(&p.class)?, chg.member_by_name(&p.member)?);
    Some(wire_outcome(chg, &engine.lookup(c, m)))
}

/// Answers for a fixed probe list at every version of an edit script:
/// `answers[v][i]` is probe `i` after the first `v` edits. Outcomes are
/// interned per probe, so a wire answer can be matched to the versions
/// that produce it.
pub struct Versioned {
    /// `distinct[i]` lists the outcomes probe `i` takes across versions;
    /// `None` while the probe names a class or member no edit has made.
    distinct: Vec<Vec<Option<WireOutcome>>>,
    /// `by_version[v][i]` indexes into `distinct[i]`.
    by_version: Vec<Vec<u16>>,
}

impl Versioned {
    pub fn build(chg: Chg, probes: &[Probe], edits: &[ScriptedEdit]) -> Result<Versioned, String> {
        let mut serving = IndexedEngine::new(LookupEngine::new(chg));
        let mut distinct: Vec<Vec<Option<WireOutcome>>> = vec![Vec::new(); probes.len()];
        let mut by_version = Vec::with_capacity(edits.len() + 1);
        for v in 0..=edits.len() {
            if v > 0 {
                serving
                    .apply(std::slice::from_ref(&edits[v - 1].edit))
                    .map_err(|e| format!("reference rejected `{}`: {e}", edits[v - 1].directive))?;
            }
            let row = probes
                .iter()
                .zip(&mut distinct)
                .map(|(p, seen)| {
                    let o = answer(&serving, p);
                    Ok::<_, String>(match seen.iter().position(|s| *s == o) {
                        Some(i) => i as u16,
                        None => {
                            seen.push(o);
                            (seen.len() - 1) as u16
                        }
                    })
                })
                .collect::<Result<_, String>>()?;
            by_version.push(row);
        }
        Ok(Versioned {
            distinct,
            by_version,
        })
    }

    /// Which interned outcome of probe `i` the wire answer is, if any.
    pub fn intern(&self, i: usize, got: &WireOutcome) -> Option<u16> {
        self.distinct[i]
            .iter()
            .position(|o| o.as_ref() == Some(got))
            .map(|x| x as u16)
    }

    /// Probe `i`'s answer after the first `v` edits (`None`: the probe
    /// names something that does not exist yet).
    pub fn expected(&self, i: usize, v: usize) -> Option<&WireOutcome> {
        self.distinct[i][self.by_version[v][i] as usize].as_ref()
    }

    /// Whether outcome `id` of probe `i` is the answer at some version
    /// in `lo..=hi`.
    pub fn valid_between(&self, i: usize, id: u16, lo: usize, hi: usize) -> bool {
        (lo..=hi.min(self.by_version.len() - 1)).any(|v| self.by_version[v][i] == id)
    }
}

/// The reference answer for a named probe on an engine-backed index,
/// or `None` when a name is unknown (the server's `UnknownName`).
pub fn answer(serving: &IndexedEngine, p: &Probe) -> Option<WireOutcome> {
    let chg = serving.engine().chg();
    let (c, m) = (chg.class_by_name(&p.class)?, chg.member_by_name(&p.member)?);
    Some(wire_outcome(
        chg,
        &serving.handle().load().index().lookup(c, m),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..4).scan(Rng::new(7, 1), |r, _| Some(r.next())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(7, 1), |r, _| Some(r.next())).collect();
        let c: Vec<u64> = (0..4).scan(Rng::new(8, 1), |r, _| Some(r.next())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1, 2);
        let mut hits = [0usize; 100];
        for _ in 0..10_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[99]);
    }

    #[test]
    fn edit_directives_apply_to_the_reference() {
        let edits = edit_directives(60, 3, 12).expect("witnesses exist");
        assert_eq!(edits.len(), 12);
        let probes: Vec<Probe> = edits.iter().map(|e| e.witness.clone()).collect();
        let v = Versioned::build(hierarchy(60), &probes, &edits).expect("edits apply");
        assert_eq!(v.by_version.len(), 13);
        // Every witness answers once its edit has applied, and its
        // answer changed with that edit.
        for k in 0..12 {
            assert!(v.expected(k, k + 1).is_some(), "witness {k}");
            assert_ne!(v.expected(k, k), v.expected(k, k + 1), "witness {k}");
        }
    }
}
