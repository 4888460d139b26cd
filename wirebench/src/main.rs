//! `wirebench` — the end-to-end benchmark of `cpplookup-serverd`.
//!
//! ```text
//! wirebench --serverd PATH --workload point-hot|edit-mix
//!           --seed N --seconds S --trace 0|1
//! wirebench --serverd PATH --smoke
//! ```
//!
//! One run generates its inputs from the seed, compiles them, starts
//! the server as a child process, drives it over loopback TCP from this
//! process (at most two threads and two connections to the server),
//! checks every answer against an in-process reference, and prints one
//! JSON object as its last stdout line. With `--trace 0` it reports the
//! end-to-end metrics, scaled by a loopback reference path sampled
//! beside them; with `--trace 1` it reports the per-layer ledger, timed
//! around this program's own calls into each library module plus the
//! protocol's TRACE spans. `NOTES.md` explains the workloads.

mod gen;
mod host;
mod layers;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cpplookup_chg::{Chg, ClassId, MemberId};
use cpplookup_core::{DispatchIndex, LookupTable};
use cpplookup_server::protocol::{Request, Response, WireOutcome};
use cpplookup_snapshot::Snapshot;

use gen::{Probe, Rng, ScriptedEdit, Versioned, Zipf};
use wire::{Conn, ServerProc, ServerSpec};

/// Classes in every workload's hierarchy.
const CLASSES: usize = 500;
/// Point-hot tenants; each holds its own index of the small hierarchy,
/// and together they stay under a 4 MiB L2 (see NOTES.md).
const POINT_TENANTS: usize = 2;
/// Distinct probes the zipf draws rank over.
const POOL: usize = 4096;
/// Zipf exponent for tenant and probe skew.
const ZIPF_S: f64 = 1.0;
/// Probes per BATCH frame in the ledger's batch entries.
const BATCH: usize = 64;
/// Edit-mix open-loop read rate, per second.
const READ_RATE: f64 = 5_000.0;
/// Edit-mix edit rate, per second.
const EDIT_RATE: f64 = 4.0;
/// Measured edits point-hot sends after its measured phase, and their
/// rate per second.
const TAIL_EDITS: usize = 60;
const TAIL_EDIT_RATE: f64 = 20.0;
/// Restarts per run; `restart_s` is their median. Each restart is
/// followed by a cold start on a fresh log, so both one-shot phases
/// sample the whole end of the run rather than one moment of it.
const RESTART_REPS: usize = 9;
/// Reference-path samples: round trips per sample, and seconds between
/// samples during a measured phase.
const REF_TRIPS: usize = 100;
const REF_EVERY_S: f64 = 0.5;
/// The reference round trip every timed metric is scaled to (NOTES.md,
/// "Reference path"): a value reads as on a host whose reference path
/// answers in this many microseconds.
const REF_RTT_US: f64 = 25.0;
/// Cold starts before measuring; with one after each restart they make
/// the `setup_s` samples.
const SETUP_REPS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PointHot,
    EditMix,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::PointHot, Workload::EditMix];

    fn name(self) -> &'static str {
        match self {
            Workload::PointHot => "point-hot",
            Workload::EditMix => "edit-mix",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn tenants(self) -> usize {
        match self {
            Workload::PointHot => POINT_TENANTS,
            Workload::EditMix => 1,
        }
    }

    fn io_model(self) -> &'static str {
        match self {
            Workload::PointHot => "threads",
            Workload::EditMix => "epoll",
        }
    }

    /// Edits a run of `seconds` sends, the first of them warming the
    /// write path: the live edit stream of edit-mix, or the tail after
    /// point-hot's reads.
    fn edits(self, seconds: f64) -> usize {
        1 + match self {
            Workload::PointHot => TAIL_EDITS,
            Workload::EditMix => (seconds * EDIT_RATE).ceil() as usize + 1,
        }
    }
}

/// End-to-end metrics: `(name, unit)`, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_us", "us"),
    ("server_cpu_us_per_op", "us"),
    ("server_rss_mb", "MB"),
    ("setup_s", "s"),
    ("edit_p50_ms", "ms"),
    ("restart_s", "s"),
];

/// Per-layer ledger: `(name, unit)`, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 40] = [
    ("compile.snapshot_ms", "ms"),
    ("compile.table_ms", "ms"),
    ("compile.mph_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.load_ms", "ms"),
    ("serve.index_build_ms", "ms"),
    ("serve.probe_ns", "ns"),
    ("serve.batch_probe_ns", "ns"),
    ("protocol.query_decode_ns", "ns"),
    ("protocol.query_encode_ns", "ns"),
    ("protocol.batch_decode_us", "us"),
    ("protocol.batch_encode_us", "us"),
    ("protocol.bytes_per_op", "bytes"),
    ("farm.query_ns", "ns"),
    ("farm.batch_us", "us"),
    ("farm.edit_ms", "ms"),
    ("farm.replay_ms", "ms"),
    ("engine.apply_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.read_ms", "ms"),
    ("wal.bytes_per_edit", "bytes"),
    ("server.inproc_op_us", "us"),
    ("server.wire_residual_us", "us"),
    ("server.ctx_switches_per_op", "count"),
    ("reads.behind_edit_frac", "fraction"),
    ("reads.behind_edit_p50_us", "us"),
    ("trace.queue_wait_ns", "ns"),
    ("trace.frame_decode_ns", "ns"),
    ("trace.tenant_resolve_ns", "ns"),
    ("trace.promotion_wait_ns", "ns"),
    ("trace.directory_probe_ns", "ns"),
    ("trace.encode_ns", "ns"),
    ("trace.overhead_frac", "fraction"),
    ("diag.probes_per_s", "1/s"),
    ("diag.latency_p99_us", "us"),
    ("diag.samples", "count"),
    ("loadgen.lag_us", "us"),
    ("host.steal_frac", "fraction"),
    ("host.echo_rtt_us", "us"),
    ("host.nproc", "count"),
];

struct Args {
    serverd: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// The CPUs this process was allowed before pinning itself.
    nproc: usize,
    /// Where the load generator and the server run (NOTES.md,
    /// "Placement"); `None` on a single-CPU host.
    client_cpu: Option<usize>,
    server_cpu: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        serverd: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        nproc: 0,
        client_cpu: None,
        server_cpu: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} wants a value"));
        match flag.as_str() {
            "--serverd" => args.serverd = PathBuf::from(value()?),
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0)
                    .ok_or("--seconds wants a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.serverd.is_file() {
        return Err(format!("no server binary at `{}`", args.serverd.display()));
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload is required".into());
    }
    let cpus = host::allowed_cpus();
    args.nproc = cpus.len();
    if let [client, server, ..] = cpus[..] {
        host::pin_to(client).map_err(|e| format!("pinning to CPU {client}: {e}"))?;
        (args.client_cpu, args.server_cpu) = (Some(client), Some(server));
    }
    Ok(args)
}

/// Everything one run reports.
struct RunResult {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context recorded beside the metrics: host, inputs, diagnostics.
    info: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn info(&self, key: &str) -> Option<&str> {
        self.info.iter().find(|i| i.0 == key).map(|i| i.1.as_str())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn info_json(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_str(v)))
            .collect();
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }
}

/// Splits `(raw, scaled)` pairs into the raw and the scaled values.
fn halves(pairs: &[(f64, f64)]) -> [Vec<f64>; 2] {
    [
        pairs.iter().map(|p| p.0).collect(),
        pairs.iter().map(|p| p.1).collect(),
    ]
}

fn list(xs: &[f64]) -> String {
    xs.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(",")
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return match smoke(&args) {
            Ok(()) => {
                eprintln!("wirebench smoke: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("wirebench smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked in parse_args");
    match run(&args, workload, args.seed, args.seconds, args.trace) {
        Ok(result) => {
            for e in &result.errors {
                eprintln!("wirebench: {e}");
            }
            println!("{}", result.info_json());
            println!("{}", result.json());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A scratch directory under the working directory, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new(workload: Workload) -> Result<RunDir, String> {
        let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
        let dir =
            cwd.join(".wirebench")
                .join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The tenant that receives edits, with the reference answers for its
/// probes at every version of its edit script. It serves the workload's
/// hierarchy.
struct EditTarget {
    tenant: String,
    /// The ranked probe pool (`pool` probes), then one witness per edit.
    probes: Vec<Probe>,
    pool: usize,
    /// `edits[0]` warms the tenant's write path and is not measured.
    edits: Vec<ScriptedEdit>,
    versions: Versioned,
}

/// One workload's generated, compiled inputs and its reference answers.
struct Inputs {
    chg: Chg,
    snapshot: Vec<u8>,
    snap_path: PathBuf,
    /// The reference index at version 0, compiled in-process without
    /// the snapshot format.
    index: DispatchIndex,
    /// Every entry of the table: the directory's key set.
    keys: Vec<(ClassId, MemberId)>,
    /// The ranked probe pool over `keys`.
    pool_ids: Vec<(ClassId, MemberId)>,
    /// Tenants serving `chg`; the reads go to them.
    tenants: Vec<String>,
    target: EditTarget,
    /// A digest of the generated inputs: equal seeds give equal digests.
    fingerprint: u64,
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn prepare(workload: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Inputs, String> {
    let chg = gen::hierarchy(CLASSES);
    let snapshot = Snapshot::compile(&chg).into_bytes();
    let snap_path = dir.join("tenant.snap");
    write_file(&snap_path, &snapshot)?;
    let table = LookupTable::build(&chg);
    let keys = gen::entry_keys(&table, &chg);
    let index = DispatchIndex::from_backend(table);
    let mut rng = Rng::new(seed, workload as u64 + 1);
    let pool_ids = gen::probe_pool(&keys, POOL, &mut rng);
    let tenants: Vec<String> = (0..workload.tenants()).map(|t| format!("t{t}")).collect();

    // The edit target: edit-mix edits the tenant it reads; point-hot
    // edits a side tenant that its read traffic never touches.
    let target_tenant = match workload {
        Workload::PointHot => "side".to_owned(),
        Workload::EditMix => tenants[0].clone(),
    };
    let edits = gen::edit_directives(CLASSES, seed, workload.edits(seconds))?;
    let mut probes: Vec<Probe> = pool_ids
        .iter()
        .map(|&(c, m)| Probe::of(&chg, c, m))
        .collect();
    probes.extend(edits.iter().map(|e| e.witness.clone()));
    let versions = Versioned::build(chg.clone(), &probes, &edits)?;
    for (i, &(c, m)) in pool_ids.iter().enumerate() {
        let want = gen::wire_outcome(&chg, &index.lookup(c, m));
        if versions.expected(i, 0) != Some(&want) {
            return Err(format!(
                "engine and table references disagree on {:?}",
                probes[i]
            ));
        }
    }
    let mut digest = Vec::new();
    for &(c, m) in &pool_ids {
        digest.extend_from_slice(&(c.index() as u64 | (m.index() as u64) << 32).to_le_bytes());
    }
    for p in &probes {
        digest.extend_from_slice(p.class.as_bytes());
        digest.extend_from_slice(p.member.as_bytes());
    }
    for e in &edits {
        digest.extend_from_slice(e.directive.as_bytes());
    }
    digest.extend_from_slice(&seed.to_le_bytes());
    let fingerprint = cpplookup_chg::checksum::checksum64(&digest);
    let pool = pool_ids.len();
    Ok(Inputs {
        chg,
        snapshot,
        snap_path,
        index,
        keys,
        pool_ids,
        tenants,
        target: EditTarget {
            tenant: target_tenant,
            pool,
            probes,
            edits,
            versions,
        },
        fingerprint,
    })
}

/// A traced response's span durations, by phase label.
type Spans = Vec<(String, u64)>;

/// Outcomes carried by a probe response, or why there are none.
fn outcomes(resp: Result<Response, String>) -> Result<(Vec<WireOutcome>, Spans), String> {
    match resp? {
        Response::Outcome(o) => Ok((vec![o], Vec::new())),
        Response::Outcomes(os) => Ok((os, Vec::new())),
        Response::Traced { outcomes, spans } => Ok((
            outcomes,
            spans
                .into_iter()
                .map(|s| (s.label, s.duration_ns))
                .collect(),
        )),
        Response::Error { code, message } => Err(format!("server error {code:?}: {message}")),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// Zipf-skewed single-probe queries over tenants and the probe pool,
/// checked against the reference at a fixed version.
struct PointTraffic<'a> {
    inputs: &'a Inputs,
    tenant_zipf: Zipf,
    probe_zipf: Zipf,
    rng: Rng,
    version: usize,
    last: usize,
}

impl<'a> PointTraffic<'a> {
    fn new(inputs: &'a Inputs, seed: u64, stream: u64) -> PointTraffic<'a> {
        PointTraffic {
            inputs,
            tenant_zipf: Zipf::new(inputs.tenants.len(), ZIPF_S),
            probe_zipf: Zipf::new(inputs.pool_ids.len(), ZIPF_S),
            rng: Rng::new(seed, stream),
            version: 0,
            last: 0,
        }
    }

    fn next_probe(&mut self) -> (usize, usize) {
        let t = self.tenant_zipf.sample(&mut self.rng);
        self.last = self.probe_zipf.sample(&mut self.rng);
        (t, self.last)
    }

    fn query(&self, tenant: usize, i: usize, traced: bool) -> Request {
        let p = &self.inputs.target.probes[i];
        Request::Query {
            tenant: self.inputs.tenants[tenant].clone(),
            class: p.class.clone(),
            member: p.member.clone(),
            trace: traced,
            as_of: None,
        }
    }

    /// The next request of the closed loop.
    fn request(&mut self, traced: bool) -> Request {
        let (t, i) = self.next_probe();
        self.query(t, i, traced)
    }

    /// Whether `got` answers the last request.
    fn check(&self, got: &[WireOutcome]) -> bool {
        let v = &self.inputs.target.versions;
        got.len() == 1 && v.expected(self.last, self.version) == Some(&got[0])
    }
}

/// What a measured wire phase saw.
#[derive(Default)]
struct Phase {
    /// Untraced request latencies (from due time for open-loop reads).
    lat_us: Vec<f64>,
    /// Traced request latencies.
    traced_us: Vec<f64>,
    /// Span durations by phase label, from traced requests.
    spans: BTreeMap<String, Vec<f64>>,
    /// The load generator's own delay before each send: lateness behind
    /// the due time (open loop), or the gap since the last answer
    /// (closed loop).
    lag_us: Vec<f64>,
    requests: u64,
    probes: u64,
    failed: u64,
    errors: Vec<String>,
    edit_ms: Vec<f64>,
    edits_acked: usize,
    /// Latencies of untraced reads whose interval overlapped an in-flight edit.
    behind_edit_us: Vec<f64>,
    elapsed_s: f64,
    /// Send and answer times of untraced requests, where kept.
    intervals: Vec<(Instant, Instant)>,
    /// Reference-path samples taken during the phase.
    ref_us: Vec<f64>,
}

impl Phase {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn record(&mut self, lat: Duration, traced: bool, spans: Spans) {
        let us = lat.as_secs_f64() * 1e6;
        if traced {
            self.traced_us.push(us);
            for (label, ns) in spans {
                self.spans.entry(label).or_default().push(ns as f64);
            }
        } else {
            self.lat_us.push(us);
        }
    }
}

/// The reference path and every sample a run takes from it.
struct Reference {
    path: host::RefPath,
    samples: Vec<f64>,
}

impl Reference {
    /// One sample: the median of `REF_TRIPS` round trips, in µs.
    fn sample(&mut self) -> Result<f64, String> {
        let us = self
            .path
            .rtt_us(REF_TRIPS)
            .map_err(|e| format!("reference path: {e}"))?;
        self.samples.push(us);
        Ok(us)
    }

    /// Runs a one-shot phase between two samples. Returns what it
    /// returned, its seconds, and its seconds scaled to `REF_RTT_US` by
    /// the mean of the two samples.
    fn one_shot<T>(
        &mut self,
        phase: impl FnOnce() -> Result<(T, f64), String>,
    ) -> Result<(T, f64, f64), String> {
        let before = self.sample()?;
        let (t, secs) = phase()?;
        let after = self.sample()?;
        Ok((t, secs, secs * scale(&mut [before, after])))
    }
}

/// The factor that scales a time measured while the reference path
/// took `samples` to the reference host; NaN without samples.
fn scale(samples: &mut [f64]) -> f64 {
    REF_RTT_US / stats::median(samples)
}

/// Closed loop on one connection until `until`. In trace mode every
/// other request carries the TRACE flag, so traced and untraced
/// latencies are sampled under the same conditions. With `intervals`,
/// each untraced request's send and answer times are kept.
fn closed_loop(
    conn: &mut Conn,
    traffic: &mut PointTraffic,
    until: Instant,
    trace: bool,
    intervals: bool,
    mut reference: Option<&mut Reference>,
) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    let mut next_ref = start;
    let mut last_done: Option<Instant> = None;
    while Instant::now() < until {
        if let Some(r) = reference.as_deref_mut() {
            if Instant::now() >= next_ref {
                match r.sample() {
                    Ok(us) => ph.ref_us.push(us),
                    Err(e) => {
                        ph.fail(e);
                        break;
                    }
                }
                next_ref = Instant::now() + Duration::from_secs_f64(REF_EVERY_S);
                last_done = None;
            }
        }
        let traced = trace && ph.requests % 2 == 1;
        let req = traffic.request(traced);
        let body = req.encode();
        let sent = Instant::now();
        // The load generator's own time between an answer and the next
        // send: checking, drawing and encoding.
        if let Some(d) = last_done {
            ph.lag_us.push(sent.duration_since(d).as_secs_f64() * 1e6);
        }
        let resp = conn.call(&body);
        let done = Instant::now();
        last_done = Some(done);
        ph.requests += 1;
        match outcomes(resp) {
            Ok((got, spans)) => {
                if traffic.check(&got) {
                    ph.probes += 1;
                    ph.record(done - sent, traced, spans);
                    if intervals && !traced {
                        ph.intervals.push((sent, done));
                    }
                } else {
                    ph.fail(format!("wrong answer to {req:?}: {got:?}"));
                }
            }
            Err(e) => {
                ph.fail(e);
                break;
            }
        }
    }
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph
}

/// Sleeps until `due`, spinning through the last stretch so open-loop
/// sends are not late by the timer's slack.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(300) {
        std::thread::sleep(due - now - Duration::from_micros(200));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One edit's send and acknowledgement times, or why it failed.
type EditTiming = (Instant, Instant, Result<(), String>);

/// Sends the target's edits `1..` (edit 0 warms the write path and is
/// sent before) at `rate` per second from `start`, each due halfway
/// through its slot, until `until` or the first failure.
fn paced_edits(
    conn: &mut Conn,
    target: &EditTarget,
    rate: f64,
    start: Instant,
    until: Instant,
) -> Vec<EditTiming> {
    let mut out = Vec::new();
    for (k, e) in target.edits.iter().skip(1).enumerate() {
        let due = start + Duration::from_secs_f64((k as f64 + 0.5) / rate);
        if due >= until {
            break;
        }
        wait_until(due);
        let sent = Instant::now();
        let r = send_edit(conn, target, e).map(|_| ());
        let failed = r.is_err();
        out.push((sent, Instant::now(), r));
        if failed {
            break;
        }
    }
    out
}

/// Edit-mix: open-loop reads on one connection while a second sends
/// the target's edits `1..` at a fixed rate (edit 0 warmed the write
/// path before measuring). Reads are timed from their due time and
/// checked against every version the tenant could legally serve while
/// they were in flight.
fn edit_mix_phase(
    server: &ServerProc,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: &mut Reference,
) -> Result<Phase, String> {
    let target = &inputs.target;
    let mut reader = server.connect()?;
    let mut editor = server.connect()?;
    let start = Instant::now() + Duration::from_millis(5);
    let until = start + Duration::from_secs_f64(seconds);
    struct Read {
        due: Instant,
        sent: Instant,
        done: Instant,
        probe: usize,
        outcome: Option<u16>,
        traced: bool,
        spans: Spans,
    }
    let ((reads, transport, ref_us), edits) = std::thread::scope(|s| {
        let edits = s.spawn(|| paced_edits(&mut editor, target, EDIT_RATE, start, until));
        let mut traffic = PointTraffic::new(inputs, seed, 11);
        let mut reads: Vec<Read> = Vec::new();
        let mut transport: Option<String> = None;
        let mut ref_us = Vec::new();
        let mut next_ref = start;
        for n in 0u64.. {
            let due = start + Duration::from_secs_f64(n as f64 / READ_RATE);
            if due >= until {
                break;
            }
            // The reference sample delays the next few reads, whose
            // latency counts from their due time: it shows in the tail,
            // not at the median.
            if due >= next_ref {
                match reference.sample() {
                    Ok(us) => ref_us.push(us),
                    Err(e) => {
                        transport = Some(e);
                        break;
                    }
                }
                next_ref = due + Duration::from_secs_f64(REF_EVERY_S);
            }
            wait_until(due);
            let traced = trace && n % 2 == 1;
            let (t, i) = traffic.next_probe();
            let req = traffic.query(t, i, traced);
            let sent = Instant::now();
            let (resp, _) = reader.timed(&req);
            let done = Instant::now();
            match outcomes(resp) {
                Ok((got, spans)) => reads.push(Read {
                    due,
                    sent,
                    done,
                    probe: i,
                    outcome: (got.len() == 1)
                        .then(|| target.versions.intern(i, &got[0]))
                        .flatten(),
                    traced,
                    spans,
                }),
                Err(e) => {
                    transport = Some(e);
                    break;
                }
            }
        }
        (
            (reads, transport, ref_us),
            edits.join().expect("edit thread panicked"),
        )
    });
    let mut ph = Phase {
        elapsed_s: seconds,
        ref_us,
        ..Phase::default()
    };
    if let Some(e) = transport {
        ph.requests += 1;
        ph.fail(e);
    }
    for (sent, acked, r) in &edits {
        ph.requests += 1;
        match r {
            Ok(()) => {
                ph.edits_acked += 1;
                ph.edit_ms
                    .push(acked.duration_since(*sent).as_secs_f64() * 1e3);
            }
            Err(e) => ph.fail(e.clone()),
        }
    }
    let sends: Vec<Instant> = edits.iter().map(|e| e.0).collect();
    let acks: Vec<Instant> = edits.iter().map(|e| e.1).collect();
    for r in reads {
        ph.requests += 1;
        // Versions the read may see: every edit acknowledged before it
        // was sent, up to every edit sent before its answer arrived
        // (plus the warm-up edit, version 1).
        let lo = 1 + acks.partition_point(|&a| a < r.sent);
        let hi = 1 + sends.partition_point(|&s| s < r.done);
        let ok = r
            .outcome
            .is_some_and(|id| target.versions.valid_between(r.probe, id, lo, hi));
        if !ok {
            ph.fail(format!(
                "read of {:?} answered outside versions {lo}..={hi}",
                target.probes[r.probe]
            ));
            continue;
        }
        ph.probes += 1;
        ph.lag_us
            .push(r.sent.duration_since(r.due).as_secs_f64() * 1e6);
        let lat = r.done.duration_since(r.due);
        let behind = edits.iter().any(|(s, a, _)| *s < r.done && *a > r.due);
        if behind && !r.traced {
            ph.behind_edit_us.push(lat.as_secs_f64() * 1e6);
        }
        ph.record(lat, r.traced, r.spans);
    }
    ph.probes += ph.edits_acked as u64;
    Ok(ph)
}

/// Queries one probe and checks the answer.
fn check_query(
    conn: &mut Conn,
    tenant: &str,
    p: &Probe,
    want: Option<&WireOutcome>,
) -> Result<(), String> {
    let req = Request::Query {
        tenant: tenant.to_owned(),
        class: p.class.clone(),
        member: p.member.clone(),
        trace: false,
        as_of: None,
    };
    let (got, _) = outcomes(conn.call(&req.encode()))?;
    if got.len() != 1 || Some(&got[0]) != want {
        return Err(format!(
            "{tenant}: {p:?} answered {got:?}, expected {want:?}"
        ));
    }
    Ok(())
}

/// One checked probe per tenant: the readiness test for set-up and
/// restart. `acked` is how many edits the edit target has applied; its
/// probe is the last one's witness.
fn ready_check(conn: &mut Conn, inputs: &Inputs, acked: usize) -> Result<(), String> {
    let target = &inputs.target;
    let (c, m) = inputs.pool_ids[0];
    let first = Probe::of(&inputs.chg, c, m);
    let want = gen::wire_outcome(&inputs.chg, &inputs.index.lookup(c, m));
    for tenant in inputs.tenants.iter().filter(|t| **t != target.tenant) {
        check_query(conn, tenant, &first, Some(&want))?;
    }
    let i = if acked > 0 {
        target.pool + acked - 1
    } else {
        0
    };
    check_query(
        conn,
        &target.tenant,
        &target.probes[i],
        target.versions.expected(i, acked),
    )
}

/// After a restart: every pool probe and every acknowledged edit's
/// witness on the edit target, and the pool on every other tenant,
/// each checked against the reference. Returns `(attempted, failures)`.
fn state_check(conn: &mut Conn, inputs: &Inputs, acked: usize) -> (u64, Vec<String>) {
    let target = &inputs.target;
    let mut checks: Vec<(&str, Probe, Option<WireOutcome>)> = Vec::new();
    for i in (0..target.pool).chain(target.pool..target.pool + acked) {
        let want = target.versions.expected(i, acked).cloned();
        checks.push((&target.tenant, target.probes[i].clone(), want));
    }
    for tenant in inputs.tenants.iter().filter(|t| **t != target.tenant) {
        for &(c, m) in &inputs.pool_ids {
            let want = gen::wire_outcome(&inputs.chg, &inputs.index.lookup(c, m));
            checks.push((tenant, Probe::of(&inputs.chg, c, m), Some(want)));
        }
    }
    let mut failures = Vec::new();
    for (tenant, p, want) in &checks {
        if let Err(e) = check_query(conn, tenant, p, want.as_ref()) {
            failures.push(format!("after restart: {e}"));
        }
    }
    (checks.len() as u64, failures)
}

/// Sends one edit to the target and returns its round trip.
fn send_edit(conn: &mut Conn, target: &EditTarget, e: &ScriptedEdit) -> Result<Duration, String> {
    let req = Request::Edit {
        tenant: target.tenant.clone(),
        directive: e.directive.clone(),
    };
    match conn.timed(&req) {
        (Ok(Response::Edited { .. }), lat) => Ok(lat),
        (other, _) => Err(format!("edit `{}` answered {other:?}", e.directive)),
    }
}

fn run(
    args: &Args,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let dir = RunDir::new(workload)?;
    let mut reference = Reference {
        path: host::RefPath::start(args.server_cpu).map_err(|e| format!("reference path: {e}"))?,
        samples: Vec::new(),
    };
    let inputs = prepare(workload, seed, seconds, &dir.0)?;
    let target = &inputs.target;
    let mut tenants: Vec<(String, PathBuf)> = inputs
        .tenants
        .iter()
        .map(|t| (t.clone(), inputs.snap_path.clone()))
        .collect();
    if !inputs.tenants.contains(&target.tenant) {
        tenants.push((target.tenant.clone(), inputs.snap_path.clone()));
    }
    let spec = ServerSpec {
        binary: args.serverd.clone(),
        tenants,
        wal: dir.0.join("edits.wal"),
        io_model: workload.io_model(),
        cpu: args.server_cpu,
    };

    // Extra cold starts use a log of their own, so the measured
    // server's log holds exactly the run's records.
    let setup_spec = ServerSpec {
        wal: dir.0.join("setup.wal"),
        ..spec.clone()
    };
    // Each cold start's seconds, as measured and scaled.
    let mut setup_s: Vec<(f64, f64)> = Vec::new();
    let mut cold_start = |spec: &ServerSpec, reference: &mut Reference| {
        let _ = std::fs::remove_file(&spec.wal);
        let (server, raw, scaled) = reference.one_shot(|| {
            wire::start_until_ready(spec, &mut |c| ready_check(c, &inputs, 0))
        })?;
        setup_s.push((raw, scaled));
        Ok::<_, String>(server)
    };

    // Set-up: cold starts on a fresh log; the last one is measured.
    for _ in 1..if trace { 1 } else { SETUP_REPS } {
        cold_start(&setup_spec, &mut reference)?;
    }
    let server = cold_start(&spec, &mut reference)?;
    let pid = server.pid();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut conn = server.connect()?;

    // Warm up: caches, and for edit-mix the tenant's write path, whose
    // first edit builds its engine once per tenant lifetime.
    let warm = Duration::from_secs_f64((seconds * 0.1).min(1.0));
    let mut edit_warm_ms = f64::NAN;
    let mut acked = 0;
    if workload == Workload::EditMix {
        edit_warm_ms = send_edit(&mut conn, target, &target.edits[0])?.as_secs_f64() * 1e3;
        acked = 1;
    }
    let mut point = PointTraffic::new(&inputs, seed, 7);
    point.version = acked;
    let w = closed_loop(&mut conn, &mut point, Instant::now() + warm, false, false, None);
    attempted += w.requests;
    failed += w.failed;
    errors.extend(w.errors);

    let cpu0 = host::cpu_ns(pid);
    let ctx0 = host::ctx_switches(pid);
    let steal0 = host::CpuTimes::now();
    let mut ph = match workload {
        Workload::EditMix => edit_mix_phase(&server, &inputs, seed, seconds, trace, &mut reference)?,
        Workload::PointHot => closed_loop(
            &mut conn,
            &mut point,
            Instant::now() + Duration::from_secs_f64(seconds),
            trace,
            false,
            Some(&mut reference),
        ),
    };
    let steal_frac = host::CpuTimes::now().steal_frac_since(&steal0);
    let cpu_s = (host::cpu_ns(pid) - cpu0) as f64 / 1e9;
    let ctx = host::ctx_switches(pid).saturating_sub(ctx0);
    let rss_mb = host::rss_mb(pid);
    attempted += ph.requests;
    failed += ph.failed;
    errors.append(&mut ph.errors);
    acked += ph.edits_acked;

    // Point-hot edits its side tenant after measuring, so every
    // workload reports an edit round trip and its log has edits to
    // replay on restart. The first edit warms the write path; the rest
    // are paced on a second connection so their samples span seconds,
    // not one burst. In trace mode the reads keep running beside them,
    // so the ledger sees reads behind an edit here too.
    let mut behind_us = std::mem::take(&mut ph.behind_edit_us);
    // Reference samples taken while the measured edits ran.
    let mut edit_ref_us = ph.ref_us.clone();
    let mut behind_of = ph.lat_us.len();
    if workload == Workload::PointHot {
        attempted += 1;
        edit_warm_ms = send_edit(&mut conn, target, &target.edits[0])?.as_secs_f64() * 1e3;
        acked += 1;
        let mut editor = server.connect()?;
        let start = Instant::now() + Duration::from_millis(5);
        let until = start + Duration::from_secs_f64(TAIL_EDITS as f64 / TAIL_EDIT_RATE);
        let (edits, beside, samples) = std::thread::scope(|s| {
            let edits = s.spawn(|| paced_edits(&mut editor, target, TAIL_EDIT_RATE, start, until));
            let beside = trace.then(|| closed_loop(&mut conn, &mut point, until, false, true, None));
            // With no reads beside them, the edits are scaled by
            // reference samples taken while they run.
            let mut samples = Vec::new();
            while !trace && !edits.is_finished() {
                std::thread::sleep(Duration::from_secs_f64(REF_EVERY_S / 2.0));
                samples.push(reference.sample());
            }
            (edits.join().expect("edit thread panicked"), beside, samples)
        });
        edit_ref_us = samples.into_iter().collect::<Result<_, _>>()?;
        for (sent, ack, r) in &edits {
            attempted += 1;
            match r {
                Ok(()) => {
                    acked += 1;
                    ph.edit_ms.push(ack.duration_since(*sent).as_secs_f64() * 1e3);
                }
                Err(e) => {
                    failed += 1;
                    errors.push(e.clone());
                }
            }
        }
        if let Some(b) = beside {
            attempted += b.requests;
            failed += b.failed;
            errors.extend(b.errors);
            behind_of = b.intervals.len();
            for &(sent, done) in &b.intervals {
                if edits.iter().any(|(es, ea, _)| *es < done && *ea > sent) {
                    behind_us.push(done.duration_since(sent).as_secs_f64() * 1e6);
                }
            }
        }
    }
    drop(conn);
    drop(server);

    // Restarts replay the run's log; the first also checks the whole
    // replayed state. Cold starts are interleaved.
    let mut restart_s: Vec<(f64, f64)> = Vec::new();
    for r in 0..if trace { 1 } else { RESTART_REPS } {
        let (s, raw, scaled) = reference.one_shot(|| {
            wire::start_until_ready(&spec, &mut |c| ready_check(c, &inputs, acked))
        })?;
        restart_s.push((raw, scaled));
        if r == 0 {
            let (n, fails) = state_check(&mut s.connect()?, &inputs, acked);
            attempted += n;
            failed += fails.len() as u64;
            errors.extend(fails);
        }
        drop(s);
        if !trace {
            cold_start(&setup_spec, &mut reference)?;
        }
    }

    let mut lat = ph.lat_us.clone();
    let p50 = stats::median(&mut lat);
    let p99 = stats::quantile(&mut lat, 0.99);
    let ops = ph.probes.max(1) as f64;
    let behind_frac = behind_us.len() as f64 / behind_of as f64;
    let lag_us = stats::median(&mut ph.lag_us);
    let echo_rtt_us = stats::median(&mut reference.samples);
    let phase_scale = scale(&mut ph.ref_us);
    let edit_p50_ms = stats::median(&mut ph.edit_ms.clone());
    let [setup_raw, mut setup_scaled] = halves(&setup_s);
    let [restart_raw, mut restart_scaled] = halves(&restart_s);
    let info: Vec<(String, String)> = vec![
        ("workload".into(), workload.name().into()),
        ("seed".into(), seed.to_string()),
        ("trace".into(), u8::from(trace).to_string()),
        ("seconds".into(), seconds.to_string()),
        ("commit".into(), commit()),
        ("host.nproc".into(), args.nproc.to_string()),
        ("host.client_cpu".into(), format!("{:?}", args.client_cpu)),
        ("host.server_cpu".into(), format!("{:?}", args.server_cpu)),
        ("host.steal_frac".into(), num(steal_frac)),
        ("host.echo_rtt_us".into(), num(echo_rtt_us)),
        (
            "inputs.fingerprint".into(),
            format!("{:016x}", inputs.fingerprint),
        ),
        (
            "inputs.classes".into(),
            inputs.chg.class_count().to_string(),
        ),
        ("inputs.entries".into(), inputs.keys.len().to_string()),
        (
            "inputs.snapshot_bytes".into(),
            inputs.snapshot.len().to_string(),
        ),
        (
            "inputs.index_bytes".into(),
            inputs.index.size_bytes().to_string(),
        ),
        ("inputs.tenants".into(), inputs.tenants.len().to_string()),
        ("edits.acked".into(), acked.to_string()),
        ("edits.warm_ms".into(), num(edit_warm_ms)),
        ("ops".into(), ph.probes.to_string()),
        (
            "diag.probes_per_s".into(),
            num(ph.probes as f64 / ph.elapsed_s),
        ),
        ("diag.latency_p99_us".into(), num(p99)),
        ("diag.samples".into(), ph.lat_us.len().to_string()),
        ("loadgen.lag_us".into(), num(lag_us)),
        // The end-to-end metrics as measured, before scaling, and the
        // reference samples that scale them.
        ("raw.latency_p50_us".into(), num(p50)),
        ("raw.server_cpu_us_per_op".into(), num(cpu_s * 1e6 / ops)),
        ("raw.setup_s".into(), list(&setup_raw)),
        ("raw.restart_s".into(), list(&restart_raw)),
        ("raw.edit_ms".into(), list(&ph.edit_ms)),
        ("ref.phase_us".into(), list(&ph.ref_us)),
        ("ref.edits_us".into(), list(&edit_ref_us)),
    ];
    let metrics = if trace {
        let mut m = layers::ledger(&inputs, &dir.0, &spec.wal)?;
        let inproc = m
            .iter()
            .find(|l| l.0 == "server.inproc_op_us")
            .map_or(f64::NAN, |l| l.1);
        m.push(("server.wire_residual_us", p50 - inproc));
        m.push((
            "server.ctx_switches_per_op",
            ctx as f64 / ph.requests.max(1) as f64,
        ));
        m.push(("reads.behind_edit_frac", behind_frac));
        m.push((
            "reads.behind_edit_p50_us",
            stats::median(&mut behind_us),
        ));
        for (name, _) in PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("trace.") && n.ends_with("_ns"))
        {
            let label = &name["trace.".len()..name.len() - "_ns".len()];
            let mut xs = ph.spans.get(label).cloned().unwrap_or_default();
            m.push((name, stats::median(&mut xs)));
        }
        m.push((
            "trace.overhead_frac",
            stats::median(&mut ph.traced_us) / p50 - 1.0,
        ));
        m.push(("diag.probes_per_s", ph.probes as f64 / ph.elapsed_s));
        m.push(("diag.latency_p99_us", p99));
        m.push(("diag.samples", ph.lat_us.len() as f64));
        m.push(("loadgen.lag_us", lag_us));
        m.push(("host.steal_frac", steal_frac));
        m.push(("host.echo_rtt_us", echo_rtt_us));
        m.push(("host.nproc", args.nproc as f64));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = m.iter().find(|x| x.0 == name).map_or(f64::NAN, |x| x.1);
                (name, v, unit)
            })
            .collect()
    } else {
        let values = [
            p50 * phase_scale,
            cpu_s * 1e6 / ops * phase_scale,
            rss_mb,
            stats::median(&mut setup_scaled),
            edit_p50_ms * scale(&mut edit_ref_us),
            stats::median(&mut restart_scaled),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect::<Vec<_>>()
    };
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            errors.push(format!("metric {name} was not measured"));
        }
    }
    Ok(RunResult {
        metrics,
        info,
        attempted: attempted.max(1),
        failed,
        errors,
    })
}

/// The commit under test, as `git rev-parse HEAD` reports it, or
/// `unknown` outside a repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// The benchmark's own test: every workload in both modes for a short
/// run, then the four checks NOTES.md lists.
fn smoke(args: &Args) -> Result<(), String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let secs = 1.0;
    for w in Workload::ALL {
        let mut names = Vec::new();
        for trace in [false, true] {
            for seed in [1, 2] {
                let r = run(args, w, seed, secs, trace)?;
                if !r.correct() {
                    return Err(format!(
                        "{} seed {seed} trace {trace}: {:?}",
                        w.name(),
                        r.errors
                    ));
                }
                // 1. Every metric is reported with its declared unit.
                let declared = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                for (name, unit) in declared {
                    let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                    if !spec.contains(&entry)
                        || !r.metrics.iter().any(|m| m.0 == *name && m.2 == *unit)
                    {
                        return Err(format!("{}: metric {name} ({unit}) missing", w.name()));
                    }
                }
                // 2. The in-process request path fits inside the wire round trip.
                if trace {
                    let inproc = r.metric("server.inproc_op_us").unwrap_or(f64::NAN);
                    let residual = r.metric("server.wire_residual_us").unwrap_or(f64::NAN);
                    if residual.is_nan() || residual < 0.0 {
                        return Err(format!(
                            "{}: in-process op {inproc} us exceeds the wire p50 (residual {residual} us)",
                            w.name()
                        ));
                    }
                }
                names.push((
                    seed,
                    trace,
                    r.metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
                    r.info("inputs.fingerprint").unwrap_or("").to_owned(),
                ));
            }
        }
        for pair in names.chunks(2) {
            let (a, b) = (&pair[0], &pair[1]);
            // 3. The seed changes the inputs; 4. not the metric names.
            if a.3 == b.3 {
                return Err(format!(
                    "{}: seeds {} and {} generated the same inputs",
                    w.name(),
                    a.0,
                    b.0
                ));
            }
            if a.2 != b.2 {
                return Err(format!(
                    "{}: seeds {} and {} report different metrics",
                    w.name(),
                    a.0,
                    b.0
                ));
            }
        }
        // Equal seeds give equal inputs.
        let d1 = RunDir::new(w)?;
        let x = prepare(w, 3, secs, &d1.0)?.fingerprint;
        let y = prepare(w, 3, secs, &d1.0)?.fingerprint;
        if x != y {
            return Err(format!(
                "{}: seed 3 generated different inputs twice",
                w.name()
            ));
        }
        eprintln!("wirebench smoke: {} ok", w.name());
    }
    Ok(())
}
