//! The per-layer ledger: each library layer timed in-process, around
//! this program's own calls into its public functions, on the same
//! inputs the wire run used.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cpplookup_chg::{ClassId, MemberId};
use cpplookup_core::mph::MphFunction;
use cpplookup_core::{DispatchIndex, IndexedEngine, LookupEngine, LookupTable};
use cpplookup_server::protocol::{Request, Response};
use cpplookup_server::Farm;
use cpplookup_snapshot::{Snapshot, SnapshotTable};
use cpplookup_wal::{read_all, WalRecord, WalWriter};

use crate::{stats, Inputs, BATCH};

/// Frame overhead around every body: length prefix plus checksum.
const FRAME_BYTES: usize = 12;

/// Median wall time of `reps` calls, in milliseconds.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&mut xs)
}

/// Median over five passes of the mean time per call, in nanoseconds,
/// with each pass making `calls` calls.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let mut xs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    stats::median(&mut xs)
}

/// Every in-process ledger entry. `server_wal` is the log the wire
/// run's server wrote; it is read and replayed here.
pub(crate) fn ledger(
    inputs: &Inputs,
    dir: &Path,
    server_wal: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let chg = &inputs.chg;

    // snapshot, core::batched and core::mph: the whole compile, then
    // its two halves.
    out.push((
        "compile.snapshot_ms",
        median_ms(5, || Snapshot::compile(chg)),
    ));
    out.push(("compile.table_ms", median_ms(3, || LookupTable::build(chg))));
    let keys: Vec<u64> = inputs
        .keys
        .iter()
        .map(|&(c, m)| c.index() as u64 | (m.index() as u64) << 32)
        .collect();
    out.push(("compile.mph_ms", median_ms(3, || MphFunction::build(&keys))));

    // snapshot: the artifact and its load.
    out.push(("snapshot.bytes", inputs.snapshot.len() as f64));
    let mut load = Vec::new();
    for _ in 0..5 {
        let bytes = inputs.snapshot.clone();
        let t = Instant::now();
        let table = SnapshotTable::from_bytes(bytes).map_err(|e| format!("snapshot load: {e}"))?;
        load.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(table);
    }
    out.push(("snapshot.load_ms", stats::median(&mut load)));
    let table = SnapshotTable::from_bytes(inputs.snapshot.clone())
        .map_err(|e| format!("snapshot load: {e}"))?;

    // core::serve: index build and probes, over the probe pool.
    out.push((
        "serve.index_build_ms",
        median_ms(3, || DispatchIndex::from_backend(&table)),
    ));
    let index = DispatchIndex::from_backend(&table);
    let ids = &inputs.pool_ids;
    out.push((
        "serve.probe_ns",
        per_call_ns(ids.len(), |i| {
            black_box(index.lookup_ref(ids[i].0, ids[i].1));
        }),
    ));
    let mut refs = Vec::with_capacity(BATCH);
    let chunks: Vec<_> = ids.chunks(BATCH).collect();
    let batch_ns = per_call_ns(chunks.len(), |i| {
        index.lookup_batch_into(chunks[i], &mut refs);
        black_box(refs.len());
    });
    out.push(("serve.batch_probe_ns", batch_ns / BATCH as f64));

    // server::protocol: decode and encode of QUERY and BATCH frames,
    // cycling through distinct frames so caches see the wire's mix.
    let tenant = inputs.tenants[0].clone();
    let names = |&(c, m): &(ClassId, MemberId)| {
        (chg.class_name(c).to_owned(), chg.member_name(m).to_owned())
    };
    let answer = |&(c, m): &(ClassId, MemberId)| crate::gen::wire_outcome(chg, &index.lookup(c, m));
    let queries: Vec<Vec<u8>> = ids
        .iter()
        .map(|id| {
            let (class, member) = names(id);
            Request::Query {
                tenant: tenant.clone(),
                class,
                member,
                trace: false,
                as_of: None,
            }
            .encode()
        })
        .collect();
    let outcomes: Vec<Response> = ids.iter().map(|id| Response::Outcome(answer(id))).collect();
    let frames: Vec<Vec<(String, String)>> = chunks
        .iter()
        .map(|c| c.iter().map(names).collect())
        .collect();
    let batches: Vec<Vec<u8>> = frames
        .iter()
        .map(|probes| {
            Request::Batch {
                tenant: tenant.clone(),
                probes: probes.clone(),
                trace: false,
                as_of: None,
            }
            .encode()
        })
        .collect();
    let replies: Vec<Response> = chunks
        .iter()
        .map(|c| Response::Outcomes(c.iter().map(answer).collect()))
        .collect();
    let q_dec = per_call_ns(ids.len(), |i| {
        black_box(Request::decode(black_box(&queries[i])).is_ok());
    });
    let q_enc = per_call_ns(ids.len(), |i| {
        black_box(black_box(&outcomes[i]).encode());
    });
    let b_dec = per_call_ns(frames.len(), |i| {
        black_box(Request::decode(black_box(&batches[i])).is_ok());
    }) / 1e3;
    let b_enc = per_call_ns(frames.len(), |i| {
        black_box(black_box(&replies[i]).encode());
    }) / 1e3;
    out.push(("protocol.query_decode_ns", q_dec));
    out.push(("protocol.query_encode_ns", q_enc));
    out.push(("protocol.batch_decode_us", b_dec));
    out.push(("protocol.batch_encode_us", b_enc));
    let frame_bytes =
        |req: &[u8], reply: &Response| (req.len() + reply.encode().len() + 2 * FRAME_BYTES) as f64;
    out.push(("protocol.bytes_per_op", frame_bytes(&queries[0], &outcomes[0])));

    // server::farm: the request core without a socket.
    let farm = Farm::new();
    farm.load(&tenant, &inputs.snap_path)
        .map_err(|e| format!("farm load: {e:?}"))?;
    let farm_query_ns = per_call_ns(ids.len(), |i| {
        let (c, m) = (chg.class_name(ids[i].0), chg.member_name(ids[i].1));
        black_box(farm.query(&tenant, c, m).is_ok());
    });
    let farm_batch_us = per_call_ns(frames.len(), |i| {
        black_box(farm.batch(&tenant, &frames[i]).is_ok());
    }) / 1e3;
    out.push(("farm.query_ns", farm_query_ns));
    out.push(("farm.batch_us", farm_batch_us));
    out.push(("server.inproc_op_us", (q_dec + farm_query_ns + q_enc) / 1e3));
    drop(farm);

    // The edit path, on the edit target's tenant. The first edit warms
    // the tenant's engine and is left out, as on the wire.
    let target = &inputs.target;
    let farm = Farm::new();
    farm.load(&target.tenant, &inputs.snap_path)
        .map_err(|e| format!("farm load: {e:?}"))?;
    let mut edit_ms = Vec::new();
    for e in &target.edits {
        let t = Instant::now();
        farm.edit(&target.tenant, &e.directive)
            .map_err(|e| format!("farm edit: {e:?}"))?;
        edit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("farm.edit_ms", stats::median(&mut edit_ms[1..])));
    drop(farm);

    // core::serve::IndexedEngine: apply + refresh + publish.
    let mut serving = IndexedEngine::new(LookupEngine::new(chg.clone()));
    let mut apply_ms = Vec::new();
    for e in &target.edits {
        let t = Instant::now();
        serving
            .apply(std::slice::from_ref(&e.edit))
            .map_err(|x| format!("engine apply `{}`: {x}", e.directive))?;
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("engine.apply_ms", stats::median(&mut apply_ms)));
    drop(serving);

    // wal: synced appends, then the wire run's own log read back and
    // replayed into a fresh farm.
    let path = dir.join("ledger.wal");
    let (mut writer, _) = WalWriter::open(&path, 1).map_err(|e| format!("wal open: {e}"))?;
    let before = writer.len();
    let mut append_us = Vec::new();
    for e in &target.edits {
        let record = WalRecord::Edit {
            tenant: target.tenant.clone(),
            directive: e.directive.clone(),
        };
        let t = Instant::now();
        writer
            .append(record)
            .map_err(|e| format!("wal append: {e}"))?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.push(("wal.append_us", stats::median(&mut append_us)));
    out.push((
        "wal.bytes_per_edit",
        (writer.len() - before) as f64 / target.edits.len() as f64,
    ));
    drop(writer);
    out.push((
        "wal.read_ms",
        median_ms(3, || read_all(server_wal).map(|r| r.len()).unwrap_or(0)),
    ));
    let records = read_all(server_wal).map_err(|e| format!("wal read: {e}"))?;
    let farm = Farm::new();
    let t = Instant::now();
    for r in &records {
        farm.apply_replica_record(&r.record)
            .map_err(|e| format!("replay seq {}: {e:?}", r.seq))?;
    }
    out.push(("farm.replay_ms", t.elapsed().as_secs_f64() * 1e3));
    Ok(out)
}
