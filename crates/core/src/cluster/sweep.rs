//! The inert-field sweep: every record kind that crosses a file or a
//! pipe, forged one stored value at a time and handed to its real
//! consumer.
//!
//! The record kinds and their consumers:
//!
//! | record | consumer |
//! |---|---|
//! | journal event record, journal row record | `DurableStream::recover` and the rest of the stream |
//! | checkpoint, delta | `DurableStream::recover` and the rest of the stream |
//! | `Hello` frame | the subprocess worker's `greet`, then `run_worker` |
//! | `Rows` frame | `run_worker` |
//! | `Ready`, `Flushed` frame | the dispatcher: `dispatch`, its supervisor and the merge |
//!
//! A real record is walked through its JSON: each integer is forged one
//! up and one down, doubled, zeroed and grown a thousandfold (a
//! threshold one unit off rarely moves a small run's output), each bool
//! flipped, each `Some` set to `None`, each string lengthened by a
//! character and each one-byte enum (the codec's tag table) swapped for
//! each other variant, one forge at a time. A
//! forge that the codec does not carry through encode → decode is not a
//! stored field, and is skipped. The rest are re-encoded, resealed and
//! consumed, and the field is classed against the unforged run:
//! *refused* (a typed error, a rejected rung, a `Fatal`, a worker that
//! died), *read* (the output, a report count or a recovery report
//! differs; only what the consumer measures itself, wall clock and byte
//! sizes, is masked) or *inert* (nothing differs). An inert field fails
//! the sweep unless [`ALLOWED_INERT`] lists it with its reason, and an
//! entry that names no inert field fails it too.
//!
//! The dispatcher's answers reach it through [`Tap`], a wrapper around
//! the in-process transport: a capture run records every frame each
//! worker is sent and answers with, and each forged run answers the
//! dispatcher with the recorded frames — the one forged frame aside — so
//! what a worker measured is the same from run to run.

use super::{
    dispatch, fold_durability, merge_outputs, with_workers, worker_spec, ClusterConfig,
    ClusterDurability, SubprocessOptions, Workers,
};
use crate::analysis::AnalysisConfig;
use crate::codec::{self, Tag};
use crate::envelope::{Format, HEADER_LEN};
use crate::error::TransportError;
use crate::kernel::LaneRow;
use crate::linktable::Naming;
use crate::observe::{PipelineReport, TransportCounters};
use crate::recovery::{DurabilityPolicy, DurableStream, RecoveryReport, CHAIN_LEN};
use crate::streaming::{scenario_event_stream, StreamAnalysis, StreamCheckpoint, StreamDelta};
use crate::streaming::{StreamEvent, StreamOutput};
use crate::transitions::MessageFamily;
use crate::transport::{
    greet, read_frame, run_worker, write_frame, ScenarioSpec, ShardMsg, ShardTransport, WorkerExit,
    WorkerPort, WorkerSpec,
};
use crate::{error::FrameError, reconstruct::AmbiguityStrategy};
use faultline_isis::listener::{ReachabilityKind, TransitionDirection};
use faultline_sim::chaos::ShardKill;
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::ScenarioData;
use faultline_syslog::message::AdjChangeDetail;
use faultline_topology::router::RouterOs;
use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Stored fields that no consumer reads, each with why it stays.
const ALLOWED_INERT: &[(&str, &str)] = &[
    (
        "journal event: event.Syslog.seq",
        "the journal records the input as offered; ROADMAP item 11 will read it",
    ),
    (
        "journal event: event.Syslog.os",
        "the journal records the input as offered: the router's OS names no link",
    ),
    (
        "journal event: event.Syslog.event.kind.IsisAdjacency.neighbor",
        "the journal records the input as offered: a message resolves by host and interface",
    ),
    (
        "checkpoint: lanes[].isis_recon.last",
        "with nothing open the last message is an UP, and setting it to `None` differs only at \
         a second UP in a row, which the IS-IS merge never sends; `syslog_recon.last` is read",
    ),
    (
        "hello: Hello.scenario.Params.*",
        "a scenario crosses as the parameters that generate it; the worker reads the generated \
         topology, tickets and listener outages, and the parameters that shape only the archive \
         (chaos, timing, transport) are for the dispatcher, which routed it",
    ),
];

/// The configuration every record here is made and consumed under: the
/// default, with a long-failure threshold that outages after the forged
/// records cross, so that the ticket check runs on what a forged record
/// feeds.
fn sweep_config() -> AnalysisConfig {
    AnalysisConfig {
        long_threshold: faultline_topology::Duration::from_hours(1),
        ..AnalysisConfig::default()
    }
}

/// How the forges of one field came out, worst last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Inert,
    Refused,
    Read,
}

/// What a consumer made of a record: what it returned, as JSON, or why
/// it refused the record.
type Outcome = Result<String, String>;

/// A forged value: where it goes, what was done, and the value.
type Forged = (Vec<Step>, String, Value);

/// One step from a JSON document's root towards a value inside it.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every forge of every value in `value`, the root included, depth
/// first, with the path to the value it replaces. Only the first
/// `max_items` elements of an array are walked.
fn all_forges(value: &Value, path: &mut Vec<Step>, max_items: usize, out: &mut Vec<Forged>) {
    out.extend(
        forges(value)
            .into_iter()
            .map(|(how, v)| (path.clone(), how, v)),
    );
    let children: Vec<(Step, &Value)> = match value {
        Value::Object(map) => (map.iter())
            .map(|(k, v)| (Step::Key(k.clone()), v))
            .collect(),
        Value::Array(items) => (items.iter().enumerate().take(max_items))
            .map(|(i, v)| (Step::Index(i), v))
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        path.push(step);
        all_forges(child, path, max_items, out);
        path.pop();
    }
}

fn value_at<'v>(value: &'v mut Value, path: &[Step]) -> &'v mut Value {
    path.iter().fold(value, |v, step| match (step, v) {
        (Step::Key(k), Value::Object(map)) => map.get_mut(k).unwrap(),
        (Step::Index(i), Value::Array(items)) => &mut items[*i],
        (step, v) => panic!("{step:?} does not lead into {v:?}"),
    })
}

/// The JSON spelling of every variant of each one-byte enum, from the
/// codec's own tag table.
fn variant_groups() -> Vec<Vec<String>> {
    fn group<T: Tag + Serialize>() -> Vec<String> {
        (0..=u8::MAX)
            .filter_map(T::from_tag)
            .map(|v| match serde_json::to_value(&v).unwrap() {
                Value::String(name) => name,
                other => panic!("a one-byte enum serializes as a name, not {other:?}"),
            })
            .collect()
    }
    vec![
        group::<AdjChangeDetail>(),
        group::<RouterOs>(),
        group::<ReachabilityKind>(),
        group::<TransitionDirection>(),
        group::<MessageFamily>(),
        group::<AmbiguityStrategy>(),
    ]
}

/// Every forge of one value a decoded row can hold: an integer one up
/// and one down (no wrap at 0 or `u64::MAX`), doubled, zeroed and grown
/// a thousandfold, a bool flipped, a string one character longer, an
/// enum's name swapped for each other variant of its enum, and the value
/// replaced by `null` — which decodes only where it is an option's
/// `Some`, to `None`. Each comes with what it did.
fn forges(value: &Value) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    match value {
        Value::Number(Number::PosInt(n)) => {
            if let Some(up) = n.checked_add(1) {
                out.push(("+1".to_string(), Value::Number(Number::PosInt(up))));
            }
            if let Some(down) = n.checked_sub(1) {
                out.push(("-1".to_string(), Value::Number(Number::PosInt(down))));
            }
            if let Some(twice) = n.checked_mul(2).filter(|_| *n > 1) {
                out.push(("doubled".to_string(), Value::Number(Number::PosInt(twice))));
            }
            if *n > 1 {
                out.push(("zeroed".to_string(), Value::Number(Number::PosInt(0))));
            }
            let grown = n.saturating_mul(1000).max(1000);
            out.push(("grown".to_string(), Value::Number(Number::PosInt(grown))));
        }
        Value::Bool(b) => out.push(("flipped".to_string(), Value::Bool(!b))),
        Value::String(s) => {
            out.push(("lengthened".to_string(), Value::String(format!("{s}x"))));
            for group in variant_groups().iter().filter(|g| g.contains(s)) {
                for other in group.iter().filter(|v| *v != s) {
                    out.push((format!("-> {other}"), Value::String(other.clone())));
                }
            }
        }
        _ => {}
    }
    if !value.is_null() {
        out.push(("None".to_string(), Value::Null));
    }
    out
}

/// A field's name: its object keys, with every array index collapsed to
/// `[]`, so each element of a vector is the same field.
fn field(path: &[Step]) -> String {
    let mut name = String::new();
    for step in path {
        match step {
            Step::Key(k) if name.is_empty() => name.push_str(k),
            Step::Key(k) => {
                name.push('.');
                name.push_str(k);
            }
            Step::Index(_) => name.push_str("[]"),
        }
    }
    name
}

/// `value` without the readings a consumer takes itself: every key
/// naming microseconds or a per-second rate (the wall clock) or bytes
/// (the size of what it read and wrote, where a forged value can take
/// another varint's length).
fn masked(value: Value) -> Value {
    match value {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter(|(k, _)| !["micros", "per_sec", "bytes"].iter().any(|m| k.contains(m)))
                .map(|(k, v)| (k.clone(), masked(v.clone())))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.into_iter().map(masked).collect()),
        other => other,
    }
}

/// `value` as JSON with the consumer's own wall-clock readings masked.
fn observed<T: Serialize>(value: &T) -> String {
    serde_json::to_string(&masked(serde_json::to_value(value).unwrap())).unwrap()
}

/// One forge that was consumed: its field, its class and the outcome.
struct Verdict {
    field: String,
    class: Class,
    outcome: Outcome,
}

/// Walk `records` of record kind `kind` — each encoded by `encode`,
/// decoded by `decode` — forging one stored value at a time and handing
/// the re-encoded record's bytes to `consume` with the record's index.
/// Every unforged record must re-encode byte-exactly through its JSON and
/// through the codec, and must be consumed without a refusal.
fn walk<T: Serialize + Deserialize>(
    kind: &str,
    records: &[T],
    max_items: usize,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
    mut consume: impl FnMut(usize, &[u8]) -> Outcome,
) -> Vec<Verdict> {
    assert!(!records.is_empty(), "{kind}: no record to walk");
    let mut verdicts = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let bytes = encode(record);
        let doc = serde_json::to_value(record).unwrap();
        let through_json: T = serde_json::from_value(doc.clone()).unwrap();
        assert_eq!(encode(&through_json), bytes, "{kind} {i}: JSON round trip");
        let back = decode(&bytes).unwrap_or_else(|| panic!("{kind} {i}: does not decode"));
        assert_eq!(encode(&back), bytes, "{kind} {i}: codec round trip");
        let base = consume(i, &bytes).unwrap_or_else(|e| panic!("{kind} {i}: refused: {e}"));
        let mut forged_values = Vec::new();
        all_forges(&doc, &mut Vec::new(), max_items, &mut forged_values);
        for (path, _, value) in forged_values {
            let mut forged_doc = doc.clone();
            *value_at(&mut forged_doc, &path) = value;
            let Ok(forged) = serde_json::from_value::<T>(forged_doc.clone()) else {
                continue;
            };
            let bytes = encode(&forged);
            if decode(&bytes).is_some_and(|back| serde_json::to_value(&back).unwrap() != forged_doc)
            {
                continue;
            }
            let outcome = consume(i, &bytes);
            let class = match &outcome {
                Err(_) => Class::Refused,
                Ok(seen) if *seen == base => Class::Inert,
                Ok(_) => Class::Read,
            };
            verdicts.push(Verdict {
                field: format!("{kind}: {}", field(&path)),
                class,
                outcome,
            });
        }
    }
    verdicts
}

/// Each field's class: the worst of its forges'.
fn classes(verdicts: &[Verdict]) -> BTreeMap<&str, Class> {
    let mut classes = BTreeMap::new();
    for v in verdicts {
        let class = classes.entry(v.field.as_str()).or_insert(v.class);
        *class = (*class).max(v.class);
    }
    classes
}

/// Does allow-list entry `entry` name `field`? An entry ending in `.*`
/// names every field under it.
fn covers(entry: &str, field: &str) -> bool {
    match entry.strip_suffix('*') {
        Some(prefix) => field.starts_with(prefix),
        None => entry == field,
    }
}

/// Fail on an inert field of `kinds` that [`ALLOWED_INERT`] does not
/// list, and on an entry for `kinds` that names no inert field.
fn judge(kinds: &[&str], verdicts: &[Verdict]) {
    let classes = classes(verdicts);
    let ours = |field: &str| kinds.iter().any(|k| field.starts_with(&format!("{k}: ")));
    let allowed = |field: &str| ALLOWED_INERT.iter().any(|(f, _)| covers(f, field));
    let unread: Vec<&str> = (classes.iter())
        .filter(|&(f, c)| *c == Class::Inert && !allowed(f))
        .map(|(f, _)| *f)
        .collect();
    let stale: Vec<&str> = (ALLOWED_INERT.iter())
        .map(|(f, _)| *f)
        .filter(|f| ours(f) && !(classes.iter()).any(|(g, c)| covers(f, g) && *c == Class::Inert))
        .collect();
    let count = |class| classes.values().filter(|c| **c == class).count();
    eprintln!(
        "{kinds:?}: {} forges over {} fields: {} refused, {} read, {} inert",
        verdicts.len(),
        classes.len(),
        count(Class::Refused),
        count(Class::Read),
        count(Class::Inert),
    );
    assert!(
        unread.is_empty(),
        "stored, but no consumer reads them: {unread:#?}"
    );
    assert!(
        stale.is_empty(),
        "allowed to be inert, but no longer inert: {stale:#?}"
    );
}

/// Self-cleaning scratch directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("faultline-sweep-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Every file under `dir`, with its bytes.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(files(&path));
        } else {
            let bytes = fs::read(&path).unwrap();
            out.push((path, bytes));
        }
    }
    out.sort();
    out
}

/// Put `dir` back to exactly `pristine`.
fn reset(dir: &Path, pristine: &[(PathBuf, Vec<u8>)]) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir.join("journal")).unwrap();
    for (path, bytes) in pristine {
        fs::write(path, bytes).unwrap();
    }
}

/// Patch an envelope's length and hash to its payload, whatever its
/// format.
fn seal(envelope: &mut [u8]) {
    let any = Format {
        magic: [0; 4],
        version: 0,
        max_len: u32::MAX,
        kinds: &[],
    };
    any.seal(envelope).unwrap();
}

/// The byte ranges of the envelopes a journal segment holds.
fn envelopes(segment: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut at = 0;
    while at + HEADER_LEN <= segment.len() {
        let len = u32::from_le_bytes(segment[at + 6..at + 10].try_into().unwrap()) as usize;
        out.push(at..at + HEADER_LEN + len);
        at += HEADER_LEN + len;
    }
    out
}

/// `segment` with envelope `which` carrying `payload` instead, resealed.
fn replace_record(segment: &[u8], which: usize, payload: &[u8]) -> Vec<u8> {
    let range = envelopes(segment)[which].clone();
    let mut record = segment[range.start..range.start + HEADER_LEN].to_vec();
    record.extend_from_slice(payload);
    seal(&mut record);
    let mut out = segment[..range.start].to_vec();
    out.extend_from_slice(&record);
    out.extend_from_slice(&segment[range.end..]);
    out
}

/// What a durable stream finishes with after `recover`: its output and
/// its report, and what the recovery found, wall clock masked.
fn finished(stream: DurableStream<'_>, recovery: &RecoveryReport) -> String {
    let result = stream.finish();
    observed(&(&result.output, &result.report, recovery))
}

// ---------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------

/// One journal event record.
#[derive(Serialize, Deserialize)]
struct EventRecord {
    seq: u64,
    event: StreamEvent,
}

/// One journal row record.
#[derive(Serialize, Deserialize)]
struct RowRecord {
    seq: u64,
    row: LaneRow,
}

/// Snapshots never: the journal is all recovery has.
fn journal_only() -> DurabilityPolicy {
    DurabilityPolicy {
        checkpoint_interval: 0,
        ..DurabilityPolicy::default()
    }
}

/// The journal's only segment under `dir`.
fn segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = (fs::read_dir(dir.join("journal")).unwrap().flatten())
        .map(|e| e.path())
        .collect();
    assert_eq!(segments.len(), 1, "one journal segment");
    segments.pop().unwrap()
}

/// The first records of a durable stream's event journal, each replaced
/// in turn, recovered and run to the end of the stream.
fn journal_events() -> Vec<Verdict> {
    let data = run(&ScenarioParams::tiny(5));
    let config = sweep_config();
    let events = scenario_event_stream(&data);
    let kill_at = events.len().min(40);
    let tmp = TempDir::new("journal-events");
    let mut durable = DurableStream::create(&tmp.0, &data, config.clone(), journal_only()).unwrap();
    for e in &events[..kill_at] {
        durable.ingest(e).unwrap();
    }
    drop(durable);
    let pristine = files(&tmp.0);
    let path = segment(&tmp.0);
    let bytes = fs::read(&path).unwrap();
    let records: Vec<EventRecord> = (envelopes(&bytes).into_iter())
        .map(|r| codec::decode_record(&bytes[r.start + HEADER_LEN..r.end]).unwrap())
        .map(|(seq, event)| EventRecord { seq, event })
        .collect();
    assert_eq!(records.len(), kill_at);
    walk(
        "journal event",
        &records,
        usize::MAX,
        |r| {
            let mut out = Vec::new();
            codec::encode_record(r.seq, &r.event, &mut out);
            out
        },
        |b| (codec::decode_record(b).ok()).map(|(seq, event)| EventRecord { seq, event }),
        |i, payload| {
            reset(&tmp.0, &pristine);
            fs::write(&path, replace_record(&bytes, i, payload)).unwrap();
            let (mut durable, report) =
                DurableStream::recover(&tmp.0, &data, config.clone(), journal_only())
                    .map_err(|e| e.to_string())?;
            for e in &events[report.resumed_at_seq as usize..] {
                durable.ingest(e).map_err(|e| e.to_string())?;
            }
            Ok(finished(durable, &report))
        },
    )
}

/// The first records of a shard's row journal, each replaced in turn,
/// recovered and fed the rest of the shard's rows, as the supervisor
/// does.
fn journal_rows() -> Vec<Verdict> {
    let data = run(&ScenarioParams::tiny(5));
    let config = sweep_config();
    let naming = Arc::new(Naming::mine(&data));
    let mut router =
        StreamAnalysis::with_naming(&data, config.clone(), Arc::clone(&naming), Instant::now());
    let rows: Vec<LaneRow> = (scenario_event_stream(&data).iter())
        .filter_map(|e| router.route(e.observed()).1)
        .collect();
    let kill_at = rows.len().min(40);
    let tmp = TempDir::new("journal-rows");
    let start = |recover: bool| {
        let naming = Arc::clone(&naming);
        let (config, now) = (config.clone(), Instant::now());
        if recover {
            DurableStream::recover_with(&tmp.0, &data, config, journal_only(), naming, now)
        } else {
            let stream =
                DurableStream::create_with(&tmp.0, &data, config, journal_only(), naming, now);
            stream.map(|s| (s, RecoveryReport::default()))
        }
    };
    let (mut durable, _) = start(false).unwrap();
    for row in &rows[..kill_at] {
        durable.apply_row(row).unwrap();
    }
    drop(durable);
    let pristine = files(&tmp.0);
    let path = segment(&tmp.0);
    let bytes = fs::read(&path).unwrap();
    let records: Vec<RowRecord> = (envelopes(&bytes).into_iter())
        .map(|r| codec::decode_row_record(&bytes[r.start + HEADER_LEN..r.end]).unwrap())
        .map(|(seq, row)| RowRecord { seq, row })
        .collect();
    assert_eq!(records.len(), kill_at);
    walk(
        "journal row",
        &records,
        usize::MAX,
        |r| {
            let mut out = Vec::new();
            codec::encode_row_record(r.seq, &r.row, &mut out);
            out
        },
        |b| (codec::decode_row_record(b).ok()).map(|(seq, row)| RowRecord { seq, row }),
        |i, payload| {
            reset(&tmp.0, &pristine);
            fs::write(&path, replace_record(&bytes, i, payload)).unwrap();
            let (mut durable, report) = start(true).map_err(|e| e.to_string())?;
            for row in &rows[report.resumed_at_seq as usize..] {
                durable.apply_row(row).map_err(|e| e.to_string())?;
            }
            Ok(finished(durable, &report))
        },
    )
}

#[test]
fn journal_records_store_only_what_recovery_reads() {
    let mut verdicts = journal_events();
    verdicts.extend(journal_rows());
    judge(&["journal event", "journal row"], &verdicts);
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// Full checkpoints every 50 events, journal segments of 32 records:
/// a kill at 180 leaves the newest checkpoint at 150 and older rungs
/// below it.
fn sweep_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        checkpoint_interval: 50,
        segment_max_records: 32,
        retain_checkpoints: 3,
        full_every_n_checkpoints: 0,
        ..DurabilityPolicy::default()
    }
}

/// The newest snapshot file with extension `ext` under `dir`.
fn newest(dir: &Path, ext: &str) -> PathBuf {
    let mut snaps: Vec<PathBuf> = (fs::read_dir(dir).unwrap().flatten())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    snaps.sort();
    snaps.pop().expect("a snapshot of that kind on disk")
}

/// A durable stream over tiny(5) killed at its 180th event under
/// `policy`, the newest snapshot with extension `ext`, and what
/// rewriting that snapshot's payload and recovering comes to: the
/// recovered run finished, or the refusal. `rejected` collects each
/// rejected rung's reason.
struct Snapshots {
    data: ScenarioData,
    events: Vec<StreamEvent>,
    kill_at: usize,
    tmp: TempDir,
    pristine: Vec<(PathBuf, Vec<u8>)>,
    newest: PathBuf,
    reference: String,
}

impl Snapshots {
    fn new(name: &str, policy: DurabilityPolicy, ext: &str) -> Snapshots {
        let data = run(&ScenarioParams::tiny(5));
        let events = scenario_event_stream(&data);
        let kill_at = events.len().min(180);
        let tmp = TempDir::new(name);
        let config = sweep_config();
        let mut durable = DurableStream::create(&tmp.0, &data, config.clone(), policy).unwrap();
        for e in &events[..kill_at] {
            durable.ingest(e).unwrap();
        }
        drop(durable);
        let reference = {
            let batch = crate::analysis::Analysis::run(&data, config);
            serde_json::to_string(&batch.output).unwrap()
        };
        let pristine = files(&tmp.0);
        let newest = newest(&tmp.0, ext);
        Snapshots {
            data,
            events,
            kill_at,
            tmp,
            pristine,
            newest,
            reference,
        }
    }

    /// The newest snapshot's codec payload.
    fn payload(&self) -> Vec<u8> {
        fs::read(&self.newest).unwrap()[HEADER_LEN + CHAIN_LEN..].to_vec()
    }

    /// Reseal the newest snapshot around `payload`, recover without
    /// further checkpoints and run to the end of the stream. A recovery
    /// error panics: a forged snapshot is a rejected rung, never an
    /// abort. Returns the finished output's JSON, the recovery report
    /// and the observed run.
    fn resume(&self, policy: DurabilityPolicy, payload: &[u8]) -> (String, RecoveryReport, String) {
        reset(&self.tmp.0, &self.pristine);
        let mut file = fs::read(&self.newest).unwrap();
        file.truncate(HEADER_LEN + CHAIN_LEN);
        file.extend_from_slice(payload);
        seal(&mut file);
        fs::write(&self.newest, file).unwrap();
        let resume = DurabilityPolicy {
            checkpoint_interval: 0,
            ..policy
        };
        let config = sweep_config();
        let (mut durable, report) = DurableStream::recover(&self.tmp.0, &self.data, config, resume)
            .unwrap_or_else(|e| panic!("a forged snapshot aborted recovery: {e}"));
        for e in &self.events[self.kill_at..] {
            durable.ingest(e).unwrap();
        }
        let result = durable.finish();
        let output = serde_json::to_string(&result.output).unwrap();
        let seen = observed(&(&result.output, &result.report, &report));
        (output, report, seen)
    }
}

/// The stored-field sweep of a checkpoint: a real checkpoint's decoded
/// value, walked field by field, each forge re-encoded as the newest
/// checkpoint, recovered (in whatever build runs the test, debug
/// included) and run to the end of its stream. None may panic: it is
/// either rejected as a corrupt checkpoint — and the run resumes from
/// the rung below, byte-identical to batch — or it is some other run's
/// valid state and resumes to a complete output.
#[test]
fn every_stored_field_forged_is_rejected_or_resumes() {
    let snaps = Snapshots::new("checkpoint", sweep_policy(), "ckpt");
    let checkpoint = codec::decode_checkpoint(&snaps.payload()).unwrap();
    let (mut resumed, mut rejected) = (0, Vec::new());
    let verdicts = walk(
        "checkpoint",
        &[checkpoint],
        usize::MAX,
        |c: &StreamCheckpoint| {
            let mut out = Vec::new();
            codec::encode_checkpoint(c, &mut out);
            out
        },
        |b| codec::decode_checkpoint(b).ok(),
        |_, payload| {
            let (output, report, seen) = snaps.resume(sweep_policy(), payload);
            assert_eq!(report.resumed_at_seq, snaps.kill_at as u64);
            match report.rejected.as_slice() {
                [] => {
                    resumed += 1;
                    Ok(seen)
                }
                [reason] => {
                    let (_, why) = reason
                        .split_once("failed validation: ")
                        .unwrap_or_else(|| panic!("{reason}"));
                    assert_eq!(output, snaps.reference, "{why}");
                    rejected.push(why.to_string());
                    Err(why.to_string())
                }
                more => panic!("{more:?}"),
            }
        },
    );
    // `rejected` holds the reasons in forge order: pair each with its
    // field.
    let refused: Vec<(&str, &str)> = (verdicts.iter())
        .filter_map(|v| Some((v.field.as_str(), v.outcome.as_ref().err()?.as_str())))
        .collect();
    assert_eq!(refused.len(), rejected.len());
    assert!(resumed > 0 && !rejected.is_empty());
    // The event counts one past what the checkpoint consumed.
    assert!(
        refused
            .iter()
            .any(|(what, why)| what.contains("events_syslog")
                && *why == "more events counted than consumed"),
        "{refused:?}"
    );
    judge(&["checkpoint"], &verdicts);
}

/// A policy whose newest snapshot at the kill is a delta on a full base.
fn delta_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        full_every_n_checkpoints: 3,
        ..sweep_policy()
    }
}

#[test]
fn a_delta_stores_only_what_recovery_reads() {
    let snaps = Snapshots::new("delta", delta_policy(), "dckpt");
    let delta = codec::decode_delta(&snaps.payload()).unwrap();
    let verdicts = walk(
        "delta",
        &[delta],
        2,
        |d: &StreamDelta| {
            let mut out = Vec::new();
            codec::encode_delta(d, &mut out);
            out
        },
        |b| codec::decode_delta(b).ok(),
        |_, payload| {
            let (output, report, seen) = snaps.resume(delta_policy(), payload);
            assert_eq!(report.resumed_at_seq, snaps.kill_at as u64);
            match report.rejected.as_slice() {
                [] => Ok(seen),
                [reason] => {
                    assert_eq!(output, snaps.reference, "{reason}");
                    Err(reason.clone())
                }
                more => panic!("{more:?}"),
            }
        },
    );
    judge(&["delta"], &verdicts);
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

fn frame(msg: &ShardMsg) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, msg).unwrap();
    out
}

fn unframe(bytes: &[u8]) -> Option<ShardMsg> {
    read_frame(&mut &bytes[..]).ok().map(|(msg, _)| msg)
}

/// Every frame of one run, per worker, in order.
#[derive(Default)]
struct Wire {
    sent: Vec<Vec<Vec<u8>>>,
    answers: Vec<Vec<Vec<u8>>>,
}

/// The frame a replay run answers with in place of worker `.0`'s
/// `.1`-th answer.
type Swap<'a> = (usize, usize, &'a [u8]);

/// The transport under the dispatcher, tapped: in a capture run (no
/// `replay`) every frame is recorded; in a replay run every answer is
/// the recorded one, but for the swapped frame. Either way the
/// dispatcher reads each answer through the frame decoder, as it would
/// from a subprocess worker.
struct Tap<'t> {
    inner: &'t mut dyn ShardTransport,
    wire: Wire,
    replay: Option<(&'t Wire, Swap<'t>)>,
    seen: Vec<usize>,
}

impl ShardTransport for Tap<'_> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn send(&mut self, worker: usize, msg: ShardMsg) -> Result<(), TransportError> {
        if self.replay.is_none() {
            self.wire.sent[worker].push(frame(&msg));
        }
        self.inner.send(worker, msg)
    }

    fn recv(&mut self, worker: usize) -> Result<ShardMsg, TransportError> {
        let msg = self.inner.recv(worker)?;
        let n = self.seen[worker];
        self.seen[worker] += 1;
        let bytes = match self.replay {
            None => {
                let bytes = frame(&msg);
                self.wire.answers[worker].push(bytes.clone());
                bytes
            }
            Some((_, (w, at, swapped))) if (w, at) == (worker, n) => swapped.to_vec(),
            Some((wire, _)) => wire.answers[worker][n].clone(),
        };
        read_frame(&mut bytes.as_slice())
            .map(|(msg, _)| msg)
            .map_err(|source| TransportError::Frame { worker, source })
    }

    fn kill(&mut self, worker: usize) -> Result<(), TransportError> {
        self.inner.kill(worker)
    }

    fn respawn(&mut self, worker: usize, spec: WorkerSpec) -> Result<(), TransportError> {
        self.inner.respawn(worker, spec)
    }

    fn counters(&self) -> TransportCounters {
        self.inner.counters()
    }
}

/// A cluster of `shards` in-process workers under [`sweep_config`].
fn cluster(shards: u32) -> ClusterConfig {
    ClusterConfig {
        analysis: sweep_config(),
        ..ClusterConfig::new(shards)
    }
}

/// Run the dispatcher in-process, tapped; the observed
/// result is what it merged and what its supervisor recovered.
fn dispatched(
    data: &ScenarioData,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
    replay: Option<(&Wire, Swap<'_>)>,
) -> (Outcome, Wire) {
    if let Some(d) = &cfg.durability {
        let _ = fs::remove_dir_all(&d.root);
    }
    let naming = Arc::new(Naming::mine(data));
    let specs = (0..cfg.shards)
        .map(|s| worker_spec(cfg, s, false))
        .collect();
    let mut wire = Wire::default();
    let driven = with_workers(data, &naming, &cfg.workers, specs, |inner| {
        let workers = inner.workers();
        let mut tap = Tap {
            inner,
            wire: Wire {
                sent: vec![Vec::new(); workers],
                answers: vec![Vec::new(); workers],
            },
            replay,
            seen: vec![0; workers],
        };
        let run = dispatch(&mut tap, data, &naming, events, cfg);
        wire = tap.wire;
        run
    });
    let outcome = (|| {
        let (run, counters) = driven.map_err(|e| e.to_string())?;
        let run = run.map_err(|e| e.to_string())?;
        let (outputs, reports): (Vec<StreamOutput>, Vec<PipelineReport>) =
            run.flushed.into_iter().unzip();
        let durability = match cfg.durability {
            Some(_) => Some(fold_durability(&reports).map_err(|e| e.to_string())?),
            None => None,
        };
        let output = merge_outputs(std::iter::once(run.front.output).chain(outputs).collect());
        let recoveries: Vec<(u32, RecoveryReport)> = (run.recoveries.into_iter())
            .map(|r| (r.shard, r.report))
            .collect();
        let seen = ((&output, &reports), &recoveries, &durability, &counters);
        Ok(serde_json::to_string(&seen).unwrap())
    })();
    (outcome, wire)
}

/// The answers of `wire` whose kind is `kind`, with where each sits.
fn answers<'w>(wire: &'w Wire, kind: &str) -> Vec<(usize, usize, &'w [u8])> {
    let mut out = Vec::new();
    for (w, frames) in wire.answers.iter().enumerate() {
        for (n, bytes) in frames.iter().enumerate() {
            if unframe(bytes).is_some_and(|m| m.kind() == kind) {
                out.push((w, n, bytes.as_slice()));
            }
        }
    }
    out
}

/// Walk the answers of kind `kind` a run of `cfg` received, each
/// swapped in turn into a replay of that run.
fn answered(
    kind: &str,
    cfg: &ClusterConfig,
    data: &ScenarioData,
    max_items: usize,
) -> Vec<Verdict> {
    let events = scenario_event_stream(data);
    let (capture, wire) = dispatched(data, &events, cfg, None);
    capture.expect("the capture run completes");
    let at = answers(&wire, kind);
    let records: Vec<ShardMsg> = at.iter().map(|(_, _, b)| unframe(b).unwrap()).collect();
    walk(kind, &records, max_items, frame, unframe, |i, bytes| {
        let (w, n, _) = at[i];
        dispatched(data, &events, cfg, Some((&wire, (w, n, bytes)))).0
    })
}

#[test]
fn dispatcher_frames_carry_only_what_the_dispatcher_reads() {
    let data = run(&ScenarioParams::tiny(7));
    // A worker recovered by the supervisor is the one that answers with
    // a recovery report.
    let root = TempDir::new("ready");
    let durable = ClusterConfig {
        durability: Some(ClusterDurability {
            root: root.0.clone(),
            policy: DurabilityPolicy::default(),
            kills: Vec::new(),
            hard_kills: vec![ShardKill {
                shard: 1,
                after_events: 40,
            }],
        }),
        ..cluster(2)
    };
    let mut verdicts = answered("ready", &durable, &data, usize::MAX);
    verdicts.extend(answered("flushed", &cluster(2), &data, 2));
    judge(&["ready", "flushed"], &verdicts);
}

/// A worker's connection in a test: frames queued in, messages kept.
struct Script {
    inbox: VecDeque<Vec<u8>>,
    sent: Vec<ShardMsg>,
    refused: Option<String>,
}

impl WorkerPort for Script {
    fn recv(&mut self) -> Result<ShardMsg, FrameError> {
        let bytes = self.inbox.pop_front().ok_or(FrameError::Closed)?;
        read_frame(&mut bytes.as_slice())
            .map(|(msg, _)| msg)
            .inspect_err(|e| self.refused = Some(e.to_string()))
    }

    fn send(&mut self, msg: ShardMsg) -> Result<(), FrameError> {
        self.sent.push(msg);
        Ok(())
    }
}

/// [`run_worker`], its exit as the subprocess worker's exit code.
fn work(data: &ScenarioData, naming: Arc<Naming>, spec: WorkerSpec, port: &mut Script) -> i32 {
    match run_worker(data, naming, spec, port) {
        WorkerExit::Completed => 0,
        WorkerExit::Aborted => 9,
    }
}

/// Run a worker (`work`, handed its connection) on `inbox`: what it said
/// and how it exited, with its own wall-clock readings masked; or its
/// refusal — a frame it could not read, a `Fatal`, or a death.
fn worked(inbox: Vec<Vec<u8>>, work: impl FnOnce(&mut Script) -> i32) -> Outcome {
    let mut script = Script {
        inbox: inbox.into(),
        sent: Vec::new(),
        refused: None,
    };
    let code = panic::catch_unwind(AssertUnwindSafe(|| work(&mut script)))
        .map_err(|_| "the worker died".to_string())?;
    if let Some(why) = script.refused {
        return Err(why);
    }
    if let Some(ShardMsg::Fatal { detail }) = script.sent.last() {
        return Err(detail.clone());
    }
    Ok(format!("{code} {}", observed(&script.sent)))
}

#[test]
fn worker_frames_carry_only_what_the_worker_reads() {
    let params = ScenarioParams::tiny(5);
    let data = run(&params);
    let events = scenario_event_stream(&data);
    // Small batches, so that the first frame's rows cover every lane
    // event kind.
    let cfg = ClusterConfig {
        chunk: 16,
        ..cluster(2)
    };
    let (capture, wire) = dispatched(&data, &events, &cfg, None);
    capture.expect("the capture run completes");
    let subprocess = ClusterConfig {
        workers: Workers::Subprocess(SubprocessOptions {
            worker_bin: PathBuf::new(),
            scenario: ScenarioSpec::Params(Box::new(params)),
        }),
        ..cfg.clone()
    };
    // Every worker's `Hello`, each followed by what that worker was sent:
    // a configuration value can matter on one shard's links only.
    let hellos: Vec<ShardMsg> = (0..cfg.shards)
        .map(|s| ShardMsg::Hello(Box::new(worker_spec(&subprocess, s, false))))
        .collect();
    let mut verdicts = walk("hello", &hellos, usize::MAX, frame, unframe, |w, bytes| {
        let inbox = std::iter::once(bytes.to_vec()).chain(wire.sent[w].iter().cloned());
        // What `serve_stdio` does after its `Hello`.
        worked(inbox.collect(), |port| match greet(port) {
            Ok((spec, data)) => work(&data, Arc::new(Naming::mine(&data)), spec, port),
            Err(code) => code,
        })
    });
    let sent = &wire.sent[0];

    let naming = Arc::new(Naming::mine(&data));
    let spec = worker_spec(&cfg, 0, false);
    let rows: Vec<ShardMsg> = sent[..1].iter().map(|b| unframe(b).unwrap()).collect();
    assert_eq!(rows[0].kind(), "rows");
    verdicts.extend(walk("rows", &rows, 16, frame, unframe, |_, bytes| {
        let inbox = std::iter::once(bytes.to_vec()).chain(sent[1..].iter().cloned());
        worked(inbox.collect(), |port| {
            work(&data, Arc::clone(&naming), spec.clone(), port)
        })
    }));
    judge(&["hello", "rows"], &verdicts);
}
