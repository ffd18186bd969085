//! The content-addressed compile cache.
//!
//! Every compilation in this workspace is deterministic: the same
//! circuit under the same session configuration produces the same
//! program, success estimate, and execution time, bit for bit. The cache
//! exploits that by keying compile results on
//! `(circuit digest, config fingerprint)` — see [`Circuit::digest`] and
//! the `Fingerprint` impls across `tilt-compiler`/`tilt-sim`/
//! `tilt-qccd`/`tilt-scale` — so a repeated circuit skips the whole
//! decompose → route → schedule → estimate pipeline.
//!
//! # Shape
//!
//! A bounded LRU map under one mutex — bounded by **entry count and
//! approximate payload bytes** (program text scales with circuit
//! depth, so a count bound alone would not cap memory). Each slot holds
//! one [`WireReport`]: every field a service response carries, plus the
//! scheduled TILT program text when an `emit_program` request recorded
//! it. Entries are [`Arc`]-shared: a hit clones the `Arc` inside the
//! lock and renders the response *outside* it, so concurrent
//! connections contend only for the map op. Counters (`hits`,
//! `misses`, `evictions`, `entries`) feed the service's
//! `{"op":"stats"}` probe.
//!
//! Circuit keys are **salted**: each cache holds a random 128-bit key
//! folded into the hasher's initial state ([`Hasher::keyed`]), because
//! plain FNV is invertible and a hostile client could otherwise
//! engineer two circuits with colliding digests and poison another
//! request's response. Within one cache the salted key is exactly as
//! deterministic as the unsalted digest; across caches keys differ,
//! which is why snapshots persist their salt.
//!
//! [`Engine::run`](crate::Engine::run) records the wire view of every
//! compile in an attached cache, without program text, and never
//! answers from it; the service's probe is the only reader. A TILT
//! entry without program text does not answer an `emit_program`
//! request: that request compiles, and the service records the view
//! again with the text.
//!
//! # Persistence
//!
//! [`CompileCache::save`] snapshots every entry as one JSON object per
//! line (through the workspace's own [`Json`] writer) to
//! `compile-cache.jsonl` under a directory; [`CompileCache::load`]
//! replays it. An entry carries a `"program"` field only when it holds
//! program text. Every line ends in a fixed-width `,"check":"<32 hex>"}`
//! tail: a digest over the line's own bytes before the `check` field
//! (plus the closing `}`), which `load` verifies before it parses
//! anything. A corrupted, truncated, hand-edited, or version-skewed line
//! fails verification and is dropped individually — a bad snapshot
//! degrades to a cold start, never to a wrong response. The writer's
//! output is canonical, so this is the same digest over the same bytes
//! as a digest of the re-rendered payload, and snapshots written before
//! the loader checked raw bytes still load: the format version stays 1.
//! Stale-but-valid entries (from a session configured differently) are
//! harmless: their config fingerprint no longer matches any key the
//! server computes, so they age out of the LRU untouched.

use crate::report::{BackendKind, CompileStats, RunReport};
use crate::sim::{SimReport, SimulatorKind};
use crate::stream::StreamOutcome;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tilt_circuit::Circuit;
use tilt_hash::{Digest, Fingerprint, Hasher};
use tilt_report::Json;

/// Entries a serve-loop cache holds by default.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default approximate-payload budget. Entries are bounded by **both**
/// count and bytes: artifact size scales with circuit depth, so an
/// entry-count bound alone would let a stream of large distinct
/// circuits grow the cache without limit (the service's request caps
/// allow multi-MB programs). The estimate is deliberately rough — a
/// DoS bound, not an accountant.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// Snapshot file name under a `--cache-dir`.
pub const SNAPSHOT_FILE: &str = "compile-cache.jsonl";

/// Snapshot format version; bumped when the line schema changes.
const SNAPSHOT_VERSION: f64 = 1.0;

/// The content address of one compile result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Salted structural digest of the source circuit
    /// ([`CompileCache::circuit_key`]).
    pub circuit: Digest,
    /// The session's config fingerprint
    /// ([`Engine::config_fingerprint`](crate::Engine::config_fingerprint)).
    pub config: Digest,
}

/// The wire-level projection of a run: every field a service response
/// carries. Numbers are stored exactly as the fresh path would render
/// them, so a response served from cache is byte-identical to one served
/// from a fresh compile.
#[derive(Clone, Debug, PartialEq)]
pub struct WireReport {
    /// Which backend compiled the circuit.
    pub backend: BackendKind,
    /// Inserted SWAP count.
    pub swaps: usize,
    /// Opposing-swap count.
    pub opposing_swaps: usize,
    /// Tape moves / transports.
    pub moves: usize,
    /// Tape travel / shuttle segments.
    pub move_distance: usize,
    /// Compiled gate count.
    pub native_gates: usize,
    /// Compiled two-qubit gate count.
    pub native_two_qubit: usize,
    /// EPR pairs consumed (scaled backend).
    pub epr_pairs: usize,
    /// ln of the success probability.
    pub ln_success: f64,
    /// Success probability.
    pub success: f64,
    /// Execution-time estimate in µs.
    pub exec_time_us: f64,
    /// Scheduled TILT program text, when an `emit_program` request
    /// recorded it (or a loaded snapshot line carried it).
    pub program_text: Option<String>,
    /// Logical-circuit simulation outcome, when the session simulated.
    pub sim: Option<SimReport>,
}

impl WireReport {
    /// Projects a fresh run report onto the wire fields, without
    /// program text.
    pub fn of(report: &RunReport) -> WireReport {
        let scalars = [report.ln_success, report.success, report.exec_time_us];
        WireReport {
            sim: report.sim.clone(),
            ..WireReport::project(report.backend, &report.compile, scalars)
        }
    }

    /// Projects a streaming run's outcome, which carries neither a
    /// simulation nor a program.
    pub(crate) fn of_stream(outcome: &StreamOutcome) -> WireReport {
        let scalars = [outcome.ln_success, outcome.success, outcome.exec_time_us];
        WireReport::project(outcome.backend, &outcome.compile, scalars)
    }

    fn project(
        backend: BackendKind,
        c: &CompileStats,
        [ln_success, success, exec_time_us]: [f64; 3],
    ) -> WireReport {
        WireReport {
            backend,
            swaps: c.swap_count,
            opposing_swaps: c.opposing_swap_count,
            moves: c.move_count,
            move_distance: c.move_distance,
            native_gates: c.native_gate_count,
            native_two_qubit: c.native_two_qubit_count,
            epr_pairs: c.epr_pairs,
            ln_success,
            success,
            exec_time_us,
            program_text: None,
            sim: None,
        }
    }

    /// Appends the compile/estimate fields every successful response
    /// carries, windowed or streamed — the single place their wire
    /// order is defined.
    pub(crate) fn fields(&self, resp: Json) -> Json {
        resp.set("backend", self.backend.to_string())
            .set("swaps", self.swaps)
            .set("opposing_swaps", self.opposing_swaps)
            .set("moves", self.moves)
            .set("move_distance", self.move_distance)
            .set("native_gates", self.native_gates)
            .set("native_two_qubit", self.native_two_qubit)
            .set("epr_pairs", self.epr_pairs)
            .set("ln_success", self.ln_success)
            .set("success", self.success)
            .set("exec_time_us", self.exec_time_us)
    }

    /// Reads back what [`WireReport::fields`] wrote; `None` when a
    /// field is missing, of the wrong type, or not finite.
    fn from_fields(obj: &Json) -> Option<WireReport> {
        let count = |field: &str| count_field(obj, field);
        let num = |field: &str| obj.get(field)?.as_f64().filter(|x| x.is_finite());
        Some(WireReport {
            backend: BackendKind::parse(obj.get("backend")?.as_str()?)?,
            swaps: count("swaps")?,
            opposing_swaps: count("opposing_swaps")?,
            moves: count("moves")?,
            move_distance: count("move_distance")?,
            native_gates: count("native_gates")?,
            native_two_qubit: count("native_two_qubit")?,
            epr_pairs: count("epr_pairs")?,
            ln_success: num("ln_success")?,
            success: num("success")?,
            exec_time_us: num("exec_time_us")?,
            program_text: None,
            sim: None,
        })
    }

    /// Whether this view can answer a request: a TILT entry recorded
    /// without program text cannot answer one that asks for the text
    /// (`emit_program`).
    fn answers(&self, emit_program: bool) -> bool {
        !emit_program || self.program_text.is_some() || self.backend != BackendKind::Tilt
    }

    /// Renders the response body shared by fresh and cached paths.
    pub(crate) fn response(&self, id: &Json, emit_program: bool) -> Json {
        let mut resp = self.fields(Json::object().set("id", id.clone()).set("ok", true));
        if let Some(sim) = &self.sim {
            let mut body = Json::object()
                .set("simulator", sim.simulator.to_string())
                .set("bitstring", sim.bitstring.as_str())
                .set("measurements", sim.measurements);
            if let Some(d) = sim.deterministic_measurements {
                body = body.set("deterministic_measurements", d);
            }
            if let Some(r) = sim.random_measurements {
                body = body.set("random_measurements", r);
            }
            resp = resp.set("sim", body);
        }
        if emit_program {
            if let Some(text) = &self.program_text {
                resp = resp.set("program", text.as_str());
            }
        }
        resp
    }
}

/// Counter snapshot of a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Probes the cache answered.
    pub hits: u64,
    /// Probes it could not answer.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheCounters {
    /// Hit fraction of all counted lookups; 0 when none happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot {
    wire: Arc<WireReport>,
    stamp: u64,
    /// Approximate payload bytes this entry pins (see
    /// [`approx_entry_bytes`]).
    bytes: usize,
}

struct CacheState {
    map: HashMap<CacheKey, Slot>,
    /// Recency index: stamp → key, oldest first. Stamps are unique
    /// (monotonic clock), so this is a faithful LRU order.
    order: BTreeMap<u64, CacheKey>,
    clock: u64,
    /// Sum of every resident slot's `bytes`.
    total_bytes: usize,
    /// Random key folded into every circuit digest this cache computes
    /// (see [`CompileCache::circuit_key`]); replaced by
    /// [`CompileCache::load`] so persisted keys keep matching.
    salt: u128,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheState {
    fn touch(&mut self, key: CacheKey) {
        let slot = self.map.get_mut(&key).expect("touch of resident key");
        self.order.remove(&slot.stamp);
        self.clock += 1;
        slot.stamp = self.clock;
        self.order.insert(self.clock, key);
    }
}

/// Approximate resident size of one entry: a fixed cost plus its
/// program text.
fn approx_entry_bytes(wire: &WireReport) -> usize {
    256 + wire.program_text.as_ref().map_or(0, String::len)
}

/// A random 128-bit key from the OS entropy the standard library seeds
/// [`std::collections::hash_map::RandomState`] with (the workspace
/// builds offline, without a rand crate for non-shim code).
fn random_salt() -> u128 {
    use std::hash::{BuildHasher, Hasher as _};
    let word = |tag: u64| {
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(tag);
        h.finish()
    };
    ((word(1) as u128) << 64) | word(2) as u128
}

/// A bounded, thread-safe, content-addressed compile cache.
///
/// Share one instance (behind [`Arc`]) between an
/// [`Engine`](crate::Engine) session and any number of service loops; see the module docs for the design.
pub struct CompileCache {
    capacity: usize,
    max_bytes: usize,
    state: Mutex<CacheState>,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("CompileCache")
            .field("capacity", &self.capacity)
            .field("entries", &c.entries)
            .field("hits", &c.hits)
            .field("misses", &c.misses)
            .field("evictions", &c.evictions)
            .finish()
    }
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl CompileCache {
    /// A cache bounded to `capacity` entries (floor 1) and the default
    /// byte budget ([`DEFAULT_CACHE_BYTES`]).
    pub fn new(capacity: usize) -> CompileCache {
        CompileCache::bounded(capacity, DEFAULT_CACHE_BYTES)
    }

    /// A cache bounded to `capacity` entries **and** roughly
    /// `max_bytes` of payload (each with a floor of 1; whichever bound
    /// is hit first evicts). A single entry estimated above the byte
    /// budget is not cached at all — one giant artifact must not flush
    /// everything else.
    pub fn bounded(capacity: usize, max_bytes: usize) -> CompileCache {
        CompileCache {
            capacity: capacity.max(1),
            max_bytes: max_bytes.max(1),
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
                total_bytes: 0,
                salt: random_salt(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The state lock, recovering from poison. A compile that
    /// panics mid-insert (compiles can panic; see the fault harness)
    /// must not brick the cache for every future request: all state
    /// mutations under this lock are scoped so a mid-update panic at
    /// worst loses or double-counts one entry, never corrupts the
    /// map/order invariants observed by later calls.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The circuit half of this cache's keys: the circuit's structural
    /// content hashed under the cache's random salt. Salting makes
    /// engineered digest collisions infeasible for remote clients (FNV
    /// alone is invertible — see [`Hasher::keyed`]); determinism within
    /// one cache is all the key needs, and [`CompileCache::load`]
    /// restores the salt a snapshot's keys were computed under.
    pub fn circuit_key(&self, circuit: &Circuit) -> Digest {
        let salt = self.state().salt;
        let mut h = Hasher::keyed(salt);
        circuit.fingerprint_into(&mut h);
        h.digest()
    }

    /// Current counters.
    pub fn counters(&self) -> CacheCounters {
        let state = self.state();
        CacheCounters {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.map.len(),
        }
    }

    /// The service's probe: the entry under `key` when it can answer a
    /// request (see the module docs for the `emit_program` rule).
    /// Counts a hit when it does and a miss when it does not.
    pub(crate) fn get_wire(&self, key: CacheKey, emit_program: bool) -> Option<Arc<WireReport>> {
        let mut state = self.state();
        let wire = state
            .map
            .get(&key)
            .map(|slot| &slot.wire)
            .filter(|wire| wire.answers(emit_program))
            .map(Arc::clone);
        match wire {
            Some(_) => {
                state.hits += 1;
                state.touch(key);
            }
            None => state.misses += 1,
        }
        wire
    }

    /// The wire view of a resident entry, for inspection: counts no hit
    /// and leaves its recency alone.
    pub fn peek_wire(&self, key: CacheKey) -> Option<WireReport> {
        self.state()
            .map
            .get(&key)
            .map(|slot| WireReport::clone(&slot.wire))
    }

    /// Inserts (or replaces) an entry, evicting least-recently-used
    /// entries while either bound (entry count, payload bytes) is
    /// exceeded.
    pub(crate) fn insert(&self, key: CacheKey, wire: WireReport) {
        let mut state = self.state();
        self.insert_locked(&mut state, key, wire);
    }

    fn insert_locked(&self, state: &mut CacheState, key: CacheKey, wire: WireReport) {
        // The injected panic fires before any mutation, so a poisoned
        // lock is the only damage the recovery path has to absorb.
        #[cfg(any(test, feature = "faults"))]
        crate::faults::cache_insert_seam();
        let bytes = approx_entry_bytes(&wire);
        if bytes > self.max_bytes {
            // An entry bigger than the whole budget is served fresh
            // every time rather than flushing the cache for it.
            return;
        }
        if let Some(slot) = state.map.get_mut(&key) {
            state.total_bytes = state.total_bytes - slot.bytes + bytes;
            slot.wire = Arc::new(wire);
            slot.bytes = bytes;
            state.touch(key);
        } else {
            state.clock += 1;
            let stamp = state.clock;
            state.map.insert(
                key,
                Slot {
                    wire: Arc::new(wire),
                    stamp,
                    bytes,
                },
            );
            state.order.insert(stamp, key);
            state.total_bytes += bytes;
        }
        // The just-inserted entry has the freshest stamp, so it is
        // never its own victim while anything else remains; and alone
        // it fits (checked above).
        while state.map.len() > self.capacity || state.total_bytes > self.max_bytes {
            let (&stamp, &victim) = state.order.iter().next().expect("bounded cache non-empty");
            state.order.remove(&stamp);
            let slot = state.map.remove(&victim).expect("indexed slot resident");
            state.total_bytes -= slot.bytes;
            state.evictions += 1;
        }
    }

    /// Snapshots to `dir/compile-cache.jsonl` (creating `dir`): a
    /// header line carrying the cache's salt, then every entry's wire
    /// view, oldest first so a reload rebuilds the same recency order.
    /// Entries with non-finite estimates are skipped (JSON cannot
    /// round-trip them). Returns the number of entries written.
    ///
    /// The snapshot is replaced **atomically**: the text is written to
    /// `compile-cache.jsonl.tmp` and renamed over the live file, so a
    /// crash or SIGTERM mid-save leaves the previous snapshot intact
    /// rather than truncated in place.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable directory, full disk).
    pub fn save(&self, dir: &Path) -> io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut text = String::new();
        let mut written = 0usize;
        {
            let state = self.state();
            // Header: the salt the entry keys below were computed
            // under. Local to this snapshot — a reader of the file
            // could already forge whole entries, so persisting the
            // salt gives up nothing against the remote-client threat
            // the salt exists for.
            let header = Json::object()
                .set("v", SNAPSHOT_VERSION)
                .set("salt", Digest(state.salt).to_hex());
            push_sealed(&mut text, &header);
            for key in state.order.values() {
                let wire = &state.map[key].wire;
                if !(wire.ln_success.is_finite()
                    && wire.success.is_finite()
                    && wire.exec_time_us.is_finite())
                {
                    continue;
                }
                let mut payload = wire.fields(
                    Json::object()
                        .set("v", SNAPSHOT_VERSION)
                        .set("circuit", key.circuit.to_hex())
                        .set("config", key.config.to_hex()),
                );
                if let Some(program) = &wire.program_text {
                    payload = payload.set("program", program.as_str());
                }
                // Simulation fields are flat and optional, so v1.0
                // readers and sim-less entries are both unaffected.
                if let Some(sim) = &wire.sim {
                    payload = payload
                        .set("sim_simulator", sim.simulator.to_string())
                        .set("sim_bitstring", sim.bitstring.as_str())
                        .set("sim_measurements", sim.measurements);
                    if let Some(d) = sim.deterministic_measurements {
                        payload = payload.set("sim_deterministic", d);
                    }
                    if let Some(r) = sim.random_measurements {
                        payload = payload.set("sim_random", r);
                    }
                }
                push_sealed(&mut text, &payload);
                written += 1;
            }
        }
        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        #[cfg(any(test, feature = "faults"))]
        crate::faults::snapshot_save_seam(&tmp, &mut text)?;
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
        Ok(written)
    }

    /// Restores entries from `dir/compile-cache.jsonl`, adopting the
    /// snapshot's salt (so its keys keep matching future requests —
    /// call this at startup, before serving). Every line is verified in
    /// one pass: its bytes before the `check` field must hash to the
    /// embedded `check` digest before the line is parsed and decoded
    /// (eagerly — an entry is ready to serve once loaded). Entry lines
    /// that fail to verify, parse, or carry the expected fields are dropped
    /// individually, and a bad **header** rejects the whole snapshot
    /// (without the right salt its keys could never be hit anyway). A
    /// missing snapshot file is an empty load, not an error. Returns
    /// `(loaded, rejected)`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem read errors other than a missing file.
    pub fn load(&self, dir: &Path) -> io::Result<(usize, usize)> {
        let text = match std::fs::read_to_string(dir.join(SNAPSHOT_FILE)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, 0)),
            Err(e) => return Err(e),
        };
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let mut state = self.state();
        match lines.next().and_then(parse_snapshot_header) {
            Some(salt) => state.salt = salt,
            None => return Ok((0, text.lines().filter(|l| !l.trim().is_empty()).count())),
        }
        let mut loaded = 0usize;
        let mut rejected = 0usize;
        for line in lines {
            match parse_snapshot_line(line) {
                Some((key, wire)) => {
                    self.insert_locked(&mut state, key, wire);
                    loaded += 1;
                }
                None => rejected += 1,
            }
        }
        Ok((loaded, rejected))
    }
}

/// The two halves of the `,"check":"<32 hex>"}` tail that closes every
/// snapshot line, and its fixed width.
const CHECK_PREFIX: &str = ",\"check\":\"";
const CHECK_SUFFIX: &str = "\"}";
const CHECK_TAIL_LEN: usize = CHECK_PREFIX.len() + 32 + CHECK_SUFFIX.len();

/// The integrity digest of one rendered snapshot payload (the line's
/// object without its `check` field).
fn payload_check(payload: &str) -> Digest {
    let mut h = Hasher::new();
    h.write_str(payload);
    h.digest()
}

/// Renders `payload` once, then closes it with the check tail and a
/// newline: the line is the payload's own bytes with `,"check":…`
/// spliced in before its final `}`.
fn push_sealed(text: &mut String, payload: &Json) {
    let rendered = payload.render();
    let check = payload_check(&rendered);
    text.push_str(&rendered[..rendered.len() - 1]);
    text.push_str(CHECK_PREFIX);
    text.push_str(&check.to_hex());
    text.push_str(CHECK_SUFFIX);
    text.push('\n');
}

/// Verifies one snapshot line against its own bytes and parses the
/// payload object. The line must end in the fixed-width check tail; the
/// bytes before it plus a closing `}` are the payload, which must hash
/// to the check before it is parsed at all. A writer's line is
/// canonical, so any edit (a changed byte, inserted whitespace, a moved
/// `check`, trailing bytes) breaks either the tail or the digest. The
/// payload must carry this format's version `v`.
fn verified_payload(line: &str) -> Option<Json> {
    let split = line.len().checked_sub(CHECK_TAIL_LEN)?;
    let hex = line
        .as_bytes()
        .get(split..)?
        .strip_prefix(CHECK_PREFIX.as_bytes())?
        .strip_suffix(CHECK_SUFFIX.as_bytes())?;
    let check = Digest::from_hex(std::str::from_utf8(hex).ok()?)?;
    // The tail is ASCII, so `split` is a char boundary.
    let mut payload = String::with_capacity(split + 1);
    payload.push_str(line.get(..split)?);
    payload.push('}');
    if payload_check(&payload) != check {
        return None;
    }
    let payload = Json::parse(&payload).ok()?;
    (payload.get("v")?.as_f64()? == SNAPSHOT_VERSION).then_some(payload)
}

/// Verifies and decodes the snapshot header line, returning its salt.
fn parse_snapshot_header(line: &str) -> Option<u128> {
    let header = verified_payload(line)?;
    // Headers carry no entry fields — a swapped header/entry line
    // must not smuggle a salt-less record through.
    if header.get("circuit").is_some() {
        return None;
    }
    Some(Digest::from_hex(header.get("salt")?.as_str()?)?.0)
}

/// A non-negative integer field of `obj`.
fn count_field(obj: &Json, field: &str) -> Option<usize> {
    let x = obj.get(field)?.as_f64()?;
    (x >= 0.0 && x.fract() == 0.0).then_some(x as usize)
}

/// Verifies and decodes one snapshot line; `None` rejects it.
fn parse_snapshot_line(line: &str) -> Option<(CacheKey, WireReport)> {
    let payload = verified_payload(line)?;
    let key = CacheKey {
        circuit: Digest::from_hex(payload.get("circuit")?.as_str()?)?,
        config: Digest::from_hex(payload.get("config")?.as_str()?)?,
    };
    let count = |field: &str| count_field(&payload, field);
    // An optional count: absent is `None`, malformed rejects the line.
    let optional = |field: &str| match payload.get(field) {
        None => Some(None),
        Some(_) => count(field).map(Some),
    };
    let wire = WireReport {
        program_text: match payload.get("program") {
            None => None,
            Some(p) => Some(p.as_str()?.to_string()),
        },
        sim: match payload.get("sim_simulator") {
            None => None,
            Some(s) => {
                let simulator = SimulatorKind::parse(s.as_str()?)?;
                let bitstring = payload.get("sim_bitstring")?.as_str()?.to_string();
                if !bitstring.chars().all(|c| c == '0' || c == '1') {
                    return None;
                }
                Some(SimReport {
                    simulator,
                    bitstring,
                    measurements: count("sim_measurements")?,
                    deterministic_measurements: optional("sim_deterministic")?,
                    random_measurements: optional("sim_random")?,
                })
            }
        },
        ..WireReport::from_fields(&payload)?
    };
    Some((key, wire))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u128) -> CacheKey {
        CacheKey {
            circuit: Digest(n),
            config: Digest(0xc0),
        }
    }

    fn entry(moves: usize) -> WireReport {
        WireReport {
            backend: BackendKind::Tilt,
            swaps: 1,
            opposing_swaps: 0,
            moves,
            move_distance: 4,
            native_gates: 9,
            native_two_qubit: 3,
            epr_pairs: 0,
            ln_success: -0.25,
            success: 0.7788007830714049,
            exec_time_us: 191.0,
            program_text: Some(format!("move {moves}")),
            sim: None,
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cache = CompileCache::new(2);
        cache.insert(key(1), entry(1));
        cache.insert(key(2), entry(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get_wire(key(1), false).is_some());
        cache.insert(key(3), entry(3));
        assert!(cache.get_wire(key(2), false).is_none(), "LRU entry evicted");
        assert!(cache.get_wire(key(1), false).is_some());
        assert!(cache.get_wire(key(3), false).is_some());
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.entries, 2);
    }

    #[test]
    fn replacing_an_entry_does_not_evict() {
        let cache = CompileCache::new(2);
        cache.insert(key(1), entry(1));
        cache.insert(key(1), entry(10));
        cache.insert(key(2), entry(2));
        let c = cache.counters();
        assert_eq!(c.evictions, 0);
        assert_eq!(c.entries, 2);
        assert_eq!(cache.get_wire(key(1), false).unwrap().moves, 10);
    }

    #[test]
    fn wire_probe_counts_hits_and_misses() {
        let cache = CompileCache::new(4);
        assert!(cache.get_wire(key(1), false).is_none());
        assert_eq!(cache.counters().misses, 1, "the probe counts its miss");
        cache.insert(key(1), entry(1));
        assert!(cache.get_wire(key(1), false).is_some());
        assert_eq!(cache.counters().hits, 1);
        // A TILT entry without program text cannot answer a request
        // for the text; one with text, or a QCCD entry, can.
        let mut textless = entry(2);
        textless.program_text = None;
        let mut qccd = textless.clone();
        qccd.backend = BackendKind::Qccd;
        cache.insert(key(2), textless);
        cache.insert(key(3), qccd);
        assert!(cache.get_wire(key(2), false).is_some());
        assert!(cache.get_wire(key(2), true).is_none());
        assert!(cache.get_wire(key(1), true).is_some());
        assert!(cache.get_wire(key(3), true).is_some());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (4, 2));
    }

    /// Saves one circuit's entry after `requests` (request lines without
    /// a trailing newline) went through a TILT service, returning
    /// whether the entry's snapshot line carries `"program"`.
    fn saved_with_program(tag: &str, requests: &[&str]) -> bool {
        let dir = std::env::temp_dir().join(format!("tilt-cache-{tag}-{}", std::process::id()));
        let cache = Arc::new(CompileCache::new(8));
        let builder = crate::Engine::builder()
            .backend(crate::Backend::Tilt(
                tilt_compiler::DeviceSpec::new(8, 4).unwrap(),
            ))
            .compile_cache(Arc::clone(&cache));
        let circuit =
            tilt_circuit::qasm::parse_qasm("qreg q[8];\nh q[0];\ncx q[0], q[7];\n").unwrap();
        builder.clone().build().unwrap().run(&circuit).unwrap();
        let input: String = requests.iter().map(|r| format!("{r}\n")).collect();
        crate::Service::new(builder)
            .unwrap()
            .serve(std::io::Cursor::new(input), Vec::new(), None)
            .unwrap();
        assert_eq!(cache.save(&dir).unwrap(), 1);
        let text = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        text.lines().nth(1).unwrap().contains("\"program\":")
    }

    #[test]
    fn program_text_is_saved_only_for_emit_program_requests() {
        let request = r#"{"id":1,"qasm":"qreg q[8];\nh q[0];\ncx q[0], q[7];\n"}"#;
        let emit = r#"{"id":2,"emit_program":true,"qasm":"qreg q[8];\nh q[0];\ncx q[0], q[7];\n"}"#;
        // `Engine::run` records the entry without text, and a plain
        // request hits it without adding any.
        assert!(!saved_with_program("textless", &[request]));
        // An `emit_program` request compiles and records the text.
        assert!(saved_with_program("text", &[request, emit]));
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = std::env::temp_dir().join(format!("tilt-cache-unit-{}", std::process::id()));
        let cache = CompileCache::new(8);
        cache.insert(key(1), entry(1));
        cache.insert(key(2), entry(2));
        assert_eq!(cache.save(&dir).unwrap(), 2);

        let restored = CompileCache::new(8);
        let (loaded, rejected) = restored.load(&dir).unwrap();
        assert_eq!((loaded, rejected), (2, 0));
        assert_eq!(*restored.get_wire(key(2), false).unwrap(), entry(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_round_trips_sim_fields() {
        let dir = std::env::temp_dir().join(format!("tilt-cache-sim-{}", std::process::id()));
        let cache = CompileCache::new(8);
        let mut with_sim = entry(1);
        with_sim.sim = Some(SimReport {
            simulator: SimulatorKind::Stabilizer,
            bitstring: "0110".to_string(),
            measurements: 4,
            deterministic_measurements: Some(3),
            random_measurements: Some(1),
        });
        cache.insert(key(1), with_sim);
        cache.insert(key(2), entry(2));
        assert_eq!(cache.save(&dir).unwrap(), 2);

        let restored = CompileCache::new(8);
        assert_eq!(restored.load(&dir).unwrap(), (2, 0));
        let got = restored.get_wire(key(1), false).unwrap();
        let sim = got.sim.as_ref().expect("sim fields round-trip");
        assert_eq!(sim.simulator, SimulatorKind::Stabilizer);
        assert_eq!(sim.bitstring, "0110");
        assert_eq!(sim.deterministic_measurements, Some(3));
        assert!(restored.get_wire(key(2), false).unwrap().sim.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_snapshot_lines_are_rejected_individually() {
        let dir = std::env::temp_dir().join(format!("tilt-cache-corrupt-{}", std::process::id()));
        let cache = CompileCache::new(8);
        cache.insert(key(1), entry(1));
        cache.insert(key(2), entry(2));
        cache.save(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Line 0 is the salt header; entries follow. Tamper with a
        // value inside the first entry — the check digest must catch
        // it.
        lines[1] = lines[1].replace("\"moves\":1", "\"moves\":7");
        // And append outright garbage plus a truncated line.
        lines.push("not json at all".to_string());
        lines.push(lines[2][..lines[2].len() / 2].to_string());
        std::fs::write(&path, lines.join("\n")).unwrap();

        let restored = CompileCache::new(8);
        let (loaded, rejected) = restored.load(&dir).unwrap();
        assert_eq!(loaded, 1, "only the intact line survives");
        assert_eq!(rejected, 3);
        assert!(restored.get_wire(key(1), false).is_none());
        assert!(restored.get_wire(key(2), false).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_header_rejects_the_whole_snapshot() {
        let dir = std::env::temp_dir().join(format!("tilt-cache-header-{}", std::process::id()));
        let cache = CompileCache::new(8);
        cache.insert(key(1), entry(1));
        cache.save(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Without a trustworthy salt no persisted key can be matched,
        // so a corrupt header must reject everything (cold start).
        lines[0] = lines[0].replace("\"salt\":\"", "\"salt\":\"f");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let restored = CompileCache::new(8);
        let (loaded, rejected) = restored.load(&dir).unwrap();
        assert_eq!(loaded, 0);
        assert_eq!(rejected, 2, "header plus its now-orphaned entry");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_adopts_the_snapshot_salt() {
        let dir = std::env::temp_dir().join(format!("tilt-cache-salt-{}", std::process::id()));
        let mut circuit = Circuit::new(4);
        circuit.h(tilt_circuit::Qubit(0));
        let a = CompileCache::new(8);
        let b = CompileCache::new(8);
        assert_ne!(
            a.circuit_key(&circuit),
            b.circuit_key(&circuit),
            "independent caches hash under independent salts"
        );
        a.save(&dir).unwrap();
        b.load(&dir).unwrap();
        assert_eq!(
            a.circuit_key(&circuit),
            b.circuit_key(&circuit),
            "a restored cache computes the snapshot's keys"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_evicts_and_oversized_entries_are_skipped() {
        // Each entry below weighs ~256 + text bytes; budget fits two.
        let big_text = |tag: usize| {
            let mut e = entry(tag);
            e.program_text = Some("x".repeat(2048));
            e
        };
        let cache = CompileCache::bounded(100, 6000);
        cache.insert(key(1), big_text(1));
        cache.insert(key(2), big_text(2));
        assert_eq!(cache.counters().entries, 2);
        cache.insert(key(3), big_text(3));
        let c = cache.counters();
        assert_eq!(c.entries, 2, "byte budget evicts despite spare capacity");
        assert_eq!(c.evictions, 1);
        assert!(
            cache.get_wire(key(1), false).is_none(),
            "oldest paid the bytes"
        );

        // A single entry above the whole budget is not cached at all —
        // and must not flush the resident entries.
        let mut giant = entry(9);
        giant.program_text = Some("y".repeat(8192));
        cache.insert(key(9), giant);
        let c = cache.counters();
        assert!(cache.get_wire(key(9), false).is_none());
        assert_eq!(c.entries, 2, "residents survive an oversized insert");
    }

    #[test]
    fn poisoned_lock_is_recovered_not_fatal() {
        let cache = Arc::new(CompileCache::new(4));
        cache.insert(key(1), entry(1));
        // Genuinely poison the mutex: a thread panics while holding it.
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("poisoning the cache lock");
        })
        .join();
        assert!(
            cache.state.lock().is_err(),
            "lock must actually be poisoned"
        );
        // Every operation recovers instead of bricking the cache.
        assert!(cache.get_wire(key(1), false).is_some());
        cache.insert(key(2), entry(2));
        assert_eq!(cache.counters().entries, 2);
        let dir = std::env::temp_dir().join(format!("tilt-cache-poison-{}", std::process::id()));
        assert_eq!(cache.save(&dir).unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_the_snapshot_atomically() {
        let dir = std::env::temp_dir().join(format!("tilt-cache-atomic-{}", std::process::id()));
        let cache = CompileCache::new(8);
        cache.insert(key(1), entry(1));
        cache.save(&dir).unwrap();
        // No temporary file survives a successful save, and the live
        // file is complete.
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
        let restored = CompileCache::new(8);
        assert_eq!(restored.load(&dir).unwrap(), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_an_empty_load() {
        let dir = std::env::temp_dir().join(format!("tilt-cache-missing-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(CompileCache::new(4).load(&dir).unwrap(), (0, 0));
    }

    #[test]
    fn non_finite_entries_are_not_persisted() {
        let dir = std::env::temp_dir().join(format!("tilt-cache-nonfinite-{}", std::process::id()));
        let cache = CompileCache::new(8);
        let mut bad = entry(1);
        bad.ln_success = f64::NEG_INFINITY;
        cache.insert(key(1), bad);
        cache.insert(key(2), entry(2));
        assert_eq!(cache.save(&dir).unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
