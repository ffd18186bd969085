//! `tilt serve` — a long-running compile/estimation service over the
//! session API.
//!
//! A persistent process an external load generator can hammer: a
//! **JSON-lines protocol** over any `BufRead`/`Write` pair
//! (stdin/stdout in the CLI, a TCP stream per connection, in-memory
//! buffers in tests and benchmarks). Per-request override fields decode
//! into [`Overrides`] and build their engine through the same
//! [`EngineBuilder::overlay`] the CLI's flags use.
//!
//! # Wire protocol
//!
//! One JSON object per line in, one JSON object per line out, responses
//! **in submission order**. A request is either a circuit run (the
//! default), a session reconfiguration, a stats probe, or a shutdown:
//!
//! ```text
//! → {"id":1,"qasm":"qreg q[4];\nh q[0];\ncx q[0], q[3];\n"}
//! ← {"id":1,"ok":true,"backend":"tilt","swaps":0,...,"ln_success":-0.0016,"exec_time_us":191}
//! → {"op":"stats"}
//! ← {"ok":true,"stats":{"uptime_us":...,"served":1,"ok":1,"errors":0,...}}
//! → {"op":"shutdown"}
//! ← {"ok":true,"shutdown":true}
//! ```
//!
//! Run-request fields:
//!
//! * `qasm` (required) — the OpenQASM 2.0 payload.
//! * `id` (optional) — any JSON value, echoed back verbatim.
//! * `emit_program` (optional bool) — include the scheduled TILT
//!   program text in the response.
//! * `stream` (optional bool) — compile through the bounded-memory
//!   streaming pipeline, emitting increment lines (see *Streaming
//!   runs* below); `stream_window` (optional positive integer) sets
//!   the input gates buffered per compile window.
//! * `deadline_ms` (optional number) — the request is worthless after
//!   this many milliseconds: if it is still queued when the deadline
//!   passes it is shed with kind `deadline_exceeded` **without
//!   compiling** (checked at enqueue and again at window dequeue). The
//!   CLI's `--default-deadline-ms` supplies a default for requests that
//!   name none.
//! * Per-request **overrides**: each name in
//!   [`overlay::KEYS`](crate::overlay::KEYS), decoded by the one table
//!   in [`Overrides::set`] that the CLI's flags use too. Present ⇒ the
//!   request compiles under an engine built from the session prototype
//!   with these fields overlaid, and caches under that engine's config
//!   fingerprint. `noise` is a partial Eq. 4 object over the session's
//!   model; `"verify":"strict"` fails the request with kind
//!   `verify_failed` on any error-severity finding.
//!
//! # Streaming runs
//!
//! A run request with `"stream": true` compiles its payload through the
//! bounded-memory streaming pipeline
//! ([`Engine::run_streaming_qasm`](crate::Engine::run_streaming_qasm))
//! instead of the windowed batch path: the QASM text is pulled
//! statement-by-statement, compiled in windows of `stream_window` input
//! gates (optional; default
//! [`DEFAULT_STREAM_WINDOW`](crate::DEFAULT_STREAM_WINDOW)), and every
//! flushed window emits one **increment line** before the final report:
//!
//! ```text
//! → {"id":9,"stream":true,"stream_window":4,"qasm":"qreg q[4];\n..."}
//! ← {"id":9,"increment":1,"shard":0,"ops":12}
//! ← {"id":9,"increment":2,"shard":0,"ops":9}
//! ← {"id":9,"ok":true,"streamed":true,"backend":"tilt","increments":2,"input_gates":8,...}
//! ```
//!
//! The final line carries the same compile/estimate fields as a
//! monolithic response (bit-identical numbers — the streaming pipeline
//! is decision-identical by construction) plus `streamed`,
//! `increments`, and `input_gates`. With `"emit_program": true` each
//! increment also carries its rendered ops as `program`; concatenating
//! them per shard reproduces the monolithic program body. `shard` is
//! the ELU index on the scaled backend and always 0 on tilt.
//!
//! Streaming requests take the one request lane (see *Backpressure and
//! memory*) but never join the window: they drain it, take their
//! admission permit, and compile at once. They bypass the compile cache
//! and the parse memo (a cache entry holds no increment lines to
//! replay), and compile through the **shared session only** —
//! per-request override fields are rejected with `invalid_request`;
//! send `{"op":"configure"}` first to rebind. The `qreg` header is read
//! when the request is parsed: a stream without one, or wider than the
//! service cap, is an `invalid_request` like unparsable QASM on a
//! windowed run, whatever its deadline or the admission budget. A
//! session configured with `"verify"` verifies streams too, with every
//! rule: under `"strict"` a finding fails the stream with kind
//! `verify_failed`, exactly as it fails a windowed run. A
//! mid-stream failure (bad QASM past the first window, or a strict
//! verifier finding at the end) emits its error line *after* the
//! increments already delivered.
//!
//! Every failure — malformed JSON, QASM parse error, a circuit wider
//! than the backend, an unknown backend name, a compile error, a shed
//! request — yields a structured
//! `{"id":...,"ok":false,"error":{"kind":...,"message":...}}` response
//! on its line and **never kills the loop**. The `kind` taxonomy:
//! `invalid_request` (the line never became a compilable request),
//! `compile` (the backend rejected the circuit), `non_clifford` (the
//! stabilizer simulator was asked to run a non-Clifford program; the
//! message names the gate and its index), `verify_failed` (the static
//! verifier found an invariant violation under `"verify":"strict"`),
//! `overloaded` (shed by admission control; carries `retry_after_ms`),
//! `deadline_exceeded` (shed by its deadline), and `internal` (a panic
//! caught at the per-request isolation boundary — the request is lost,
//! the service is not).
//!
//! # Admission control
//!
//! An optional [`AdmissionControl`] (shared across every loop the CLI
//! runs — stdio or all TCP connections together) bounds aggregate
//! in-flight requests and bytes. Every run request that compiles holds a
//! permit from admission until its last response line is written; one
//! that would exceed the budget is **shed immediately** with kind
//! `overloaded` and a `retry_after_ms` backoff hint instead of queuing
//! unboundedly.
//! Cache hits (including override hits) and control ops need no
//! permit. Everything already admitted completes. Shed counts surface
//! in `{"op":"stats"}` and the exit summary.
//!
//! # Session reconfiguration
//!
//! A `{"op":"configure", ...}` message (typically the first line of a
//! connection) **rebinds this loop's default session** using the same
//! override fields a run request accepts — so a client that wants, say,
//! the stochastic router on every request configures once instead of
//! repeating overrides per line. The new session applies to every
//! subsequent default request; later per-request overrides overlay the
//! *reconfigured* session. Dimensions not named inherit the current
//! session machine (the run-override inheritance rule); a bad
//! configuration is rejected on its line and leaves the session
//! untouched. The ack echoes the resulting backend:
//! `{"id":...,"ok":true,"configured":true,"backend":"tilt"}`.
//!
//! # Compile cache
//!
//! Every service owns a content-addressed [`CompileCache`] (shared with
//! its engine and with override engines, and — in the CLI's TCP mode —
//! across all connections): responses for a previously seen
//! `(circuit digest, config fingerprint)` pair are served straight from
//! cache, byte-identical to a fresh compile. `{"op":"stats"}` reports
//! `cache: {hits, misses, evictions, entries}`; `tilt serve --cache-dir`
//! persists the cache across restarts (see [`crate::cache`]).
//!
//! # Backpressure and memory
//!
//! Every run request — default session, override, or stream — takes one
//! lane: it is shed if its deadline has passed, answered from the cache
//! if its `(circuit, config)` pair is resident (parsed payloads only),
//! shed if admission refuses it, and otherwise joins the window or, for
//! a stream, drains the window and runs at once. The window holds up to
//! its bound of requests ([`Service::with_window`], default 8), under
//! any mix of configs, and compiles them one after another on the
//! loop's thread, each under its own engine, writing each response as
//! it completes. A later duplicate in the window is a cache hit on the
//! entry its first occurrence inserted. `configure`, `stats`,
//! `shutdown`, and error lines drain the window too, so ordering
//! survives. Memory is proportional to the window, never to the total
//! stream length; `stats.max_in_flight` reports the high-water mark so
//! tests can pin the bound.
//!
//! Batching is **flush-before-blocking**: only input that is already
//! buffered on the wire coalesces into a window — the loop drains
//! every pending request before it blocks waiting for more bytes, so
//! an interactive client gets its response immediately.
//!
//! One loop runs on one thread, so on a multi-core host a load
//! generator streaming ahead on one connection gets no multi-core
//! wall-clock speedup from its window; CPU time is the same. `tilt
//! serve --listen` runs one loop, on its own thread, per connection.
//!
//! # Shutdown
//!
//! EOF on the input drains the window and returns (mid-stream EOF is a
//! clean shutdown). A `{"op":"shutdown"}` request does the same after
//! acknowledging. The optional `shutdown` flag is checked between
//! lines, so a SIGTERM handler that sets it (the CLI installs one)
//! drains and exits after the in-flight line. The flag alone cannot
//! wake a loop *blocked* in `fill_buf` — the caller must also unblock
//! the reader (the CLI shuts down idle TCP sockets, and for stdin
//! exits directly: a blocked loop has, by the flush-before-blocking
//! rule, nothing buffered to lose).

use crate::admission::{AdmissionControl, AdmissionPermit};
use crate::cache::{CacheCounters, CacheKey, CompileCache, WireReport};
use crate::overlay::{self, Value};
use crate::stream::{StreamOutcome, DEFAULT_STREAM_WINDOW};
use crate::{Backend, Engine, EngineBuilder, Overrides, RunReport, TiltError};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tilt_circuit::{qasm, Circuit, Gate};
use tilt_compiler::{OpLines, TiltOp};
use tilt_hash::{Digest, Hasher};
use tilt_report::Json;

/// Requests buffered per window when [`Service::with_window`] names no
/// bound.
const DEFAULT_WINDOW: usize = 8;

/// Log-linear latency buckets: one per µs below 16 µs, then 8 per power
/// of two up to 2^40 µs ≈ 12 days — far beyond any single compile.
const LATENCY_BUCKETS: usize = 8 * 38;

/// Longest request line the loop will buffer. A newline-free byte flood
/// would otherwise grow the accumulator without bound and abort the
/// whole process on allocation failure; 16 MiB comfortably holds the
/// QASM of any circuit that fits under [`MAX_REQUEST_IONS`].
const MAX_LINE_BYTES: usize = 16 << 20;

/// Bounds on the parsed-payload memo (entries and retained bytes). The
/// memo exists so that a repeated request costs neither its QASM parse
/// nor its compile — the two O(gates) stages — leaving only JSON
/// decode, two hash lookups, and response rendering on the warm path.
const PARSE_MEMO_CAPACITY: usize = 512;
const PARSE_MEMO_MAX_BYTES: usize = 64 << 20;

/// Hard ceiling on any machine dimension (ions, ELU ions, trap ions) or
/// circuit width a *request* can ask for. The service allocates data
/// structures proportional to these, so an uncapped request like
/// `"ions": 2e11` would abort the whole process on allocation failure —
/// violating per-request error isolation. 4096 ions is far beyond both
/// the paper's machines and any request the estimators finish in
/// reasonable time; the operator's own `--ions` is not capped.
const MAX_REQUEST_IONS: usize = 4096;

/// A fixed-size log-linear latency histogram: bounded memory no matter
/// how many requests stream through, and quantiles that overstate the
/// true value by at most one sub-bucket, 12.5%.
#[derive(Clone, Debug)]
struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
        }
    }

    fn record_us(&mut self, us: u64) {
        // `us` in [8 << shift, 16 << shift) lands in sub-bucket
        // `us >> shift` of 8..16; below 16 µs the shift is 0.
        let shift = (u64::BITS - us.leading_zeros()).saturating_sub(4);
        let bucket = 8 * shift as usize + (us >> shift) as usize;
        self.buckets[bucket.min(LATENCY_BUCKETS - 1)] += 1;
        self.count += 1;
    }

    /// The largest value (µs) of the bucket holding the `q`-quantile
    /// request, `0 < q <= 1`; 0 when nothing was recorded.
    fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let bucket = self.buckets.iter().position(|&n| {
            seen += n;
            seen >= rank
        });
        let bucket = bucket.unwrap_or(LATENCY_BUCKETS - 1) as u64;
        let shift = (bucket / 8).saturating_sub(1);
        ((bucket - 8 * shift + 1) << shift) - 1
    }
}

/// Live counters of one service loop.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    started: Instant,
    /// Responses written (ok + error), excluding stats/shutdown acks.
    pub served: u64,
    /// Successful circuit responses.
    pub ok: u64,
    /// Error responses (parse failures, compile failures, and shed
    /// requests — the shed counters below break those out).
    pub errors: u64,
    /// Requests shed by admission control (kind `overloaded`).
    pub shed_overloaded: u64,
    /// Requests shed by their deadline (kind `deadline_exceeded`).
    pub shed_deadline: u64,
    /// High-water mark of buffered requests — bounded by the window.
    pub max_in_flight: usize,
    latency: LatencyHistogram,
}

impl ServiceStats {
    fn new() -> Self {
        ServiceStats {
            started: Instant::now(),
            served: 0,
            ok: 0,
            errors: 0,
            shed_overloaded: 0,
            shed_deadline: 0,
            max_in_flight: 0,
            latency: LatencyHistogram::new(),
        }
    }

    fn record(&mut self, latency_us: u64, ok: bool) {
        self.served += 1;
        if ok {
            self.ok += 1;
        } else {
            self.errors += 1;
        }
        self.latency.record_us(latency_us);
    }

    /// Median request latency in µs: parse → response written,
    /// including any window queue wait (log-linear buckets, at most
    /// 12.5% above the true value). Under interactive traffic this is
    /// compile time; under a load generator streaming ahead it includes
    /// batching.
    pub fn p50_us(&self) -> u64 {
        self.latency.quantile_us(0.50)
    }

    /// 99th-percentile request latency in µs (same definition as
    /// [`ServiceStats::p50_us`]).
    pub fn p99_us(&self) -> u64 {
        self.latency.quantile_us(0.99)
    }

    fn to_json(&self, window: usize, cache: CacheCounters) -> Json {
        Json::object()
            .set("uptime_us", self.started.elapsed().as_micros() as u64)
            .set("served", self.served)
            .set("ok", self.ok)
            .set("errors", self.errors)
            .set("window", window)
            .set("max_in_flight", self.max_in_flight)
            .set("p50_latency_us", self.p50_us())
            .set("p99_latency_us", self.p99_us())
            .set(
                "shed",
                Json::object()
                    .set("overloaded", self.shed_overloaded)
                    .set("deadline", self.shed_deadline),
            )
            .set(
                "cache",
                Json::object()
                    .set("hits", cache.hits)
                    .set("misses", cache.misses)
                    .set("evictions", cache.evictions)
                    .set("entries", cache.entries),
            )
    }
}

/// Why a serve loop returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownCause {
    /// The input reached end-of-file (including mid-stream).
    Eof,
    /// A `{"op":"shutdown"}` request was acknowledged.
    Requested,
    /// The external shutdown flag (SIGTERM in the CLI) was raised.
    Signal,
}

/// Final accounting of one serve loop.
#[derive(Clone, Debug)]
pub struct ServiceSummary {
    /// Counter snapshot at exit.
    pub stats: ServiceStats,
    /// Compile-cache counters at exit. In TCP mode the cache is shared
    /// across connections, so these are *cache-lifetime* totals, not
    /// per-connection ones.
    pub cache: CacheCounters,
    /// What ended the loop.
    pub cause: ShutdownCause,
}

/// Memo of parsed request payloads: QASM-text digest → the original
/// text, the parsed circuit (shared with the memo, cloned only on a
/// compile miss), and its salted cache key. Purely an accelerator over
/// the compile cache — parsing is deterministic, so equal request text
/// always yields the equal circuit the memo returns; a hit **verifies
/// the text byte-for-byte**, so an engineered digest collision (FNV is
/// not collision-resistant) degrades to a memo miss instead of serving
/// another payload's circuit. Cleared wholesale when either bound
/// (entries, retained bytes) trips: it rebuilds itself from traffic,
/// so a crude bound beats LRU bookkeeping here.
#[derive(Default)]
struct ParseMemo {
    map: HashMap<Digest, MemoHit>,
    /// Approximate retained bytes (texts + gate lists).
    bytes: usize,
}

#[derive(Clone)]
struct MemoHit {
    text: Arc<str>,
    circuit: Arc<Circuit>,
    key: Digest,
}

impl ParseMemo {
    fn text_key(qasm_text: &str) -> Digest {
        let mut h = Hasher::new();
        h.write_str(qasm_text);
        h.digest()
    }

    fn get(&self, key: Digest, qasm_text: &str) -> Option<MemoHit> {
        let hit = self.map.get(&key)?;
        (*hit.text == *qasm_text).then(|| hit.clone())
    }

    fn insert(&mut self, key: Digest, hit: MemoHit) {
        if self.map.len() >= PARSE_MEMO_CAPACITY || self.bytes >= PARSE_MEMO_MAX_BYTES {
            self.map.clear();
            self.bytes = 0;
        }
        self.bytes += hit.text.len() + hit.circuit.len() * std::mem::size_of::<Gate>();
        self.map.insert(key, hit);
    }
}

/// One run request, from parse until its last response line.
struct RunItem {
    id: Json,
    /// The engine it compiles under: the session's, or one built from
    /// its override fields. Its config fingerprint keys the cache probe.
    engine: Arc<Engine>,
    payload: Payload,
    emit_program: bool,
    enqueued: Instant,
    /// When the request stops being worth compiling (`deadline_ms`
    /// or the service default). Checked at enqueue and at dequeue.
    deadline: Option<Instant>,
    /// The admission slot this request occupies, released when the item
    /// drops (its last response line written, or the request shed at
    /// dequeue). `None` when the service runs without admission control.
    permit: Option<AdmissionPermit>,
}

impl RunItem {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// What a run request compiles.
enum Payload {
    /// A parsed circuit: cached and windowed. The [`Arc`] is shared with
    /// the parse memo and never cloned. `digest` is its salted
    /// compile-cache key (the circuit half of its full key — see
    /// [`CompileCache::circuit_key`]).
    Parsed {
        circuit: Arc<Circuit>,
        digest: Digest,
    },
    /// A QASM text pulled statement-by-statement through the
    /// bounded-memory pipeline in compile windows of `window` input gates
    /// (`"stream": true`), never parsed into a [`Circuit`].
    Stream { qasm: Box<str>, window: usize },
}

/// One entry of the buffered window: either a run awaiting its compile,
/// or a response already decided at enqueue time (shed by admission or
/// by an already-expired deadline) that still must emit **at its
/// submission position** when the window flushes.
enum PendingItem {
    Run(RunItem),
    Resolved { enqueued: Instant, response: Json },
}

/// What one input line asks for.
enum Request {
    /// Compile a circuit, parsed or streamed, under its engine.
    Run(Box<RunItem>),
    /// Rebind the loop's default session (`{"op":"configure"}`);
    /// `rebind` is `None` when the message named no override field (an
    /// acknowledged no-op).
    Configure {
        id: Json,
        rebind: Option<Box<(EngineBuilder, Engine)>>,
    },
    Stats,
    Shutdown,
    /// The line could not become a request: answer `invalid_request`.
    /// `enqueued` is when the line arrived, so its latency counts from
    /// receipt to the written error.
    Bad {
        id: Json,
        error: String,
        enqueued: Instant,
    },
}

/// Wire error kinds (see the module docs for the taxonomy).
const KIND_INVALID_REQUEST: &str = "invalid_request";
const KIND_COMPILE: &str = "compile";
const KIND_OVERLOADED: &str = "overloaded";
const KIND_DEADLINE: &str = "deadline_exceeded";
const KIND_INTERNAL: &str = "internal";
const KIND_NON_CLIFFORD: &str = "non_clifford";
const KIND_VERIFY_FAILED: &str = "verify_failed";

/// A persistent compile/estimation service around one [`Engine`]
/// session.
///
/// Construct with [`Service::new`] from the same [`EngineBuilder`] you
/// would hand to [`EngineBuilder::build`]; the builder is kept as the
/// prototype for per-request override engines, so overrides inherit the
/// session's models and only replace what the request names.
pub struct Service {
    engine: Arc<Engine>,
    proto: EngineBuilder,
    window: usize,
    stats: ServiceStats,
    /// The compile cache shared by the session engine, every override
    /// engine, and (through the builder) every other service built from
    /// the same prototype.
    cache: Arc<CompileCache>,
    /// Per-loop memo of parsed QASM payloads (see [`ParseMemo`]).
    parse_memo: ParseMemo,
    /// Shared admission budget; `None` admits everything (the default,
    /// matching the pre-admission protocol exactly).
    admission: Option<Arc<AdmissionControl>>,
    /// Deadline applied to run requests that name no `deadline_ms`.
    default_deadline: Option<Duration>,
}

impl Service {
    /// Builds the session engine and wraps it in a service.
    ///
    /// The service always runs cached: when the builder carries no
    /// [`CompileCache`] a private default-capacity one is attached, so
    /// repeated circuits skip compilation out of the box. Hand the
    /// builder a shared cache (via
    /// [`EngineBuilder::compile_cache`]) to pool hits across services —
    /// the CLI's TCP listener does this across connections.
    ///
    /// # Errors
    ///
    /// Any [`EngineBuilder::build`] error: no backend, invalid router
    /// configuration for the device.
    pub fn new(mut builder: EngineBuilder) -> Result<Service, TiltError> {
        if builder.cache.is_none() {
            builder = builder.compile_cache(Arc::new(CompileCache::default()));
        }
        let engine = Arc::new(builder.clone().build()?);
        let cache = Arc::clone(
            engine
                .compile_cache()
                .expect("service engines always carry a cache"),
        );
        Ok(Service {
            engine,
            proto: builder,
            window: DEFAULT_WINDOW,
            stats: ServiceStats::new(),
            cache,
            parse_memo: ParseMemo::default(),
            admission: None,
            default_deadline: None,
        })
    }

    /// Shares an [`AdmissionControl`] with this loop: run requests past
    /// the in-flight budget are shed with kind `overloaded` instead of
    /// queuing. The CLI hands every connection the same instance so the
    /// budget is global, not per-socket.
    pub fn with_admission(mut self, admission: Arc<AdmissionControl>) -> Service {
        self.admission = Some(admission);
        self
    }

    /// Applies `deadline` to every run request that names no
    /// `deadline_ms` of its own (`None` restores "no default").
    pub fn with_default_deadline(mut self, deadline: Option<Duration>) -> Service {
        self.default_deadline = deadline;
        self
    }

    /// Caps the in-flight request window (`0` restores the default of
    /// 8).
    pub fn with_window(mut self, window: usize) -> Service {
        self.window = if window > 0 { window } else { DEFAULT_WINDOW };
        self
    }

    /// Runs the JSON-lines loop until EOF, a shutdown request, or the
    /// `shutdown` flag (checked between lines).
    ///
    /// Batching follows the **flush-before-blocking** rule: lines that
    /// are already buffered batch together up to the window, but the
    /// window is drained before the loop ever blocks waiting for more
    /// input — an interactive client sending one request and waiting for
    /// its response is never left hanging.
    ///
    /// # Errors
    ///
    /// Only I/O errors on `input`/`output` end the loop abnormally;
    /// every protocol-level failure becomes an error *response*.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        mut input: R,
        mut output: W,
        shutdown: Option<&AtomicBool>,
    ) -> io::Result<ServiceSummary> {
        let mut pending: Vec<PendingItem> = Vec::new();
        let mut cause = ShutdownCause::Eof;
        // Bytes read but not yet consumed as complete lines; `scanned`
        // marks how far the newline search has looked, so a torn line
        // at a chunk boundary is not rescanned per chunk. A line that
        // outgrows [`MAX_LINE_BYTES`] is answered with an error and its
        // remaining bytes are discarded up to the next newline
        // (`discarding`) — the accumulator itself stays bounded.
        let mut acc: Vec<u8> = Vec::new();
        let mut scanned = 0usize;
        let mut discarding = false;
        'serve: loop {
            if shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
                cause = ShutdownCause::Signal;
                break;
            }
            // Process every complete line currently buffered.
            while let Some(nl) = acc[scanned..].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = acc.drain(..scanned + nl + 1).collect();
                scanned = 0;
                let line = String::from_utf8_lossy(&line);
                if self.handle_line(line.trim(), &mut pending, &mut output)? {
                    cause = ShutdownCause::Requested;
                    break 'serve;
                }
                if shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
                    cause = ShutdownCause::Signal;
                    break 'serve;
                }
            }
            scanned = acc.len();
            if !discarding && acc.len() > MAX_LINE_BYTES {
                // One newline-free flood must not grow the accumulator
                // (and eventually the process) without bound: reject it
                // now, drop what arrived, skip the rest of the line.
                let error = format!("request line exceeds the {MAX_LINE_BYTES}-byte limit");
                let bad = Request::Bad {
                    id: Json::Null,
                    error,
                    enqueued: Instant::now(),
                };
                self.answer(bad, 0, &mut pending, &mut output)?;
                acc.clear();
                scanned = 0;
                discarding = true;
            }
            // About to block for more input: drain the window first so
            // an idle wire never holds responses hostage.
            self.flush(&mut pending, &mut output)?;
            let chunk = match input.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF. A torn final line (no trailing newline) is still
                // a request — answer it before leaving (unless it is
                // the tail of an oversized line already rejected).
                if !acc.is_empty() && !discarding {
                    let line = std::mem::take(&mut acc);
                    let line = String::from_utf8_lossy(&line);
                    if self.handle_line(line.trim(), &mut pending, &mut output)? {
                        cause = ShutdownCause::Requested;
                    }
                }
                break;
            }
            if discarding {
                // Drop flood bytes without buffering; stop at the first
                // newline so the next real line parses normally.
                let keep_from = chunk.iter().position(|&b| b == b'\n').map(|i| i + 1);
                let n = chunk.len();
                if let Some(from) = keep_from {
                    acc.extend_from_slice(&chunk[from..]);
                    discarding = false;
                }
                input.consume(n);
                continue;
            }
            let n = chunk.len();
            acc.extend_from_slice(chunk);
            input.consume(n);
        }
        // Mid-stream EOF (or signal/shutdown): drain what was buffered.
        self.flush(&mut pending, &mut output)?;
        Ok(ServiceSummary {
            stats: self.stats.clone(),
            cache: self.cache.counters(),
            cause,
        })
    }

    /// Handles one input line; `Ok(true)` means an acknowledged
    /// shutdown request.
    fn handle_line<W: Write>(
        &mut self,
        line: &str,
        pending: &mut Vec<PendingItem>,
        output: &mut W,
    ) -> io::Result<bool> {
        if line.is_empty() {
            return Ok(false);
        }
        let request = self.parse_request(line);
        self.answer(request, line.len(), pending, output)
    }

    /// Answers one request of `bytes` wire bytes; `Ok(true)` means an
    /// acknowledged shutdown request.
    fn answer<W: Write>(
        &mut self,
        request: Request,
        bytes: usize,
        pending: &mut Vec<PendingItem>,
        output: &mut W,
    ) -> io::Result<bool> {
        let mut bad_since = None;
        let (resp, shutdown) = match request {
            Request::Run(item) => {
                self.run(*item, bytes, pending, output)?;
                return Ok(false);
            }
            // A configure takes effect for later lines only: buffered
            // runs keep the engine they were parsed under.
            Request::Configure { id, rebind } => {
                if let Some(rebind) = rebind {
                    let (proto, engine) = *rebind;
                    self.proto = proto;
                    self.engine = Arc::new(engine);
                }
                let ack = Json::object()
                    .set("id", id)
                    .set("ok", true)
                    .set("configured", true)
                    .set("backend", self.engine.backend().kind().to_string());
                (Some(ack), false)
            }
            // Rendered below, once the counters include the window.
            Request::Stats => (None, false),
            Request::Shutdown => {
                let ack = Json::object().set("ok", true).set("shutdown", true);
                (Some(ack), true)
            }
            Request::Bad {
                id,
                error,
                enqueued,
            } => {
                bad_since = Some(enqueued);
                (Some(error_json(&id, KIND_INVALID_REQUEST, &error)), false)
            }
        };
        // Control and error lines answer after everything buffered
        // before them.
        self.flush(pending, output)?;
        let resp = resp.unwrap_or_else(|| {
            let stats = self.stats.to_json(self.window, self.cache.counters());
            Json::object().set("ok", true).set("stats", stats)
        });
        writeln!(output, "{}", resp.render())?;
        if let Some(enqueued) = bad_since {
            self.stats
                .record(enqueued.elapsed().as_micros() as u64, false);
        }
        output.flush()?;
        Ok(shutdown)
    }

    /// The one run lane: shed an expired request, answer a cache hit,
    /// take an admission permit, then join the window or run the stream.
    fn run<W: Write>(
        &mut self,
        mut item: RunItem,
        bytes: usize,
        pending: &mut Vec<PendingItem>,
        output: &mut W,
    ) -> io::Result<()> {
        // An already-dead request is shed before anything else — not
        // even a cache hit resurrects it; the contract is "expired ⇒
        // `deadline_exceeded`", unconditionally.
        if item.expired(Instant::now()) {
            self.stats.shed_deadline += 1;
            pending.push(PendingItem::Resolved {
                enqueued: item.enqueued,
                response: deadline_json(&item.id),
            });
            return self.after_enqueue(pending, output);
        }
        // Cache probe under the item's own config fingerprint: a
        // previously seen (circuit, config) pair answers immediately —
        // after a flush, so submission order survives. On an all-hits
        // stream the window stays empty and this is the whole hot path.
        // Hits bypass admission: they hold no compile slot.
        if let Some(resp) = cached_wire_response(&self.cache, &item) {
            self.flush(pending, output)?;
            self.stats
                .record(item.enqueued.elapsed().as_micros() as u64, true);
            writeln!(output, "{}", resp.render())?;
            return output.flush();
        }
        // A stream writes its increments as it compiles, so it drains
        // the window before taking its own permit.
        if matches!(item.payload, Payload::Stream { .. }) {
            self.flush(pending, output)?;
        }
        let Ok(permit) = self.admit(bytes, &item.id, item.enqueued, pending) else {
            return self.after_enqueue(pending, output);
        };
        item.permit = permit;
        if let Payload::Stream { qasm, window } = &item.payload {
            self.run_stream(&item, qasm, *window, output)?;
            return output.flush();
        }
        pending.push(PendingItem::Run(item));
        self.after_enqueue(pending, output)
    }

    /// Admission: a compile must fit the shared in-flight budget or be
    /// shed *now* — queuing it anyway is how a flood turns into
    /// unbounded latency for everyone. The permit (`None` without
    /// admission control) is held until the request's last response
    /// line; a shed request's `overloaded` response waits in `pending`.
    fn admit(
        &mut self,
        bytes: usize,
        id: &Json,
        enqueued: Instant,
        pending: &mut Vec<PendingItem>,
    ) -> Result<Option<AdmissionPermit>, ()> {
        let Some(admission) = &self.admission else {
            return Ok(None);
        };
        admission
            .try_admit(bytes)
            .map(Some)
            .map_err(|retry_after_ms| {
                self.stats.shed_overloaded += 1;
                let response = overloaded_json(id, retry_after_ms);
                pending.push(PendingItem::Resolved { enqueued, response });
            })
    }

    /// Post-enqueue bookkeeping shared by admitted and pre-resolved
    /// entries: track the high-water mark, flush a full window.
    fn after_enqueue<W: Write>(
        &mut self,
        pending: &mut Vec<PendingItem>,
        output: &mut W,
    ) -> io::Result<()> {
        self.stats.max_in_flight = self.stats.max_in_flight.max(pending.len());
        if pending.len() >= self.window {
            self.flush(pending, output)?;
        }
        Ok(())
    }

    /// Compiles the buffered window in submission order, each run under
    /// its own engine, and writes one response line per request as it
    /// completes.
    ///
    /// A duplicate circuit later in the window finds the cache entry its
    /// first occurrence inserted, so a duplicate pair accounts as
    /// exactly one miss plus one hit.
    ///
    /// Pre-resolved entries (shed at enqueue) and runs whose deadline
    /// expired while queued emit their error responses at their
    /// submission positions — an expired run is shed **here, before
    /// compiling**. Each entry releases its admission permit once its
    /// response is on the wire.
    fn flush<W: Write>(
        &mut self,
        pending: &mut Vec<PendingItem>,
        output: &mut W,
    ) -> io::Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let now = Instant::now();
        for entry in std::mem::take(pending) {
            let (line, ok, enqueued) = match &entry {
                PendingItem::Resolved { enqueued, response } => {
                    (response.render(), false, *enqueued)
                }
                // Dequeue-time deadline check: the compile never runs.
                PendingItem::Run(item) if item.expired(now) => {
                    self.stats.shed_deadline += 1;
                    (deadline_json(&item.id).render(), false, item.enqueued)
                }
                PendingItem::Run(item) => {
                    let Payload::Parsed { circuit, .. } = &item.payload else {
                        unreachable!("streams never join the window");
                    };
                    // Panic isolation: a compile that panics costs its
                    // request, not the loop or the rest of the window.
                    let result = crate::error::isolated(|| item.engine.run(circuit));
                    let resp = run_response(&item.id, &result, item.emit_program);
                    (resp.render(), result.is_ok(), item.enqueued)
                }
            };
            self.stats.record(enqueued.elapsed().as_micros() as u64, ok);
            writeln!(output, "{line}")?;
        }
        output.flush()
    }

    /// Runs one admitted streaming request under its engine: increment
    /// lines straight to the wire, then the final report line.
    fn run_stream<W: Write>(
        &mut self,
        item: &RunItem,
        qasm: &str,
        window: usize,
        output: &mut W,
    ) -> io::Result<()> {
        let mut io_err: Option<io::Error> = None;
        let mut increment = 0usize;
        let mut sink = |shard: usize, ops: &[TiltOp]| {
            if io_err.is_some() {
                // The wire is dead; let the compile finish and surface
                // the I/O error after (a sink cannot abort the engine).
                return;
            }
            increment += 1;
            let mut line = Json::object()
                .set("id", item.id.clone())
                .set("increment", increment)
                .set("shard", shard)
                .set("ops", ops.len());
            if item.emit_program {
                line = line.set("program", OpLines(ops).to_string());
            }
            if let Err(e) = writeln!(output, "{}", line.render()) {
                io_err = Some(e);
            }
        };
        // The same isolation boundary as the window: a panicking
        // streaming compile costs its request, not the loop.
        let result = crate::error::isolated(|| {
            item.engine
                .run_streaming_qasm(qasm.as_bytes(), window, &mut sink)
        });
        if let Some(e) = io_err {
            return Err(e);
        }
        let ok = result.is_ok();
        let resp = match result {
            Ok(outcome) => stream_response(&item.id, &outcome),
            Err(e) => error_json(&item.id, error_kind(&e), &e.to_string()),
        };
        self.stats
            .record(item.enqueued.elapsed().as_micros() as u64, ok);
        writeln!(output, "{}", resp.render())
    }

    /// Turns one input line into a request, folding every failure into
    /// [`Request::Bad`].
    fn parse_request(&mut self, line: &str) -> Request {
        let enqueued = Instant::now();
        let obj = match Json::parse(line) {
            Ok(obj @ Json::Obj(_)) => obj,
            parsed => {
                let error = match parsed {
                    Err(e) => format!("malformed request: {e}"),
                    Ok(_) => "request must be a JSON object".into(),
                };
                return Request::Bad {
                    id: Json::Null,
                    error,
                    enqueued,
                };
            }
        };
        let id = obj.get("id").cloned().unwrap_or(Json::Null);
        let request = match obj.get("op").and_then(Json::as_str) {
            None | Some("run") => self
                .parse_run(&obj, id.clone(), enqueued)
                .map(|item| Request::Run(Box::new(item))),
            Some("configure") => self.override_engine(&obj, None).map(|rebind| {
                let rebind = rebind.map(Box::new);
                Request::Configure {
                    id: id.clone(),
                    rebind,
                }
            }),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown op `{other}`")),
        };
        request.unwrap_or_else(|error| Request::Bad {
            id,
            error,
            enqueued,
        })
    }

    /// Turns a run request's fields into its item: the payload gated by
    /// the service width cap, the deadline, and the engine the request
    /// compiles under.
    fn parse_run(&mut self, obj: &Json, id: Json, enqueued: Instant) -> Result<RunItem, String> {
        let qasm_text = obj
            .get("qasm")
            .and_then(Json::as_str)
            .ok_or("run request needs a string `qasm` field")?;
        let stream = match obj.get("stream") {
            None | Some(Json::Bool(false)) => false,
            Some(Json::Bool(true)) => true,
            Some(_) => return Err("`stream` must be a boolean".into()),
        };
        let (payload, deadline, engine) = if stream {
            // Streaming runs never materialize a Circuit, so every
            // override path (which sizes its machine to the parsed
            // circuit) is off the table by construction.
            if overlay::KEYS.iter().any(|k| obj.get(k).is_some()) {
                return Err("streaming requests compile through the shared session and \
                     accept no per-request overrides; send {\"op\":\"configure\"} \
                     first to rebind"
                    .into());
            }
            let window = match obj.get("stream_window") {
                None => DEFAULT_STREAM_WINDOW,
                Some(v) => match v.as_f64() {
                    Some(x) if x >= 1.0 && x.fract() == 0.0 => x as usize,
                    _ => return Err("`stream_window` must be a positive integer".into()),
                },
            };
            let deadline = self.parse_deadline(obj, enqueued)?;
            declared_width_gate(qasm_text)?;
            // The stream sizes its machine from the `qreg` header, so
            // the probe stops there; one the stream cannot start from
            // (missing or malformed) is as invalid as unparsable QASM.
            qasm::QasmStream::new(qasm_text.as_bytes())
                .require_n_qubits()
                .map_err(|e| e.to_string())?;
            let payload = Payload::Stream {
                qasm: qasm_text.into(),
                window,
            };
            (payload, deadline, Arc::clone(&self.engine))
        } else {
            // Parse memo: a repeated payload skips its QASM parse
            // (parsing is deterministic, and the hit verified the text
            // matches) and reuses the memoized cache key.
            let text_key = ParseMemo::text_key(qasm_text);
            let (circuit, digest) = match self.parse_memo.get(text_key, qasm_text) {
                Some(hit) => (hit.circuit, hit.key),
                None => {
                    declared_width_gate(qasm_text)?;
                    let circuit = qasm::parse_qasm(qasm_text).map_err(|e| e.to_string())?;
                    let key = self.cache.circuit_key(&circuit);
                    let circuit = Arc::new(circuit);
                    self.parse_memo.insert(
                        text_key,
                        MemoHit {
                            text: Arc::from(qasm_text),
                            circuit: Arc::clone(&circuit),
                            key,
                        },
                    );
                    (circuit, key)
                }
            };
            let deadline = self.parse_deadline(obj, enqueued)?;
            let engine = match self.override_engine(obj, Some(circuit.as_ref()))? {
                None => Arc::clone(&self.engine),
                Some((_, engine)) => Arc::new(engine),
            };
            let payload = Payload::Parsed { circuit, digest };
            (payload, deadline, engine)
        };
        Ok(RunItem {
            id,
            engine,
            payload,
            emit_program: matches!(obj.get("emit_program"), Some(Json::Bool(true))),
            enqueued,
            deadline,
            permit: None,
        })
    }

    /// Resolves a request's `deadline_ms` field, falling back to the
    /// service default when the request names none.
    fn parse_deadline(&self, obj: &Json, enqueued: Instant) -> Result<Option<Instant>, String> {
        match obj.get("deadline_ms") {
            None => Ok(self.default_deadline.and_then(|d| enqueued.checked_add(d))),
            Some(v) => match v.as_f64() {
                Some(ms) if ms.is_finite() && ms >= 0.0 => {
                    // A deadline past the representable future is no
                    // deadline at all — saturate instead of panicking.
                    let us = (ms * 1000.0).min(u64::MAX as f64) as u64;
                    Ok(enqueued.checked_add(Duration::from_micros(us)))
                }
                _ => Err("`deadline_ms` must be a non-negative number".into()),
            },
        }
    }

    /// Builds the engine (and its prototype) a request's override
    /// fields, or a `configure` message's, describe; `Ok(None)` when no
    /// override field is present. `circuit` sizes machine defaults for
    /// run requests; a `configure` message (no circuit) sizes them to
    /// the current session instead.
    fn override_engine(
        &self,
        obj: &Json,
        circuit: Option<&Circuit>,
    ) -> Result<Option<(EngineBuilder, Engine)>, String> {
        if !overlay::KEYS.iter().any(|k| obj.get(k).is_some()) {
            return Ok(None);
        }
        // A partial `noise` object overlays the session's model.
        let mut o = Overrides {
            noise: Some(self.proto.noise),
            ..Overrides::default()
        };
        for key in overlay::KEYS {
            if let Some(value) = obj.get(key) {
                o.set(key, Value::Wire(value))?;
            }
        }
        // Machine dimensions respect the service cap — unbounded values
        // would turn one request into a process-wide allocation abort.
        for (key, dim) in [
            ("ions", o.ions),
            ("head", o.head),
            ("ions_per_trap", o.ions_per_trap),
            ("elu_ions", o.elu_ions),
        ] {
            if let Some(x) = dim.filter(|&x| x > MAX_REQUEST_IONS) {
                return Err(format!(
                    "`{key}` of {x} exceeds the service cap of {MAX_REQUEST_IONS}"
                ));
            }
        }
        // A run request sizes its machine to its circuit, a `configure`
        // message (no circuit) to the session's capacity.
        let width = circuit.map(Circuit::n_qubits).unwrap_or_else(|| {
            match self.engine.backend() {
                Backend::Tilt(spec) => spec.n_ions(),
                Backend::Qccd(spec) => spec.usable_slots(),
                // ELU arrays size per circuit; fall back to the serve
                // default tape width.
                Backend::Scaled(_) => 64,
            }
        });
        let builder = self.proto.clone().overlay(&o, width)?;
        let engine = builder.clone().build().map_err(|e| e.to_string())?;
        Ok(Some((builder, engine)))
    }
}

/// Width gate on the register `qasm_text` declares, *before* the parser
/// or any backend sizes itself to it: a whole-register `measure`
/// expands to one gate per qubit, and the scaled partitioner and the
/// QCCD trap array allocate proportionally to the width, so a
/// `qreg q[10^12]` request — parsed or streamed, whatever its statement
/// order — must die here as a structured error, not as an allocation
/// abort.
fn declared_width_gate(qasm_text: &str) -> Result<(), String> {
    match qasm::declared_qubits(qasm_text).map_err(|e| e.to_string())? {
        Some(n_qubits) if n_qubits > MAX_REQUEST_IONS => Err(format!(
            "circuit register of {n_qubits} qubits exceeds the service cap of {MAX_REQUEST_IONS}"
        )),
        _ => Ok(()),
    }
}

/// The response for `item` if its `(circuit, config)` key is resident
/// in the cache, rendered through the same [`WireReport`] path as a
/// fresh compile, so hit and miss responses are byte-identical. Streams
/// never hit: a cache entry holds no increment lines to replay.
fn cached_wire_response(cache: &CompileCache, item: &RunItem) -> Option<Json> {
    let Payload::Parsed { digest, .. } = &item.payload else {
        return None;
    };
    let key = CacheKey {
        circuit: *digest,
        config: item.engine.config_fingerprint(),
    };
    let entry = cache.get_wire(key)?;
    // Clone the wire view only when the response must carry program
    // text the entry holds lazily — the common no-program hit renders
    // straight from the shared entry.
    if item.emit_program && entry.wire.program_text.is_none() {
        let mut wire = entry.wire.clone();
        wire.program_text = entry.program_text();
        Some(wire.response(&item.id, true))
    } else {
        Some(entry.wire.response(&item.id, item.emit_program))
    }
}

/// Renders one run result as its response line — through the same
/// [`WireReport`] projection the cache serves hits from, so fresh and
/// cached responses are byte-identical by construction.
fn run_response(id: &Json, result: &Result<RunReport, TiltError>, emit_program: bool) -> Json {
    match result {
        Err(e) => error_json(id, error_kind(e), &e.to_string()),
        Ok(report) => {
            let mut wire = WireReport::of(report);
            if emit_program {
                wire.program_text = report.tilt_program().map(std::string::ToString::to_string);
            }
            wire.response(id, emit_program)
        }
    }
}

/// The wire `kind` of a failed run, streamed or not.
fn error_kind(e: &TiltError) -> &'static str {
    match e {
        // Mid-stream QASM/reader failures are request defects, like a
        // monolithic parse error.
        TiltError::Stream { .. } => KIND_INVALID_REQUEST,
        TiltError::Internal { .. } => KIND_INTERNAL,
        TiltError::NonClifford { .. } => KIND_NON_CLIFFORD,
        TiltError::Verify { .. } => KIND_VERIFY_FAILED,
        _ => KIND_COMPILE,
    }
}

/// The final response line of a streaming run: the monolithic wire
/// fields (bit-identical numbers — the streaming pipeline is
/// decision-identical) between the streaming markers.
fn stream_response(id: &Json, outcome: &StreamOutcome) -> Json {
    let head = Json::object()
        .set("id", id.clone())
        .set("ok", true)
        .set("streamed", true);
    WireReport::of_stream(outcome)
        .fields(head)
        .set("increments", outcome.increments)
        .set("input_gates", outcome.input_gate_count)
}

/// The structured error object every failure line carries:
/// `{"id":...,"ok":false,"error":{"kind":...,"message":...}}`.
fn error_json(id: &Json, kind: &str, message: &str) -> Json {
    Json::object().set("id", id.clone()).set("ok", false).set(
        "error",
        Json::object().set("kind", kind).set("message", message),
    )
}

/// The load-shed response: `overloaded` plus the backoff hint clients
/// should sleep (with jitter) before retrying.
fn overloaded_json(id: &Json, retry_after_ms: u64) -> Json {
    Json::object().set("id", id.clone()).set("ok", false).set(
        "error",
        Json::object()
            .set("kind", KIND_OVERLOADED)
            .set("message", "shed by admission control; back off and retry")
            .set("retry_after_ms", retry_after_ms),
    )
}

/// The deadline-shed response: the request expired before compiling.
fn deadline_json(id: &Json) -> Json {
    error_json(id, KIND_DEADLINE, "deadline expired before compilation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use tilt_compiler::route::{LinqConfig, StochasticConfig};
    use tilt_compiler::{DeviceSpec, RouterKind, SchedulerKind};
    use tilt_qccd::QccdSpec;
    use tilt_scale::ScaleSpec;

    fn tilt_service(ions: usize, head: usize) -> Service {
        Service::new(Engine::builder().backend(Backend::Tilt(DeviceSpec::new(ions, head).unwrap())))
            .unwrap()
    }

    fn drive(service: &mut Service, input: &str) -> (Vec<Json>, ServiceSummary) {
        let mut out = Vec::new();
        let summary = service
            .serve(Cursor::new(input.to_string()), &mut out, None)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines = text
            .lines()
            .map(|l| Json::parse(l).expect("every response line is valid JSON"))
            .collect();
        (lines, summary)
    }

    fn ok(resp: &Json) -> bool {
        resp.get("ok") == Some(&Json::Bool(true))
    }

    fn err_kind(resp: &Json) -> &str {
        resp.get("error")
            .expect("error responses carry an error object")
            .get("kind")
            .expect("error objects carry a kind")
            .as_str()
            .unwrap()
    }

    fn err_msg(resp: &Json) -> &str {
        resp.get("error")
            .expect("error responses carry an error object")
            .get("message")
            .expect("error objects carry a message")
            .as_str()
            .unwrap()
    }

    #[test]
    fn run_request_round_trips() {
        let mut s = tilt_service(8, 4);
        let (resps, summary) = drive(
            &mut s,
            "{\"id\":7,\"qasm\":\"qreg q[8];\\nh q[0];\\ncx q[0], q[7];\\n\"}\n",
        );
        assert_eq!(resps.len(), 1);
        assert!(ok(&resps[0]), "{:?}", resps[0]);
        assert_eq!(resps[0].get("id").unwrap().as_f64(), Some(7.0));
        assert_eq!(resps[0].get("backend").unwrap().as_str(), Some("tilt"));
        assert!(resps[0].get("ln_success").unwrap().as_f64().unwrap() < 0.0);
        assert_eq!(summary.cause, ShutdownCause::Eof);
        assert_eq!(summary.stats.served, 1);
        assert_eq!(summary.stats.ok, 1);
    }

    #[test]
    fn malformed_json_yields_error_response_and_loop_survives() {
        let mut s = tilt_service(8, 4);
        let input = "this is not json\n{\"id\":2,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n";
        let (resps, summary) = drive(&mut s, input);
        assert_eq!(resps.len(), 2);
        assert!(!ok(&resps[0]));
        assert_eq!(err_kind(&resps[0]), "invalid_request");
        assert!(err_msg(&resps[0]).contains("malformed request"));
        assert!(ok(&resps[1]), "the loop must survive a bad line");
        assert_eq!(summary.stats.errors, 1);
    }

    #[test]
    fn qasm_parse_failure_is_isolated() {
        let mut s = tilt_service(8, 4);
        let (resps, _) = drive(
            &mut s,
            "{\"id\":1,\"qasm\":\"qreg q[2];\\nwat q[0];\\n\"}\n{\"id\":2,\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\"}\n",
        );
        assert!(!ok(&resps[0]));
        assert_eq!(err_kind(&resps[0]), "invalid_request");
        assert!(err_msg(&resps[0]).contains("wat"));
        assert!(ok(&resps[1]));
    }

    #[test]
    fn too_wide_circuit_is_isolated() {
        let mut s = tilt_service(8, 4);
        let (resps, _) = drive(
            &mut s,
            "{\"id\":1,\"qasm\":\"qreg q[40];\\ncx q[0], q[39];\\n\"}\n{\"id\":2,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n",
        );
        assert!(!ok(&resps[0]));
        assert_eq!(err_kind(&resps[0]), "compile");
        assert!(err_msg(&resps[0]).contains("needs 40 qubits"));
        assert!(ok(&resps[1]));
    }

    #[test]
    fn unknown_backend_name_is_rejected_per_request() {
        let mut s = tilt_service(8, 4);
        let (resps, _) = drive(
            &mut s,
            "{\"id\":1,\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\",\"backend\":\"qpu9000\"}\n",
        );
        assert!(!ok(&resps[0]));
        assert_eq!(err_kind(&resps[0]), "invalid_request");
        assert!(err_msg(&resps[0]).contains("unknown backend `qpu9000`"));
    }

    #[test]
    fn method_override_simulates_and_reports_the_simulator() {
        let mut s = tilt_service(8, 4);
        let (resps, _) = drive(
            &mut s,
            "{\"id\":1,\"qasm\":\"qreg q[2];\\nh q[0];\\ncx q[0], q[1];\\nmeasure q[0];\\nmeasure q[1];\\n\",\"method\":\"auto\"}\n",
        );
        assert!(ok(&resps[0]), "{:?}", resps[0]);
        let sim = resps[0].get("sim").expect("method override attaches sim");
        assert_eq!(sim.get("simulator").unwrap().as_str(), Some("stabilizer"));
        assert_eq!(sim.get("measurements").unwrap().as_f64(), Some(2.0));
        let bits = sim.get("bitstring").unwrap().as_str().unwrap();
        assert!(bits == "00" || bits == "11", "Bell bits correlate: {bits}");
    }

    #[test]
    fn non_clifford_under_stabilizer_method_is_a_clean_wire_error() {
        let mut s = tilt_service(8, 4);
        let input = "{\"id\":1,\"qasm\":\"qreg q[2];\\nh q[0];\\nt q[1];\\n\",\"method\":\"stabilizer\"}\n{\"id\":2,\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\"}\n";
        let (resps, summary) = drive(&mut s, input);
        assert!(!ok(&resps[0]));
        assert_eq!(err_kind(&resps[0]), "non_clifford");
        assert!(err_msg(&resps[0]).contains("index 1"), "{:?}", resps[0]);
        assert!(ok(&resps[1]), "the loop survives a non-Clifford request");
        assert_eq!(summary.stats.errors, 1);
    }

    #[test]
    fn unknown_method_is_rejected_per_request() {
        let mut s = tilt_service(8, 4);
        let (resps, _) = drive(
            &mut s,
            "{\"id\":1,\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\",\"method\":\"magic\"}\n",
        );
        assert!(!ok(&resps[0]));
        assert_eq!(err_kind(&resps[0]), "invalid_request");
        assert!(err_msg(&resps[0]).contains("unknown method `magic`"));
    }

    #[test]
    fn verify_override_accepts_levels_and_rejects_unknowns() {
        let mut s = tilt_service(8, 4);
        let input = "{\"id\":1,\"qasm\":\"qreg q[8];\\nh q[0];\\ncx q[0], q[7];\\n\",\"verify\":\"strict\"}\n{\"id\":2,\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\",\"verify\":\"pedantic\"}\n";
        let (resps, _) = drive(&mut s, input);
        assert!(ok(&resps[0]), "clean compile passes strict: {:?}", resps[0]);
        assert!(!ok(&resps[1]));
        assert_eq!(err_kind(&resps[1]), "invalid_request");
        assert!(err_msg(&resps[1]).contains("unknown verify level `pedantic`"));
    }

    #[test]
    fn verify_failure_maps_to_its_wire_kind() {
        // The engine only produces `TiltError::Verify` for corrupted
        // artifacts, which a live compile never yields — pin the
        // response mapping directly.
        let resp = run_response(
            &Json::from(9.0),
            &Err(TiltError::Verify {
                count: 3,
                first: "error[tilt/head-span] op 0: example".into(),
            }),
            false,
        );
        assert!(!ok(&resp));
        assert_eq!(err_kind(&resp), "verify_failed");
        assert!(err_msg(&resp).contains("3 diagnostic(s)"));
    }

    #[test]
    fn error_lines_record_their_real_latency() {
        // Three lines whose QASM parses thousands of gates before an
        // unknown one, and one small valid run: errors are the majority,
        // so the median is an error line's receipt-to-response time.
        let bad_qasm = format!("qreg q[8];\\n{}bogus q[0];\\n", "h q[0];\\n".repeat(5000));
        let mut input = String::new();
        for id in 1..=3 {
            input += &format!("{{\"id\":{id},\"qasm\":\"{bad_qasm}\"}}\n");
        }
        input += "{\"id\":4,\"qasm\":\"qreg q[8];\\nh q[0];\\ncx q[0], q[7];\\n\"}\n";
        let mut s = tilt_service(8, 4);
        let (resps, summary) = drive(&mut s, &input);
        assert_eq!(resps.len(), 4);
        assert!(resps[..3].iter().all(|r| err_kind(r) == "invalid_request"));
        assert!(ok(&resps[3]));
        assert_eq!((summary.stats.errors, summary.stats.ok), (3, 1));
        assert!(summary.stats.p50_us() >= 1, "error lines timed at 0 µs");
    }

    #[test]
    fn stats_and_shutdown_round_trip() {
        let mut s = tilt_service(8, 4);
        let input = "{\"id\":1,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n{\"id\":99,\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\"}\n";
        let (resps, summary) = drive(&mut s, input);
        // Run, stats, shutdown ack — the post-shutdown line is unread.
        assert_eq!(resps.len(), 3);
        assert!(ok(&resps[0]));
        let stats = resps[1].get("stats").unwrap();
        assert_eq!(stats.get("served").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("ok").unwrap().as_f64(), Some(1.0));
        assert!(stats.get("p50_latency_us").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(resps[2].get("shutdown"), Some(&Json::Bool(true)));
        assert_eq!(summary.cause, ShutdownCause::Requested);
    }

    #[test]
    fn backend_override_reaches_qccd_and_scaled() {
        let mut s = tilt_service(16, 4);
        let qasm = "qreg q[16];\\nh q[0];\\ncx q[0], q[15];\\n";
        let input = format!(
            "{{\"id\":1,\"qasm\":\"{qasm}\",\"backend\":\"qccd\",\"ions_per_trap\":5}}\n{{\"id\":2,\"qasm\":\"{qasm}\",\"backend\":\"scaled\",\"elu_ions\":10,\"head\":4}}\n"
        );
        let (resps, _) = drive(&mut s, &input);
        assert!(ok(&resps[0]), "{:?}", resps[0]);
        assert_eq!(resps[0].get("backend").unwrap().as_str(), Some("qccd"));
        assert!(ok(&resps[1]), "{:?}", resps[1]);
        assert_eq!(resps[1].get("backend").unwrap().as_str(), Some("scaled"));
        assert!(resps[1].get("epr_pairs").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn out_of_range_noise_is_an_invalid_request_and_never_cached() {
        // Eq. 4 outside its domain used to answer "ok" with a success of
        // 127.6, or with null numbers, and cache the result.
        let mut s = tilt_service(4, 2);
        let qasm = "qreg q[4];\\nh q[0];\\ncx q[0], q[3];\\n";
        let input: String = [
            r#""epsilon":-1"#,
            r#""single_qubit_error":2"#,
            r#""measurement_error":-0.5"#,
            r#""n_ref":0"#,
            r#""gamma_per_us":1e999"#,
        ]
        .iter()
        .enumerate()
        .map(|(i, field)| format!("{{\"id\":{i},\"noise\":{{{field}}},\"qasm\":\"{qasm}\"}}\n"))
        .collect();
        let (resps, summary) = drive(&mut s, &input);
        assert_eq!(resps.len(), 5);
        for (resp, field) in resps.iter().zip([
            "epsilon",
            "single_qubit_error",
            "measurement_error",
            "n_ref",
            "gamma_per_us",
        ]) {
            assert_eq!(err_kind(resp), "invalid_request", "{resp:?}");
            assert!(
                err_msg(resp).contains(&format!("noise field `{field}`")),
                "{resp:?}"
            );
        }
        assert_eq!(summary.cache.entries, 0);
        // In range, the same request compiles.
        let line = format!(
            "{{\"noise\":{{\"epsilon\":0.001,\"single_qubit_error\":1}},\"qasm\":\"{qasm}\"}}\n"
        );
        let (resps, _) = drive(&mut s, &line);
        assert!(ok(&resps[0]), "{:?}", resps[0]);
    }

    #[test]
    fn absurd_dimension_requests_are_rejected_not_fatal() {
        // An uncapped `ions` override used to abort the process on
        // allocation failure — one request must never kill the loop.
        let mut s = tilt_service(8, 4);
        let input = concat!(
            "{\"id\":1,\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\",\"ions\":200000000000}\n",
            "{\"id\":2,\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\",\"elu_ions\":99999999,\"backend\":\"scaled\"}\n",
            "{\"id\":3,\"qasm\":\"qreg q[1000000000];\\n\",\"backend\":\"scaled\",\"elu_ions\":10}\n",
            "{\"id\":4,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n",
        );
        let (resps, summary) = drive(&mut s, input);
        assert_eq!(resps.len(), 4);
        for resp in &resps[..3] {
            assert!(!ok(resp), "{resp:?}");
            assert!(
                err_msg(resp).contains("exceeds the service cap"),
                "{resp:?}"
            );
        }
        assert!(ok(&resps[3]), "the loop survives: {:?}", resps[3]);
        assert_eq!(summary.stats.errors, 3);
    }

    #[test]
    fn absurd_registers_are_gated_before_measure_expands() {
        // `measure q -> c` expands to one gate per declared qubit, so
        // the width gate must see the `qreg` before the parser runs,
        // whether a gate precedes the declaration or not, and on the
        // stream lane too.
        let mut s = tilt_service(8, 4);
        let input = concat!(
            "{\"id\":1,\"qasm\":\"qreg q[1000000000000000000];\\nmeasure q -> c;\\n\"}\n",
            "{\"id\":2,\"qasm\":\"h q[0];\\nqreg q[1000000000000000000];\\nmeasure q -> c;\\n\"}\n",
            "{\"id\":3,\"stream\":true,\"qasm\":\"qreg q[1000000000000000000]; measure q -> c;\\n\"}\n",
            "{\"id\":4,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n",
        );
        let (resps, summary) = drive(&mut s, input);
        assert_eq!(resps.len(), 4);
        for resp in &resps[..3] {
            assert_eq!(err_kind(resp), "invalid_request", "{resp:?}");
            assert!(err_msg(resp).contains("service cap"), "{resp:?}");
        }
        assert!(ok(&resps[3]), "the loop survives: {:?}", resps[3]);
        assert_eq!(summary.stats.errors, 3);
    }

    #[test]
    fn overrides_inherit_the_session_machine_per_backend() {
        // A noise-only override on a scaled session must keep the
        // session's ELU template (and its policies), not fall back to
        // the global defaults.
        let spec = ScaleSpec::new(10, 4).unwrap();
        let mut s = Service::new(Engine::builder().backend(Backend::Scaled(spec))).unwrap();
        let qasm = "qreg q[16];\\ncx q[7], q[8];\\ncx q[0], q[1];\\n";
        let input = format!(
            "{{\"id\":1,\"qasm\":\"{qasm}\"}}\n{{\"id\":2,\"qasm\":\"{qasm}\",\"noise\":{{\"epsilon\":0.0012}}}}\n"
        );
        let (resps, _) = drive(&mut s, &input);
        assert!(ok(&resps[0]) && ok(&resps[1]), "{resps:?}");
        // Same machine ⇒ same compiled shape (EPR pairs, swaps, moves);
        // only the noise-driven success differs.
        for key in ["epr_pairs", "swaps", "moves", "native_gates"] {
            assert_eq!(
                resps[0].get(key).unwrap().as_f64(),
                resps[1].get(key).unwrap().as_f64(),
                "{key} must come from the session's ELU template"
            );
        }
        assert!(
            resps[1].get("success").unwrap().as_f64().unwrap()
                < resps[0].get("success").unwrap().as_f64().unwrap(),
            "the noisier override must lower success"
        );

        // Same rule for a QCCD session: no trap dimension named ⇒ the
        // session's own array.
        let qspec = QccdSpec::for_qubits(16, 5).unwrap();
        let mut s = Service::new(Engine::builder().backend(Backend::Qccd(qspec))).unwrap();
        let input = format!(
            "{{\"id\":1,\"qasm\":\"{qasm}\"}}\n{{\"id\":2,\"qasm\":\"{qasm}\",\"noise\":{{\"epsilon\":0.0012}}}}\n"
        );
        let (resps, _) = drive(&mut s, &input);
        assert!(ok(&resps[0]) && ok(&resps[1]), "{resps:?}");
        assert_eq!(
            resps[0].get("moves").unwrap().as_f64(),
            resps[1].get("moves").unwrap().as_f64(),
            "transport count must come from the session's trap array"
        );
    }

    #[test]
    fn partial_linq_override_overlays_the_session_router() {
        // Naming only `alpha` must keep the session's max_swap_len cap
        // (the same inheritance rule as the noise overlay).
        let session_router = RouterKind::Linq(LinqConfig {
            max_swap_len: Some(2),
            alpha: 0.5,
            ..LinqConfig::default()
        });
        let builder = || {
            Engine::builder()
                .backend(Backend::Tilt(DeviceSpec::new(8, 4).unwrap()))
                .router(session_router)
        };
        let mut s = Service::new(builder()).unwrap();
        let qasm_text = "qreg q[8];\nh q[0];\ncx q[0], q[7];\ncx q[1], q[6];\n";
        let wire = qasm_text.replace('\n', "\\n");
        let (resps, _) = drive(
            &mut s,
            &format!("{{\"id\":1,\"qasm\":\"{wire}\",\"alpha\":0.9}}\n"),
        );
        assert!(ok(&resps[0]), "{:?}", resps[0]);

        let circuit = tilt_circuit::qasm::parse_qasm(qasm_text).unwrap();
        let expected = builder()
            .router(RouterKind::Linq(LinqConfig {
                max_swap_len: Some(2),
                alpha: 0.9,
                ..LinqConfig::default()
            }))
            .build()
            .unwrap()
            .run(&circuit)
            .unwrap();
        assert_eq!(
            resps[0].get("ln_success").unwrap().as_f64(),
            Some(expected.ln_success),
            "the override engine must keep the session's swap-span cap"
        );
        assert_eq!(
            resps[0].get("swaps").unwrap().as_f64(),
            Some(expected.compile.swap_count as f64)
        );
    }

    #[test]
    fn inapplicable_dimension_overrides_are_rejected() {
        // `ions` means nothing on qccd/scaled; silently compiling on a
        // different machine than the client described is worse than an
        // error.
        let mut s = tilt_service(8, 4);
        let qasm = "qreg q[4];\\ncx q[0], q[3];\\n";
        let input = format!(
            "{{\"id\":1,\"qasm\":\"{qasm}\",\"backend\":\"qccd\",\"ions\":32}}\n{{\"id\":2,\"qasm\":\"{qasm}\",\"backend\":\"scaled\",\"ions\":32}}\n"
        );
        let (resps, _) = drive(&mut s, &input);
        for resp in &resps {
            assert!(!ok(resp), "{resp:?}");
            assert!(err_msg(resp).contains("does not apply"), "{resp:?}");
        }
    }

    #[test]
    fn newline_free_flood_is_rejected_with_bounded_memory() {
        // One line larger than MAX_LINE_BYTES must produce a single
        // structured error and not poison the next (normal) line.
        let mut s = tilt_service(8, 4);
        // Overshoot by many read-chunks: the limit check runs between
        // chunks, so a line must exceed the cap by more than one chunk
        // before its newline arrives for the rejection to be observable.
        let mut input = vec![b'x'; super::MAX_LINE_BYTES + 256 * 1024];
        input.push(b'\n');
        input.extend_from_slice(b"{\"id\":2,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n");
        let mut out = Vec::new();
        // A small-capacity BufReader models the wire: the flood arrives
        // in bounded chunks, never as one complete buffered line.
        let reader = std::io::BufReader::with_capacity(8 * 1024, Cursor::new(input));
        let summary = s.serve(reader, &mut out, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        let resps: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(resps.len(), 2, "{text}");
        assert!(!ok(&resps[0]));
        assert_eq!(err_kind(&resps[0]), "invalid_request");
        assert!(err_msg(&resps[0]).contains("byte limit"));
        assert!(ok(&resps[1]), "{:?}", resps[1]);
        assert_eq!(summary.stats.errors, 1);
    }

    #[test]
    fn duplicate_requests_are_served_from_cache_byte_identically() {
        let mut s = tilt_service(8, 4);
        let qasm = "qreg q[8];\\nh q[0];\\ncx q[0], q[7];\\n";
        let input = format!(
            "{{\"id\":1,\"qasm\":\"{qasm}\",\"emit_program\":true}}\n{{\"id\":1,\"qasm\":\"{qasm}\",\"emit_program\":true}}\n{{\"op\":\"stats\"}}\n"
        );
        let (resps, summary) = drive(&mut s, &input);
        assert_eq!(resps.len(), 3);
        assert!(ok(&resps[0]) && ok(&resps[1]), "{resps:?}");
        assert_eq!(
            resps[0].render(),
            resps[1].render(),
            "a cache hit must be byte-identical to the fresh compile"
        );
        assert!(resps[0].get("program").is_some());
        let cache = resps[2].get("stats").unwrap().get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("entries").unwrap().as_f64(), Some(1.0));
        assert_eq!(summary.cache.hits, 1);
        assert_eq!(summary.stats.served, 2, "hits still count as served");
    }

    #[test]
    fn override_requests_cache_under_their_own_config() {
        let mut s = tilt_service(8, 4);
        let qasm = "qreg q[8];\\ncx q[0], q[7];\\n";
        // Same circuit: default session, then twice under an override.
        let input = format!(
            "{{\"id\":1,\"qasm\":\"{qasm}\"}}\n{{\"id\":2,\"qasm\":\"{qasm}\",\"scheduler\":\"naive\"}}\n{{\"id\":3,\"qasm\":\"{qasm}\",\"scheduler\":\"naive\"}}\n{{\"op\":\"stats\"}}\n"
        );
        let (resps, _) = drive(&mut s, &input);
        assert!(resps[..3].iter().all(ok), "{resps:?}");
        let cache = resps[3].get("stats").unwrap().get("cache").unwrap();
        // The override keys a distinct config: ids 1 and 2 miss, id 3
        // hits id 2's entry.
        assert_eq!(cache.get("misses").unwrap().as_f64(), Some(2.0));
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("entries").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn configure_rebinds_the_default_session() {
        let mut s = tilt_service(16, 4);
        let qasm = "qreg q[16];\\nh q[0];\\ncx q[0], q[15];\\ncx q[1], q[14];\\n";
        let input = format!(
            "{{\"id\":0,\"op\":\"configure\",\"scheduler\":\"naive\"}}\n{{\"id\":1,\"qasm\":\"{qasm}\"}}\n"
        );
        let (resps, _) = drive(&mut s, &input);
        assert_eq!(resps[0].get("configured"), Some(&Json::Bool(true)));
        assert_eq!(resps[0].get("backend").unwrap().as_str(), Some("tilt"));
        assert!(ok(&resps[1]), "{:?}", resps[1]);

        // The default-session request must now compile under the
        // reconfigured policies — identical to an explicitly built
        // naive-scheduler engine.
        let circuit = tilt_circuit::qasm::parse_qasm(&qasm.replace("\\n", "\n")).unwrap();
        let expected = Engine::builder()
            .backend(Backend::Tilt(DeviceSpec::new(16, 4).unwrap()))
            .scheduler(SchedulerKind::NaiveNextGate)
            .build()
            .unwrap()
            .run(&circuit)
            .unwrap();
        assert_eq!(
            resps[1].get("moves").unwrap().as_f64(),
            Some(expected.compile.move_count as f64)
        );
        assert_eq!(
            resps[1].get("ln_success").unwrap().as_f64(),
            Some(expected.ln_success)
        );
    }

    #[test]
    fn bad_configure_is_rejected_and_session_survives() {
        let mut s = tilt_service(8, 4);
        let qasm = "qreg q[4];\\ncx q[0], q[3];\\n";
        let input = format!(
            "{{\"id\":0,\"op\":\"configure\",\"router\":\"warp\"}}\n{{\"id\":1,\"op\":\"configure\",\"max_swap_len\":99}}\n{{\"id\":2,\"qasm\":\"{qasm}\"}}\n"
        );
        let (resps, summary) = drive(&mut s, &input);
        assert!(!ok(&resps[0]), "{:?}", resps[0]);
        assert!(!ok(&resps[1]), "invalid router config must be rejected");
        assert!(
            ok(&resps[2]),
            "the old session still serves: {:?}",
            resps[2]
        );
        assert_eq!(summary.stats.errors, 2);
    }

    #[test]
    fn configure_without_fields_is_an_acknowledged_noop() {
        let mut s = tilt_service(8, 4);
        let (resps, _) = drive(&mut s, "{\"op\":\"configure\"}\n");
        assert_eq!(resps[0].get("configured"), Some(&Json::Bool(true)));
        assert!(ok(&resps[0]));
    }

    #[test]
    fn parse_memo_verifies_text_before_serving() {
        // A digest collision between two different payloads (FNV is
        // not collision-resistant) must degrade to a miss, never serve
        // the other payload's circuit.
        let mut memo = ParseMemo::default();
        let key = ParseMemo::text_key("qreg q[2];\ncx q[0], q[1];\n");
        memo.insert(
            key,
            MemoHit {
                text: Arc::from("qreg q[2];\ncx q[0], q[1];\n"),
                circuit: Arc::new(Circuit::new(2)),
                key: Digest(7),
            },
        );
        assert!(memo.get(key, "qreg q[2];\ncx q[0], q[1];\n").is_some());
        assert!(
            memo.get(key, "some colliding other text").is_none(),
            "a hit requires the exact original text"
        );
    }

    #[test]
    fn expired_deadline_is_shed_before_compiling() {
        let mut s = tilt_service(8, 4);
        let input = concat!(
            "{\"id\":1,\"qasm\":\"qreg q[8];\\ncx q[0], q[7];\\n\",\"deadline_ms\":0}\n",
            "{\"id\":2,\"qasm\":\"qreg q[8];\\ncx q[0], q[7];\\n\"}\n",
        );
        let (resps, summary) = drive(&mut s, input);
        assert_eq!(resps.len(), 2);
        assert!(!ok(&resps[0]));
        assert_eq!(err_kind(&resps[0]), "deadline_exceeded");
        assert!(ok(&resps[1]), "{:?}", resps[1]);
        assert_eq!(summary.stats.shed_deadline, 1);
        // The shed request never touched the cache, let alone compiled:
        // the same circuit still cost exactly one (later) miss.
        assert_eq!(summary.cache.misses, 1);
        assert_eq!(summary.cache.entries, 1);
    }

    #[test]
    fn default_deadline_applies_when_request_names_none() {
        let mut s = tilt_service(8, 4).with_default_deadline(Some(Duration::ZERO));
        let (resps, summary) = drive(
            &mut s,
            "{\"id\":1,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n",
        );
        assert_eq!(err_kind(&resps[0]), "deadline_exceeded");
        assert_eq!(summary.stats.shed_deadline, 1);
        // An explicit generous deadline overrides the default.
        let mut s = tilt_service(8, 4).with_default_deadline(Some(Duration::ZERO));
        let (resps, _) = drive(
            &mut s,
            "{\"id\":1,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\",\"deadline_ms\":60000}\n",
        );
        assert!(ok(&resps[0]), "{:?}", resps[0]);
    }

    #[test]
    fn invalid_deadline_is_rejected_as_invalid_request() {
        let mut s = tilt_service(8, 4);
        let input = concat!(
            "{\"id\":1,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\",\"deadline_ms\":-5}\n",
            "{\"id\":2,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\",\"deadline_ms\":\"soon\"}\n",
        );
        let (resps, _) = drive(&mut s, input);
        for resp in &resps {
            assert_eq!(err_kind(resp), "invalid_request");
            assert!(err_msg(resp).contains("deadline_ms"), "{resp:?}");
        }
    }

    #[test]
    fn flood_past_admission_budget_sheds_with_retry_hint() {
        let admission = Arc::new(AdmissionControl::new(2, usize::MAX));
        let mut s = tilt_service(8, 4).with_admission(Arc::clone(&admission));
        // Six distinct circuits arrive before any response is due: the
        // first two are admitted, the rest shed — in submission order.
        let input: String = (1..=6)
            .map(|k| format!("{{\"id\":{k},\"qasm\":\"qreg q[8];\\ncx q[0], q[{k}];\\n\"}}\n"))
            .collect::<String>()
            + "{\"op\":\"stats\"}\n";
        let (resps, summary) = drive(&mut s, &input);
        assert_eq!(resps.len(), 7);
        assert!(ok(&resps[0]) && ok(&resps[1]), "{resps:?}");
        for resp in &resps[2..6] {
            assert!(!ok(resp), "{resp:?}");
            assert_eq!(err_kind(resp), "overloaded");
            let retry = resp
                .get("error")
                .unwrap()
                .get("retry_after_ms")
                .expect("overloaded responses carry a backoff hint")
                .as_f64()
                .unwrap();
            assert!(retry >= 1.0, "{resp:?}");
        }
        assert_eq!(summary.stats.shed_overloaded, 4);
        let shed = resps[6].get("stats").unwrap().get("shed").unwrap();
        assert_eq!(shed.get("overloaded").unwrap().as_f64(), Some(4.0));
        assert_eq!(shed.get("deadline").unwrap().as_f64(), Some(0.0));
        // Every permit was released with its window.
        assert_eq!(admission.counters().in_flight, 0);
        assert_eq!(admission.counters().in_flight_bytes, 0);
    }

    #[test]
    fn cache_hits_bypass_admission() {
        // A saturated budget must not shed requests the cache can
        // answer without compiling.
        let admission = Arc::new(AdmissionControl::new(1, usize::MAX));
        let mut s = tilt_service(8, 4).with_admission(Arc::clone(&admission));
        let qasm = "qreg q[8];\\ncx q[0], q[7];\\n";
        // The stats line forces a flush, so the repeat is a genuine
        // cache hit rather than a same-window duplicate.
        let input = format!(
            "{{\"id\":1,\"qasm\":\"{qasm}\"}}\n{{\"op\":\"stats\"}}\n{{\"id\":2,\"qasm\":\"{qasm}\"}}\n"
        );
        let (resps, summary) = drive(&mut s, &input);
        assert!(ok(&resps[0]) && ok(&resps[2]), "{resps:?}");
        assert_eq!(summary.stats.shed_overloaded, 0);
        assert_eq!(summary.cache.hits, 1);
    }

    #[test]
    fn override_and_stream_lanes_take_an_admission_permit() {
        let admission = Arc::new(AdmissionControl::new(1, usize::MAX));
        let mut s = tilt_service(8, 4).with_admission(Arc::clone(&admission));
        let held = admission.try_admit(0).unwrap();
        let input = concat!(
            "{\"id\":1,\"head\":2,\"qasm\":\"qreg q[8];\\ncx q[0], q[7];\\n\"}\n",
            "{\"id\":2,\"stream\":true,\"qasm\":\"qreg q[8];\\ncx q[0], q[7];\\n\"}\n",
        );
        let (resps, summary) = drive(&mut s, input);
        assert_eq!(resps.len(), 2, "{resps:?}");
        for resp in &resps {
            assert_eq!(err_kind(resp), "overloaded", "{resp:?}");
        }
        assert_eq!(summary.stats.shed_overloaded, 2);
        // With the budget free again both lanes compile, and each
        // releases its permit after its last line.
        drop(held);
        let (resps, _) = drive(&mut s, input);
        assert!(ok(&resps[0]) && ok(resps.last().unwrap()), "{resps:?}");
        assert_eq!(admission.counters().in_flight, 0);
    }

    #[test]
    fn strict_streams_verify_and_answer_ok() {
        let mut s = tilt_service(8, 4);
        let input = concat!(
            "{\"op\":\"configure\",\"verify\":\"strict\"}\n",
            "{\"id\":1,\"stream\":true,\"stream_window\":1,\"qasm\":\"qreg q[8];\\nh q[0];\\ncx q[0], q[7];\\n\"}\n",
        );
        let (resps, _) = drive(&mut s, input);
        let last = resps.last().unwrap();
        assert!(ok(last), "{resps:?}");
        assert_eq!(last.get("streamed"), Some(&Json::Bool(true)));
        let increments = last.get("increments").unwrap().as_f64().unwrap() as usize;
        assert!(increments >= 1);
        // The configure ack, the increment lines, the final report.
        assert_eq!(resps.len(), increments + 2, "{resps:?}");
    }

    #[test]
    fn failed_runs_share_one_wire_kind_mapping() {
        let verify = TiltError::Verify {
            count: 1,
            first: "error[tilt/head-span] op 0: example".into(),
        };
        assert_eq!(error_kind(&verify), "verify_failed");
        let stream = TiltError::Stream {
            reason: "line 3".into(),
        };
        assert_eq!(error_kind(&stream), "invalid_request");
    }

    #[test]
    fn streaming_request_matches_monolithic_numbers() {
        let mut s = tilt_service(8, 4);
        let qasm = "qreg q[8];\\nh q[0];\\ncx q[0], q[7];\\ncx q[1], q[6];\\ncx q[2], q[5];\\n";
        let input = format!(
            "{{\"id\":1,\"qasm\":\"{qasm}\"}}\n{{\"id\":2,\"stream\":true,\"stream_window\":2,\"qasm\":\"{qasm}\"}}\n"
        );
        let (resps, summary) = drive(&mut s, &input);
        let mono = &resps[0];
        assert!(ok(mono), "{mono:?}");
        let last = resps.last().unwrap();
        assert!(ok(last), "{last:?}");
        assert_eq!(last.get("streamed"), Some(&Json::Bool(true)));
        for key in [
            "backend",
            "swaps",
            "opposing_swaps",
            "moves",
            "move_distance",
            "native_gates",
            "native_two_qubit",
            "epr_pairs",
            "ln_success",
            "success",
            "exec_time_us",
        ] {
            assert_eq!(mono.get(key), last.get(key), "field `{key}` must match");
        }
        assert_eq!(last.get("input_gates").unwrap().as_f64(), Some(4.0));
        let increments = last.get("increments").unwrap().as_f64().unwrap() as usize;
        let inc_lines = &resps[1..resps.len() - 1];
        assert_eq!(inc_lines.len(), increments);
        assert!(increments >= 1);
        for (i, line) in inc_lines.iter().enumerate() {
            assert_eq!(line.get("id").unwrap().as_f64(), Some(2.0));
            assert_eq!(
                line.get("increment").unwrap().as_f64(),
                Some((i + 1) as f64)
            );
            assert_eq!(line.get("shard").unwrap().as_f64(), Some(0.0));
            assert!(line.get("ops").unwrap().as_f64().unwrap() >= 1.0);
        }
        assert_eq!(summary.stats.ok, 2);
    }

    #[test]
    fn streaming_emit_program_reconstructs_the_monolithic_program() {
        let mut s = tilt_service(8, 4);
        let qasm = "qreg q[8];\\nh q[3];\\ncx q[0], q[7];\\ncx q[3], q[4];\\n";
        let input = format!(
            "{{\"id\":1,\"qasm\":\"{qasm}\",\"emit_program\":true}}\n{{\"id\":2,\"stream\":true,\"stream_window\":1,\"qasm\":\"{qasm}\",\"emit_program\":true}}\n"
        );
        let (resps, _) = drive(&mut s, &input);
        let mono_program = resps[0].get("program").unwrap().as_str().unwrap();
        // The monolithic text is one header line plus the op body; the
        // increments carry only op lines.
        let body = mono_program.split_once('\n').unwrap().1;
        let streamed: String = resps[1..resps.len() - 1]
            .iter()
            .map(|line| line.get("program").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(streamed, body);
    }

    #[test]
    fn streaming_on_the_scaled_backend_emits_per_shard_increments() {
        let mut s = Service::new(
            Engine::builder().backend(Backend::Scaled(ScaleSpec::new(10, 4).unwrap())),
        )
        .unwrap();
        let qasm = "qreg q[16];\\nh q[0];\\ncx q[0], q[15];\\ncx q[3], q[12];\\n";
        let input = format!("{{\"id\":1,\"stream\":true,\"qasm\":\"{qasm}\"}}\n");
        let (resps, _) = drive(&mut s, &input);
        let last = resps.last().unwrap();
        assert!(ok(last), "{last:?}");
        assert_eq!(last.get("backend").unwrap().as_str(), Some("scaled"));
        assert!(last.get("epr_pairs").unwrap().as_f64().unwrap() >= 2.0);
        let shards: std::collections::BTreeSet<u64> = resps[..resps.len() - 1]
            .iter()
            .map(|l| l.get("shard").unwrap().as_f64().unwrap() as u64)
            .collect();
        assert!(shards.len() >= 2, "both ELUs emit increments: {shards:?}");
    }

    #[test]
    fn streaming_rejects_overrides_and_bad_flags() {
        let mut s = tilt_service(8, 4);
        let input = concat!(
            "{\"id\":1,\"stream\":true,\"router\":\"linq\",\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\"}\n",
            "{\"id\":2,\"stream\":true,\"stream_window\":0,\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\"}\n",
            "{\"id\":3,\"stream\":\"yes\",\"qasm\":\"qreg q[2];\\ncx q[0], q[1];\\n\"}\n",
        );
        let (resps, _) = drive(&mut s, input);
        assert_eq!(err_kind(&resps[0]), "invalid_request");
        assert!(err_msg(&resps[0]).contains("overrides"), "{:?}", resps[0]);
        assert_eq!(err_kind(&resps[1]), "invalid_request");
        assert!(err_msg(&resps[1]).contains("stream_window"));
        assert_eq!(err_kind(&resps[2]), "invalid_request");
        assert!(err_msg(&resps[2]).contains("`stream`"));
    }

    #[test]
    fn streaming_failures_are_isolated_per_request() {
        let mut s = tilt_service(8, 4);
        let input = concat!(
            // No qreg header: the stream cannot size the machine.
            "{\"id\":1,\"stream\":true,\"qasm\":\"h q[0];\\n\"}\n",
            // Register past the service-wide width cap.
            "{\"id\":2,\"stream\":true,\"qasm\":\"qreg q[5000];\\ncx q[0], q[1];\\n\"}\n",
            // Wider than the session tape: a backend compile error.
            "{\"id\":3,\"stream\":true,\"qasm\":\"qreg q[40];\\ncx q[0], q[39];\\n\"}\n",
            // The loop survives all of the above.
            "{\"id\":4,\"stream\":true,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n",
        );
        let (resps, summary) = drive(&mut s, input);
        assert_eq!(err_kind(&resps[0]), "invalid_request");
        assert_eq!(err_kind(&resps[1]), "invalid_request");
        assert!(err_msg(&resps[1]).contains("service cap"));
        assert_eq!(err_kind(&resps[2]), "compile");
        let last = resps.last().unwrap();
        assert!(ok(last), "the loop survives streaming failures: {last:?}");
        assert_eq!(summary.stats.errors, 3);
        assert_eq!(summary.stats.ok, 1);
    }

    #[test]
    fn streaming_deadline_zero_is_shed_without_compiling() {
        let mut s = tilt_service(8, 4);
        let (resps, summary) = drive(
            &mut s,
            "{\"id\":1,\"stream\":true,\"deadline_ms\":0,\"qasm\":\"qreg q[4];\\ncx q[0], q[3];\\n\"}\n",
        );
        assert_eq!(err_kind(&resps[0]), "deadline_exceeded");
        assert_eq!(summary.stats.shed_deadline, 1);
    }

    #[test]
    fn latency_histogram_quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 2, 3, 10, 100, 1000, 10_000] {
            h.record_us(us);
        }
        assert!(h.quantile_us(0.5) <= h.quantile_us(0.99));
        assert!(h.quantile_us(0.99) >= 8192);
        assert_eq!(LatencyHistogram::new().quantile_us(0.5), 0);
    }

    #[test]
    fn latency_histogram_resolves_within_one_sub_bucket() {
        let p50 = |us: u64| {
            let mut h = LatencyHistogram::new();
            h.record_us(us);
            h.quantile_us(0.5)
        };
        assert_ne!(p50(700), p50(1000), "700 µs and 1,000 µs must differ");
        let spot = (0..=4096).chain((1..=40).map(|k| (1u64 << k) - 1));
        for us in spot.chain([700, 1000, 123_457]) {
            let q = p50(us);
            assert!(q >= us && q - us <= us / 8, "{us} µs reads as {q} µs");
        }
        // 98 fast requests and 2 slow ones: the p99 is a slow one.
        let mut h = LatencyHistogram::new();
        for _ in 0..98 {
            h.record_us(100);
        }
        h.record_us(520);
        h.record_us(520);
        let p99 = h.quantile_us(0.99);
        assert!((520..=585).contains(&p99), "p99 of 520 µs reads {p99}");
    }

    /// `n` distinct 8-qubit circuits, as QASM text.
    fn distinct_circuits(n: usize) -> Vec<String> {
        (1..=n)
            .map(|k| format!("qreg q[8];\nh q[0];\ncx q[0], q[{k}];\ncx q[{k}], q[7];\n"))
            .collect()
    }

    fn run_line(id: usize, extra: &str, qasm: &str) -> String {
        format!(
            "{{\"id\":{id}{extra},\"qasm\":\"{}\"}}\n",
            qasm.replace('\n', "\\n")
        )
    }

    /// The response a dedicated engine renders for `qasm`.
    fn dedicated(builder: EngineBuilder, id: usize, qasm: &str) -> String {
        let report = builder
            .build()
            .unwrap()
            .run(&qasm::parse_qasm(qasm).unwrap());
        run_response(&Json::from(id as f64), &report, false).render()
    }

    fn tilt_8_4() -> EngineBuilder {
        Engine::builder().backend(Backend::Tilt(DeviceSpec::new(8, 4).unwrap()))
    }

    #[test]
    fn same_config_overrides_ride_one_window() {
        let mut s = tilt_service(8, 4);
        let circuits = distinct_circuits(5);
        let input: String = (0..5)
            .map(|i| run_line(i, ",\"scheduler\":\"naive\"", &circuits[i]))
            .collect();
        let (resps, summary) = drive(&mut s, &input);
        assert_eq!(summary.stats.max_in_flight, 5, "all five share one window");
        assert_eq!(resps.len(), 5);
        for (i, resp) in resps.iter().enumerate() {
            let naive = tilt_8_4().scheduler(SchedulerKind::NaiveNextGate);
            assert_eq!(resp.render(), dedicated(naive, i, &circuits[i]));
        }
    }

    #[test]
    fn duplicate_override_pair_in_one_window_is_one_miss_plus_one_hit() {
        let mut s = tilt_service(8, 4);
        let circuit = &distinct_circuits(1)[0];
        let line = run_line(1, ",\"scheduler\":\"naive\"", circuit);
        let (resps, summary) = drive(&mut s, &format!("{line}{line}"));
        assert_eq!(summary.stats.max_in_flight, 2, "the pair shares one window");
        assert!(ok(&resps[0]), "{resps:?}");
        assert_eq!(resps[0].render(), resps[1].render());
        assert_eq!((summary.cache.misses, summary.cache.hits), (1, 1));
    }

    #[test]
    fn a_default_request_between_two_override_configs_answers_in_order() {
        let mut s = tilt_service(8, 4);
        let circuits = distinct_circuits(3);
        let input = run_line(0, ",\"scheduler\":\"naive\"", &circuits[0])
            + &run_line(1, "", &circuits[1])
            + &run_line(2, ",\"router\":\"stochastic\"", &circuits[2]);
        let (resps, _) = drive(&mut s, &input);
        let stochastic = RouterKind::Stochastic(StochasticConfig::default());
        let expected = [
            dedicated(
                tilt_8_4().scheduler(SchedulerKind::NaiveNextGate),
                0,
                &circuits[0],
            ),
            dedicated(tilt_8_4(), 1, &circuits[1]),
            dedicated(tilt_8_4().router(stochastic), 2, &circuits[2]),
        ];
        let got: Vec<String> = resps.iter().map(Json::render).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn stream_headers_are_checked_before_deadline_and_admission() {
        let admission = Arc::new(AdmissionControl::new(1, usize::MAX));
        let mut s = tilt_service(8, 4).with_admission(Arc::clone(&admission));
        let _held = admission.try_admit(0).unwrap();
        let input = concat!(
            "{\"id\":1,\"stream\":true,\"deadline_ms\":0,\"qasm\":\"h q[0];\\n\"}\n",
            "{\"id\":2,\"stream\":true,\"qasm\":\"qreg q[5000];\\n\"}\n",
        );
        let (resps, summary) = drive(&mut s, input);
        for resp in &resps {
            assert_eq!(err_kind(resp), "invalid_request", "{resp:?}");
        }
        assert!(err_msg(&resps[1]).contains("service cap"), "{resps:?}");
        assert_eq!(
            summary.stats.shed_deadline + summary.stats.shed_overloaded,
            0
        );
    }
}
