//! Chaos suite for the overload-hardened service: fault-injected
//! compile panics, admission floods, expired deadlines, and snapshot
//! write crashes.
//!
//! The pins: (a) a compile panic mid-stream yields exactly one
//! `internal` error while its neighbours answer byte-identically to an
//! unfaulted run; (b) a flood past the admission budget is shed with
//! `overloaded` + `retry_after_ms`, and the same lines complete once the
//! budget frees; (c) a request whose `deadline_ms` has expired — already
//! on arrival, or while an earlier line compiles — is shed without
//! compiling; (d) a fault-injected snapshot write failure leaves the
//! previous snapshot intact and loadable.
//!
//! Every test here holds a fault guard for all of its engine work —
//! including the tests that want *no* faults, which install
//! `FaultPlan::default()`. The guard's process-wide lock is what
//! serializes these tests; engine work outside a guard would race with
//! another test's armed plan.

use std::io::Cursor;
use std::sync::Arc;
use tilt::circuit::qasm;
use tilt::compiler::DeviceSpec;
use tilt::engine::faults::{install, FaultPlan};
use tilt::engine::{AdmissionControl, Backend, CompileCache, Engine, Service, ShutdownCause};
use tilt::report::Json;

/// Register width reserved for fault injection across the workspace:
/// real workloads in these tests stay ≤ 8 qubits, so arming
/// `panic_on_width: 37` never misfires on a neighbour.
const FAULT_WIDTH: usize = 37;

/// A device wide enough that a 37-qubit circuit compiles cleanly when
/// no fault is armed — the injected panic must be the *only* reason
/// the victim request fails.
fn builder() -> tilt::engine::EngineBuilder {
    Engine::builder().backend(Backend::Tilt(DeviceSpec::new(40, 8).unwrap()))
}

/// Drives one service over `input`, returning the raw response lines
/// (for byte-identity checks) and the shutdown summary.
fn drive(service: &mut Service, input: &str) -> (Vec<String>, tilt::engine::ServiceSummary) {
    let mut out = Vec::new();
    let summary = service
        .serve(Cursor::new(input.to_string()), &mut out, None)
        .unwrap();
    let text = String::from_utf8(out).unwrap();
    (text.lines().map(str::to_string).collect(), summary)
}

fn parsed(line: &str) -> Json {
    Json::parse(line).expect("every response line parses")
}

fn error_kind(resp: &Json) -> &str {
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .expect("error responses carry error.kind")
}

fn error_message(resp: &Json) -> &str {
    resp.get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error responses carry error.message")
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok") == Some(&Json::Bool(true))
}

/// The k-th healthy request line: distinct ≤ 8-qubit circuits so none
/// is a cache hit on another and the fault width never matches.
fn healthy_line(id: usize) -> String {
    let qasm_text = format!(
        "qreg q[8];\\nh q[{}];\\ncx q[{}], q[{}];\\n",
        id % 8,
        id % 7,
        7 - id % 4
    );
    format!("{{\"id\":{id},\"qasm\":\"{qasm_text}\"}}")
}

fn fault_line(id: usize) -> String {
    format!(
        "{{\"id\":{id},\"qasm\":\"qreg q[{FAULT_WIDTH}];\\nh q[0];\\ncx q[0], q[{}];\\n\"}}",
        FAULT_WIDTH - 1
    )
}

/// A scratch directory unique to one test (plain std, no tempfile dep).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tilt-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Pin (a): one poisoned circuit in the middle of the input panics its
/// compile; the service answers it with a structured `internal` error
/// and every neighbour's response is byte-identical to an unfaulted
/// service's answer for the same request.
#[test]
fn a_mid_batch_panic_is_isolated_to_one_internal_error() {
    let _guard = install(FaultPlan {
        panic_on_width: Some(FAULT_WIDTH),
        ..FaultPlan::default()
    });

    const VICTIM: usize = 2;
    let mut faulted_input = String::new();
    let mut clean_input = String::new();
    for id in 0..6 {
        if id == VICTIM {
            faulted_input.push_str(&fault_line(id));
        } else {
            faulted_input.push_str(&healthy_line(id));
            clean_input.push_str(&healthy_line(id));
            clean_input.push('\n');
        }
        faulted_input.push('\n');
    }

    let mut service = Service::new(builder()).unwrap();
    let (lines, summary) = drive(&mut service, &faulted_input);
    assert_eq!(summary.cause, ShutdownCause::Eof);
    assert_eq!(lines.len(), 6);
    assert_eq!(summary.stats.ok, 5);
    assert_eq!(summary.stats.errors, 1);

    let victim = parsed(&lines[VICTIM]);
    assert!(!is_ok(&victim), "{victim:?}");
    assert_eq!(error_kind(&victim), "internal", "{victim:?}");
    assert!(
        error_message(&victim).contains("injected fault"),
        "{victim:?}"
    );

    // The neighbours must be byte-identical to an unfaulted service
    // answering the same requests. The fault plan stays armed for the
    // clean run — it only ever fires on width 37, which the clean
    // input never reaches.
    let mut clean = Service::new(builder()).unwrap();
    let (clean_lines, clean_summary) = drive(&mut clean, &clean_input);
    assert_eq!(clean_summary.stats.ok, 5);
    let neighbours: Vec<&String> = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != VICTIM)
        .map(|(_, l)| l)
        .collect();
    assert_eq!(neighbours.len(), clean_lines.len());
    for (faulted, clean) in neighbours.iter().zip(&clean_lines) {
        assert_eq!(
            *faulted, clean,
            "neighbour responses must be byte-identical"
        );
    }
}

/// Pin: a non-Clifford program forced onto the stabilizer simulator
/// mid-batch is a structured `non_clifford` wire error naming the gate
/// and index — not an `internal` panic report — and the service keeps
/// serving: its neighbours answer byte-identically to an undisturbed
/// service.
#[test]
fn a2_a_non_clifford_stabilizer_request_is_a_clean_wire_error() {
    const VICTIM: usize = 2;
    // `t q[0]` at gate index 1 is off the Clifford grid; forcing
    // `"method":"stabilizer"` makes the simulator reject it.
    let victim_line = format!(
        "{{\"id\":{VICTIM},\"method\":\"stabilizer\",\
         \"qasm\":\"qreg q[2];\\nh q[0];\\nt q[0];\\ncx q[0], q[1];\\n\"}}"
    );
    let mut mixed_input = String::new();
    let mut clean_input = String::new();
    for id in 0..6 {
        if id == VICTIM {
            mixed_input.push_str(&victim_line);
        } else {
            mixed_input.push_str(&healthy_line(id));
            clean_input.push_str(&healthy_line(id));
            clean_input.push('\n');
        }
        mixed_input.push('\n');
    }

    let mut service = Service::new(builder()).unwrap();
    let (lines, summary) = drive(&mut service, &mixed_input);
    assert_eq!(summary.cause, ShutdownCause::Eof);
    assert_eq!(lines.len(), 6);
    assert_eq!(summary.stats.ok, 5);
    assert_eq!(summary.stats.errors, 1);

    let victim = parsed(&lines[VICTIM]);
    assert!(!is_ok(&victim), "{victim:?}");
    assert_eq!(error_kind(&victim), "non_clifford", "{victim:?}");
    let message = error_message(&victim);
    assert!(message.contains("non-Clifford"), "{victim:?}");
    assert!(message.contains('t'), "must name the gate: {victim:?}");
    assert!(
        message.contains("index 1"),
        "must name the index: {victim:?}"
    );

    let mut clean = Service::new(builder()).unwrap();
    let (clean_lines, clean_summary) = drive(&mut clean, &clean_input);
    assert_eq!(clean_summary.stats.ok, 5);
    let neighbours: Vec<&String> = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != VICTIM)
        .map(|(_, l)| l)
        .collect();
    assert_eq!(neighbours.len(), clean_lines.len());
    for (mixed, clean) in neighbours.iter().zip(&clean_lines) {
        assert_eq!(*mixed, clean, "neighbour responses must be byte-identical");
    }
}

/// Pin (b): while other loops hold the whole in-flight budget, a flood
/// is shed with kind `overloaded` and a `retry_after_ms` hint; once
/// those permits drop, the same lines complete successfully.
#[test]
fn b_flood_past_the_admission_budget_sheds_with_a_retry_hint() {
    // No faults — but hold a (benign) guard so this engine work can't
    // race another test's armed plan.
    let _guard = install(FaultPlan::default());

    const BUDGET: usize = 2;
    const FLOOD: usize = 7;
    let admission = Arc::new(AdmissionControl::new(BUDGET, usize::MAX));
    let mut service = Service::new(builder())
        .unwrap()
        .with_admission(Arc::clone(&admission));
    // The permits other connections would hold.
    let held: Vec<_> = (0..BUDGET)
        .map(|_| admission.try_admit(0).unwrap())
        .collect();

    let input: String = (0..FLOOD).map(|id| healthy_line(id) + "\n").collect();
    let (lines, summary) = drive(&mut service, &input);
    assert_eq!(lines.len(), FLOOD);

    for (id, line) in lines.iter().enumerate() {
        let resp = parsed(line);
        assert_eq!(resp.get("id").unwrap().as_f64(), Some(id as f64));
        assert_eq!(error_kind(&resp), "overloaded", "{resp:?}");
        let retry = resp
            .get("error")
            .unwrap()
            .get("retry_after_ms")
            .and_then(Json::as_f64)
            .expect("overloaded responses carry retry_after_ms");
        assert!(retry >= 1.0, "retry_after_ms must be positive: {resp:?}");
    }
    assert_eq!(summary.stats.ok, 0);
    assert_eq!(summary.stats.shed_overloaded as usize, FLOOD);
    assert_eq!(summary.stats.shed_deadline, 0);

    // With the budget free, the same lines compile.
    drop(held);
    let (lines, summary) = drive(&mut service, &input);
    assert_eq!(lines.len(), FLOOD);
    for (id, line) in lines.iter().enumerate() {
        let resp = parsed(line);
        assert_eq!(resp.get("id").unwrap().as_f64(), Some(id as f64));
        assert!(is_ok(&resp), "request {id} must complete: {resp:?}");
    }
    assert_eq!(summary.stats.ok as usize, FLOOD);

    // Every permit drained once the responses were written.
    let counters = admission.counters();
    assert_eq!(counters.in_flight, 0);
    assert_eq!(counters.in_flight_bytes, 0);
}

/// Pin (c): a request whose deadline has already expired is shed with
/// kind `deadline_exceeded` *without compiling*. The proof that no
/// compile ran: the request's circuit is the fault width, and the
/// armed compile panic never fires — the response is a deadline shed,
/// not an `internal` panic report.
#[test]
fn c_an_expired_deadline_is_shed_without_compiling() {
    let _guard = install(FaultPlan {
        panic_on_width: Some(FAULT_WIDTH),
        ..FaultPlan::default()
    });

    let expired = format!(
        "{{\"id\":\"late\",\"qasm\":\"qreg q[{FAULT_WIDTH}];\\nh q[0];\\n\",\"deadline_ms\":0}}"
    );
    let input = format!("{expired}\n{}\n", healthy_line(1));

    let mut service = Service::new(builder()).unwrap();
    let (lines, summary) = drive(&mut service, &input);
    assert_eq!(lines.len(), 2);

    let shed = parsed(&lines[0]);
    assert!(!is_ok(&shed), "{shed:?}");
    assert_eq!(error_kind(&shed), "deadline_exceeded", "{shed:?}");
    // The healthy follow-up proves the loop survived the shed.
    assert!(is_ok(&parsed(&lines[1])));
    assert_eq!(summary.stats.shed_deadline, 1);
    assert_eq!(summary.stats.shed_overloaded, 0);
    assert_eq!(summary.stats.ok, 1);
}

/// Pin (c), pipelined: a deadline counts from the read that delivered
/// its line, so a request whose deadline passes while an earlier line
/// compiles is shed when its turn comes — without compiling.
#[test]
fn c2_a_deadline_that_expires_behind_an_earlier_compile_is_shed() {
    let _guard = install(FaultPlan {
        compile_delay_us: 200_000,
        ..FaultPlan::default()
    });

    let healthy = healthy_line(1);
    let late = format!(
        "{},\"deadline_ms\":50}}",
        healthy.strip_suffix('}').unwrap()
    );
    // One input, so both lines arrive in the same read.
    let input = format!("{}\n{late}\n", healthy_line(0));
    let mut service = Service::new(builder()).unwrap();
    let (lines, summary) = drive(&mut service, &input);
    assert_eq!(lines.len(), 2);

    assert!(is_ok(&parsed(&lines[0])), "{}", lines[0]);
    let shed = parsed(&lines[1]);
    assert_eq!(error_kind(&shed), "deadline_exceeded", "{shed:?}");
    assert_eq!(summary.stats.shed_deadline, 1);
    // Only the first line compiled.
    assert_eq!(summary.cache.misses, 1);
}

/// Pin (d): a fault-injected crash mid-snapshot-write (partial
/// temporary file) and an outright write error both fail `save` — and
/// neither disturbs the previous snapshot, which reloads in full.
#[test]
fn d_a_failed_snapshot_write_leaves_the_previous_snapshot_intact() {
    let dir = scratch_dir("snapshot");
    let cache = Arc::new(CompileCache::new(16));
    let written;
    {
        let _guard = install(FaultPlan::default());
        let engine = builder().compile_cache(Arc::clone(&cache)).build().unwrap();
        for k in 0..3 {
            let qasm_text = format!("qreg q[6];\nh q[{k}];\ncx q[{k}], q[5];\n");
            engine.run(&qasm::parse_qasm(&qasm_text).unwrap()).unwrap();
        }
        written = cache.save(&dir).unwrap();
        assert_eq!(written, 3);
    }

    // A crash after a partial write of the temporary file: save fails,
    // and the torn bytes never reach the live snapshot.
    {
        let _guard = install(FaultPlan {
            snapshot_truncate_bytes: Some(12),
            ..FaultPlan::default()
        });
        let err = cache.save(&dir).unwrap_err();
        assert!(err.to_string().contains("partial snapshot write"), "{err}");
    }
    // An outright write error before any bytes move.
    {
        let _guard = install(FaultPlan {
            snapshot_write_error: true,
            ..FaultPlan::default()
        });
        let err = cache.save(&dir).unwrap_err();
        assert!(err.to_string().contains("snapshot write error"), "{err}");
    }

    // The previous snapshot is intact: a cold cache reloads every
    // entry with zero rejects, and serves them as hits.
    {
        let _guard = install(FaultPlan::default());
        let fresh = Arc::new(CompileCache::new(16));
        let (loaded, rejected) = fresh.load(&dir).unwrap();
        assert_eq!((loaded, rejected), (written, 0));

        let mut service = Service::new(builder().compile_cache(Arc::clone(&fresh))).unwrap();
        let request =
            "{\"id\":0,\"qasm\":\"qreg q[6];\\nh q[0];\\ncx q[0], q[5];\\n\"}\n".to_string();
        let (lines, summary) = drive(&mut service, &request);
        assert!(is_ok(&parsed(&lines[0])));
        assert_eq!(summary.cache.hits, 1, "reloaded entries must serve hits");
        assert_eq!(summary.cache.misses, 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A panic inside the cache's locked critical section genuinely
/// poisons the mutex; the service answers that request with an
/// `internal` error and keeps serving — later inserts and probes
/// recover the poisoned lock instead of propagating it forever.
#[test]
fn a_poisoned_cache_lock_is_recovered_not_propagated() {
    let _guard = install(FaultPlan {
        cache_insert_panic: true,
        ..FaultPlan::default()
    });

    // Three distinct circuits, each compiled and inserted in turn. The
    // first insert panics and poisons the lock; the rest must still be
    // answered from a recovered cache.
    let input = format!(
        "{}\n{}\n{}\n{}\n",
        healthy_line(0),
        healthy_line(1),
        healthy_line(2),
        healthy_line(0)
    );
    let mut service = Service::new(builder()).unwrap();
    let (lines, summary) = drive(&mut service, &input);
    assert_eq!(lines.len(), 4);

    let first = parsed(&lines[0]);
    assert!(!is_ok(&first), "{first:?}");
    assert_eq!(error_kind(&first), "internal", "{first:?}");
    assert!(is_ok(&parsed(&lines[1])));
    assert!(is_ok(&parsed(&lines[2])));
    // The victim's circuit never made it into the cache, so its
    // repeat is a fresh (successful) compile through the recovered
    // lock, not a hit.
    assert!(is_ok(&parsed(&lines[3])));
    assert_eq!(summary.stats.ok, 3);
    assert_eq!(summary.stats.errors, 1);
}
