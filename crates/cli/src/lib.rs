//! Library backing the `tilt-cli` binary.
//!
//! The command surface mirrors the LinQ toolflow (Fig. 4 of the paper):
//!
//! ```text
//! tilt-cli run      <file.qasm> [options]   # compile + estimate on --backend tilt|qccd|scaled
//! tilt-cli run      <dir> --batch [options] # a directory of circuits as one batch
//! tilt-cli run      <file> --stream         # bounded-memory streaming compile
//! tilt-cli lint     <file.qasm> [options]   # statically verify the compiled program
//! tilt-cli timeline <file.qasm> [options]   # draw the tape-head trajectory
//! tilt-cli bench    <name|all>  [options]   # run a paper benchmark by name
//! tilt-cli serve    [options]               # JSON-lines compile service (stdin/stdout or TCP)
//! ```
//!
//! Every command builds its engine through the one overlay the service
//! uses for wire fields ([`tilt_engine::Overrides`]). All logic lives
//! here (string in, string out) so the whole surface is unit-testable
//! without spawning processes.

mod args;
mod commands;

pub use args::{Options, ParseArgsError};

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage: tilt-cli <command> [arguments] [options]

commands:
  run      <file.qasm>   compile and estimate on the --backend machine
  run      <dir> --batch every .qasm in <dir> as one batch, one row per circuit
  run  <file> --stream   bounded-memory streaming compile: O(window) peak
                         memory, built for million-gate files
  timeline <file.qasm>   compile and draw the tape-head trajectory
  lint     <file.qasm>   compile and statically verify the program
                         invariants (--json for machine-readable output;
                         exits nonzero on any error-severity finding;
                         --stream runs every rule on the streaming
                         pipeline at O(window) memory, with the same
                         findings)
  bench    <name|all>    run a paper benchmark (adder, bv, qaoa, rcs, qft, sqrt)
  serve                  long-running JSON-lines compile service over the
                         Engine session (stdin/stdout; --listen host:port for
                         TCP), answering each request before reading the next

options (every command takes the first ten; the rest only where marked):
  --backend B           tilt | qccd | scaled (default: tilt)
  --ions N              tilt: tape length (default: circuit width; serve: 64)
  --head L              laser-head size, per ELU on scaled (default: 16)
  --ions-per-trap N     qccd: trap size (default: 17)
  --elu-ions N          scaled: ions per ELU (default: 18)
  --router R            linq | stochastic (default: linq)
  --max-swap-len K      cap inserted swap spans (default: L-1)
  --alpha A             Eq. 1 look-ahead decay (default: 0.9)
  --scheduler S         greedy | naive (default: greedy)
  --method M            also simulate the circuit: auto | statevec | stabilizer
  --json                lint: emit diagnostics as a JSON array
  --emit-program        run, tilt: print the scheduled gate/move stream
  --emit-qasm           run, tilt: print the routed physical circuit as OpenQASM
  --batch               run: treat the target as a directory of .qasm files
  --stream              run/lint: stream the QASM through the windowed
                        pipeline without materializing the circuit
  --stream-window N     run/lint: input gates per window (default: 65536)
  --listen HOST:PORT    serve: accept TCP connections instead of stdin/stdout
  --cache-dir DIR       serve: persist the compile cache across restarts
  --max-in-flight N     serve: in-flight requests across connections
                        (default: 1024; 0 = unlimited)
  --max-in-flight-bytes N
                        serve: in-flight request bytes (default: 64 MiB;
                        0 = unlimited)
  --default-deadline-ms N
                        serve: deadline for requests naming none (0 = none)
";

/// Entry point: parses `args`, dispatches, and returns the text to print.
///
/// # Errors
///
/// Returns a human-readable error string for bad arguments, unreadable
/// files, parse failures, or compilation errors.
pub fn run(args: &[String]) -> Result<String, String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    match command.as_str() {
        "run" => commands::run(rest),
        "timeline" => commands::timeline(rest),
        "lint" => commands::lint(rest),
        "bench" => commands::bench(rest),
        "serve" => commands::serve(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn missing_command_errors() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        let e = run(&v(&["frobnicate"])).unwrap_err();
        assert!(e.contains("frobnicate"));
        for retired in ["compile", "simulate", "qccd", "scale"] {
            let e = run(&v(&[retired, "x.qasm"])).unwrap_err();
            assert_eq!(e, format!("unknown command `{retired}`"));
        }
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&v(&["help"])).unwrap();
        assert!(out.contains("usage:"));
        // Every flag the parsers accept is a `"--…"` literal in the
        // non-test part of `args.rs`; each must be documented.
        let source = include_str!("args.rs");
        let source = &source[..source.find("#[cfg(test)]").unwrap_or(source.len())];
        let mut flags = 0;
        for (at, _) in source.match_indices("\"--") {
            let flag: String = source[at + 1..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            if flag == "--" {
                continue; // the parser's own prefix test
            }
            assert!(
                USAGE.contains(&format!("  {flag} ")) || USAGE.contains(&format!("  {flag}\n")),
                "USAGE omits accepted flag {flag}"
            );
            flags += 1;
        }
        assert!(flags >= 20, "found only {flags} flags in args.rs");
        for gone in ["compile", "simulate", "qccd", "scale"] {
            assert!(
                !USAGE.contains(&format!("  {gone:<8} <")),
                "USAGE lists {gone}"
            );
        }
        assert!(!USAGE.contains("--scaled") && !USAGE.contains("exact"));
    }

    #[test]
    fn commands_refuse_the_flags_they_do_not_read() {
        let e = run(&v(&["run", "x.qasm", "--head", "2", "--json"])).unwrap_err();
        assert_eq!(e, "`--json` does not apply to `run`");
        let serve = ["serve", "--ions", "4", "--head", "2", "--batch", "--json"];
        let e = run(&v(&serve)).unwrap_err();
        assert_eq!(e, "`--batch` does not apply to `serve`");
    }

    #[test]
    fn bench_runs_named_benchmark() {
        let out = run(&v(&["bench", "bv", "--head", "16"])).unwrap();
        assert!(out.contains("BV"));
        assert!(out.contains("success"));
    }

    #[test]
    fn bench_rejects_unknown_name() {
        assert!(run(&v(&["bench", "nope"])).is_err());
    }

    #[test]
    fn compile_round_trips_through_a_temp_file() {
        let dir = std::env::temp_dir().join("tilt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ghz.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\nqreg q[6];\nh q[0];\ncx q[0], q[5];\n",
        )
        .unwrap();
        let out = run(&v(&["run", path.to_str().unwrap(), "--head", "3"])).unwrap();
        assert!(out.contains("swaps"), "{out}");
        assert!(out.contains("success"), "{out}");
        let out = run(&v(&[
            "run",
            path.to_str().unwrap(),
            "--backend",
            "qccd",
            "--ions-per-trap",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("transports"), "{out}");
    }
}
