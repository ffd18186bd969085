//! Library backing the `tilt-cli` binary.
//!
//! The command surface mirrors the LinQ toolflow (Fig. 4 of the paper):
//!
//! ```text
//! tilt-cli run      <file.qasm> [options]   # compile + simulate via the Engine session API
//! tilt-cli run      <dir> --batch [options] # a directory of circuits as one batch
//! tilt-cli compile  <file.qasm> [options]   # run the pipeline, print metrics
//! tilt-cli simulate <file.qasm> [options]   # + success rate and exec time
//! tilt-cli lint     <file.qasm> [options]   # statically verify the compiled program
//! tilt-cli qccd     <file.qasm> [options]   # route on the QCCD comparator
//! tilt-cli bench    <name|all>  [options]   # run a paper benchmark by name
//! tilt-cli serve    [options]               # JSON-lines compile service (stdin/stdout or TCP)
//! ```
//!
//! All logic lives here (string in, string out) so the whole surface is
//! unit-testable without spawning processes.

mod args;
mod commands;

pub use args::{Options, ParseArgsError};

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage: tilt-cli <command> [arguments] [options]

commands:
  run      <file.qasm>   compile + simulate through the Engine session API
  run      <dir> --batch every .qasm in <dir> as one batch, one row per circuit
  run  <file> --stream   bounded-memory streaming compile: O(window) peak
                         memory, built for million-gate files
  compile  <file.qasm>   compile for a TILT machine and print LinQ metrics
  simulate <file.qasm>   compile, then estimate success rate and exec time
  timeline <file.qasm>   compile and draw the tape-head trajectory
  lint     <file.qasm>   compile and statically verify the program
                         invariants (--json for machine-readable output;
                         exits nonzero on any error-severity finding;
                         --stream runs every rule on the streaming
                         pipeline at O(window) memory, with the same
                         findings; --scaled lints the ELU-array backend)
  qccd     <file.qasm>   route on the QCCD comparator architecture
  scale    <file.qasm>   split across MUSIQC-style TILT modules (ELUs)
  bench    <name|all>    run a paper benchmark (adder, bv, qaoa, rcs, qft, sqrt)
  serve                  long-running JSON-lines compile service over the
                         Engine session (stdin/stdout; --listen host:port for
                         TCP; --window N caps in-flight requests)

options:
  --ions N              tape length (default: circuit width)
  --head L              laser-head size (default: 16)
  --router R            linq | stochastic | exact (default: linq)
  --max-swap-len K      cap inserted swap spans (default: L-1)
  --alpha A             Eq. 1 look-ahead decay (default: 0.9)
  --scheduler S         greedy | naive (default: greedy)
  --ions-per-trap N     QCCD trap size (default: 17)
  --elu-ions N          ions per ELU for `scale` (default: 18)
  --json                lint: emit diagnostics as a JSON array
  --emit-program        print the scheduled gate/move stream
  --emit-qasm           print the routed physical circuit as OpenQASM
  --batch               treat the run target as a directory of .qasm files
  --stream              run/lint: stream the QASM through the windowed
                        pipeline without materializing the circuit
  --scaled              lint: verify against the ELU-array backend
                        (geometry from --elu-ions/--head, as for scale)
  --stream-window N     input gates per streaming window (default: 65536)
  --window N            serve: max in-flight requests (default: 4 x threads)
  --listen HOST:PORT    serve: accept TCP connections instead of stdin/stdout
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
        "compile" => commands::compile(rest),
        "simulate" => commands::simulate(rest),
        "timeline" => commands::timeline(rest),
        "lint" => commands::lint(rest),
        "qccd" => commands::qccd(rest),
        "scale" => commands::scale(rest),
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
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&v(&["help"])).unwrap();
        assert!(out.contains("usage:"));
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
        let out = run(&v(&["compile", path.to_str().unwrap(), "--head", "3"])).unwrap();
        assert!(out.contains("swaps"), "{out}");
        let out = run(&v(&[
            "simulate",
            path.to_str().unwrap(),
            "--head",
            "3",
            "--router",
            "exact",
        ]))
        .unwrap();
        assert!(out.contains("success"), "{out}");
        let out = run(&v(&[
            "qccd",
            path.to_str().unwrap(),
            "--ions-per-trap",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("transports"), "{out}");
    }
}
