//! Hand-rolled option parsing (no external dependencies).

use std::error::Error;
use std::fmt;
use tilt_engine::overlay::{Overrides, Value};

/// Parsed command-line options: one struct, one grammar for every
/// subcommand, each of which accepts the engine flags plus its own.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// First positional argument (file path or benchmark name); empty
    /// for `serve`, whose requests arrive on the wire.
    pub target: String,
    /// What the flags name of the engine (`--backend`, `--ions`,
    /// `--head`, `--router`, ...); the rest comes from the defaults.
    pub overrides: Overrides,
    /// Emit machine-readable JSON instead of human text (`--json`,
    /// `lint` command only).
    pub json: bool,
    /// Print the scheduled op stream (`--emit-program`).
    pub emit_program: bool,
    /// Print the routed circuit as QASM (`--emit-qasm`).
    pub emit_qasm: bool,
    /// Treat the target as a directory of QASM files and run them as
    /// one batch (`--batch`, `run` command only).
    pub batch: bool,
    /// Stream the QASM file through the bounded-memory windowed
    /// pipeline instead of materializing the circuit (`--stream`,
    /// `run` and `lint` commands).
    pub stream: bool,
    /// Input gates per streaming window (`--stream-window`); `None` =
    /// the engine default.
    pub stream_window: Option<usize>,
    /// `serve`: TCP listen address (`--listen`); stdin/stdout if absent.
    pub listen: Option<String>,
    /// `serve`: compile-cache snapshot directory (`--cache-dir`).
    pub cache_dir: Option<String>,
    /// `serve`: in-flight run requests across every connection
    /// (`--max-in-flight`), 0 = unlimited.
    pub max_in_flight: usize,
    /// `serve`: in-flight request bytes (`--max-in-flight-bytes`), 0 =
    /// unlimited.
    pub max_in_flight_bytes: usize,
    /// `serve`: deadline for requests naming none
    /// (`--default-deadline-ms`), 0 = none.
    pub default_deadline_ms: u64,
}

/// Why argument parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for ParseArgsError {}

impl Options {
    /// Parses `command`'s arguments: the engine flags, the flags
    /// `command` reads, and one positional target (none for `serve`,
    /// whose requests arrive on the wire).
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] on missing or stray targets, unknown
    /// flags, flags `command` does not read, or unparseable values.
    pub fn parse(command: &str, args: &[String]) -> Result<Options, ParseArgsError> {
        let mut opts = Options {
            target: String::new(),
            overrides: Overrides::default(),
            json: false,
            emit_program: false,
            emit_qasm: false,
            batch: false,
            stream: false,
            stream_window: None,
            listen: None,
            cache_dir: None,
            max_in_flight: 1024,
            max_in_flight_bytes: 64 << 20,
            default_deadline_ms: 0,
        };
        let o = &mut opts.overrides;
        // Besides the engine's, a command takes only the flags it reads.
        let (run, lint, serve) = (command == "run", command == "lint", command == "serve");
        let mut positional: Vec<&String> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            let mut value = || {
                it.next()
                    .ok_or_else(|| ParseArgsError(format!("{flag} needs a value")))
            };
            match flag {
                "--backend" | "--ions" | "--head" | "--ions-per-trap" | "--elu-ions"
                | "--router" | "--max-swap-len" | "--alpha" | "--scheduler" | "--method" => {
                    let key = flag[2..].replace('-', "_");
                    o.set(&key, Value::Arg(value()?)).map_err(ParseArgsError)?;
                }
                "--json" if lint => opts.json = true,
                "--emit-program" if run => opts.emit_program = true,
                "--emit-qasm" if run => opts.emit_qasm = true,
                "--batch" if run => opts.batch = true,
                "--stream" if run || lint => opts.stream = true,
                "--stream-window" if run || lint => {
                    let w = parse_num(value()?, flag)?;
                    if w == 0 {
                        return Err(ParseArgsError(
                            "--stream-window must be a positive gate count".into(),
                        ));
                    }
                    opts.stream_window = Some(w);
                }
                "--listen" if serve => opts.listen = Some(value()?.clone()),
                "--cache-dir" if serve => opts.cache_dir = Some(value()?.clone()),
                "--max-in-flight" if serve => opts.max_in_flight = parse_num(value()?, flag)?,
                "--max-in-flight-bytes" if serve => {
                    opts.max_in_flight_bytes = parse_num(value()?, flag)?;
                }
                "--default-deadline-ms" if serve => {
                    opts.default_deadline_ms = parse_num(value()?, flag)? as u64;
                }
                "--json"
                | "--emit-program"
                | "--emit-qasm"
                | "--batch"
                | "--stream"
                | "--stream-window"
                | "--listen"
                | "--cache-dir"
                | "--max-in-flight"
                | "--max-in-flight-bytes"
                | "--default-deadline-ms" => {
                    return Err(ParseArgsError(format!(
                        "`{flag}` does not apply to `{command}`"
                    )))
                }
                _ if flag.starts_with("--") => {
                    return Err(ParseArgsError(format!("unknown option `{flag}`")))
                }
                _ => positional.push(arg),
            }
        }
        match positional.as_slice() {
            [] if serve => Ok(opts),
            _ if serve => Err(ParseArgsError(
                "`serve` takes no positional argument".into(),
            )),
            [target] => {
                opts.target = (*target).clone();
                Ok(opts)
            }
            [] => Err(ParseArgsError("missing target argument".into())),
            more => Err(ParseArgsError(format!(
                "expected one target, got {}",
                more.len()
            ))),
        }
    }
}

fn parse_num(text: &str, flag: &str) -> Result<usize, ParseArgsError> {
    text.parse()
        .map_err(|_| ParseArgsError(format!("invalid {flag} value `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_compiler::SchedulerKind;
    use tilt_engine::{BackendKind, RouterName, SimMethod};

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn defaults() {
        let o = Options::parse("run", &v(&["file.qasm"])).unwrap();
        assert_eq!(o.target, "file.qasm");
        // Nothing named: the engine overlay supplies every default.
        assert_eq!(o.overrides, Overrides::default());
        assert!(!o.emit_program);
    }

    #[test]
    fn full_flag_set() {
        let o = Options::parse(
            "run",
            &v(&[
                "x.qasm",
                "--ions",
                "64",
                "--head",
                "32",
                "--router",
                "stochastic",
                "--max-swap-len",
                "9",
                "--alpha",
                "0.7",
                "--scheduler",
                "naive",
                "--emit-program",
                "--emit-qasm",
            ]),
        )
        .unwrap();
        let o_ = o.overrides;
        assert_eq!(o_.ions, Some(64));
        assert_eq!(o_.head, Some(32));
        assert_eq!(o_.router, Some(RouterName::Stochastic));
        assert_eq!(o_.max_swap_len, Some(9));
        assert_eq!(o_.alpha, Some(0.7));
        assert_eq!(o_.scheduler, Some(SchedulerKind::NaiveNextGate));
        assert!(o.emit_program && o.emit_qasm);
    }

    #[test]
    fn json_flag_parses() {
        let o = Options::parse("lint", &v(&["x", "--json"])).unwrap();
        assert!(o.json);
        assert!(!Options::parse("lint", &v(&["x"])).unwrap().json);
    }

    #[test]
    fn stream_flags_parse_and_reject_zero_window() {
        let o = Options::parse("run", &v(&["x", "--stream", "--stream-window", "4096"])).unwrap();
        assert!(o.stream);
        assert_eq!(o.stream_window, Some(4096));
        let o =
            Options::parse("run", &v(&["x", "--backend", "scaled", "--elu-ions", "10"])).unwrap();
        assert_eq!(o.overrides.backend, Some(BackendKind::Scaled));
        assert_eq!(o.overrides.elu_ions, Some(10));
        let o = Options::parse("run", &v(&["x"])).unwrap();
        assert!(!o.stream);
        assert_eq!(o.overrides.backend, None);
        assert_eq!(o.stream_window, None);
        let e = Options::parse("run", &v(&["x", "--stream-window", "0"])).unwrap_err();
        assert!(e.0.contains("positive"));
    }

    #[test]
    fn each_command_refuses_the_flags_it_does_not_read() {
        let refused: [(&str, &[&str]); 6] = [
            ("run", &["x", "--json"]),
            ("lint", &["x", "--emit-program"]),
            ("timeline", &["x", "--stream"]),
            ("bench", &["all", "--batch"]),
            ("serve", &["--emit-qasm"]),
            ("run", &["x", "--listen", "127.0.0.1:0"]),
        ];
        for (command, args) in refused {
            let e = Options::parse(command, &v(args)).unwrap_err();
            let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
            assert_eq!(e.0, format!("`{flag}` does not apply to `{command}`"));
        }
        // Each command still takes every flag of its own.
        let accepted: [(&str, &[&str]); 3] = [
            (
                "run",
                &["--emit-program", "--emit-qasm", "--batch", "--stream"],
            ),
            ("lint", &["--json", "--stream", "--stream-window", "3"]),
            ("serve", &["--listen", "h:0", "--cache-dir", "d"]),
        ];
        for (command, flags) in accepted {
            let mut args = if command == "serve" {
                vec![]
            } else {
                vec!["x"]
            };
            args.extend(flags);
            let parsed = Options::parse(command, &v(&args));
            assert!(parsed.is_ok(), "{command} {args:?}: {parsed:?}");
        }
        let serve = ["--max-in-flight", "1", "--max-in-flight-bytes", "1"];
        let o = Options::parse("serve", &v(&serve)).unwrap();
        assert_eq!((o.max_in_flight, o.max_in_flight_bytes), (1, 1));
        let o = Options::parse("serve", &v(&["--default-deadline-ms", "5"])).unwrap();
        assert_eq!(o.default_deadline_ms, 5);
        let o = Options::parse("run", &v(&["x", "--stream-window", "5"])).unwrap();
        assert_eq!(o.stream_window, Some(5));
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(Options::parse("run", &v(&["x", "--bogus"])).is_err());
    }

    #[test]
    fn method_flag_parses_and_rejects_unknowns() {
        let o = Options::parse("run", &v(&["x", "--method", "stabilizer"])).unwrap();
        assert_eq!(o.overrides.method, Some(SimMethod::Stabilizer));
        let o = Options::parse("run", &v(&["x"])).unwrap();
        assert_eq!(o.overrides.method, None, "simulation is off by default");
        let e = Options::parse("run", &v(&["x", "--method", "magic"])).unwrap_err();
        assert!(e.0.contains("unknown method `magic`"));
    }

    #[test]
    fn exact_is_an_unknown_router() {
        // The exact search is studied in the ablation binary and the
        // semantics tests, not driven from the CLI.
        let e = Options::parse("run", &v(&["x", "--router", "exact"])).unwrap_err();
        assert_eq!(e.0, "unknown router `exact`");
        let e = Options::parse("run", &v(&["x", "--backend", "qpu9000"])).unwrap_err();
        assert_eq!(e.0, "unknown backend `qpu9000`");
    }

    #[test]
    fn rejects_missing_value() {
        assert!(Options::parse("run", &v(&["x", "--head"])).is_err());
    }

    #[test]
    fn rejects_bad_number() {
        assert!(Options::parse("run", &v(&["x", "--head", "lots"])).is_err());
    }

    #[test]
    fn rejects_extra_positionals() {
        assert!(Options::parse("run", &v(&["a", "b"])).is_err());
    }

    #[test]
    fn serve_options_defaults_and_flags() {
        let o = Options::parse("serve", &v(&[])).unwrap();
        assert_eq!(o.overrides, Overrides::default());
        assert_eq!(o.listen, None);
        assert_eq!(o.cache_dir, None);
        assert_eq!(o.max_in_flight, 1024);
        assert_eq!(o.max_in_flight_bytes, 64 << 20);
        assert_eq!(o.default_deadline_ms, 0);
        let o = Options::parse(
            "serve",
            &v(&[
                "--ions",
                "32",
                "--head",
                "8",
                "--listen",
                "127.0.0.1:0",
                "--router",
                "stochastic",
                "--scheduler",
                "naive",
                "--cache-dir",
                "/tmp/tilt-cache",
                "--max-in-flight",
                "4",
                "--max-in-flight-bytes",
                "65536",
                "--default-deadline-ms",
                "250",
            ]),
        )
        .unwrap();
        assert_eq!((o.overrides.ions, o.overrides.head), (Some(32), Some(8)));
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.overrides.router, Some(RouterName::Stochastic));
        assert_eq!(o.overrides.scheduler, Some(SchedulerKind::NaiveNextGate));
        assert_eq!(o.cache_dir.as_deref(), Some("/tmp/tilt-cache"));
        assert_eq!(o.max_in_flight, 4);
        assert_eq!(o.max_in_flight_bytes, 65536);
        assert_eq!(o.default_deadline_ms, 250);
        assert!(Options::parse("serve", &v(&["--cache-dir"])).is_err());
        assert!(Options::parse("serve", &v(&["--max-in-flight", "many"])).is_err());
    }

    #[test]
    fn serve_options_reject_exact_and_positionals() {
        assert!(Options::parse("serve", &v(&["--router", "exact"])).is_err());
        assert!(Options::parse("serve", &v(&["file.qasm"])).is_err());
        assert!(Options::parse("serve", &v(&["--bogus"])).is_err());
    }

    #[test]
    fn router_kind_carries_flags() {
        let o = Options::parse("run", &v(&["x", "--max-swap-len", "7", "--alpha", "0.5"])).unwrap();
        assert_eq!(o.overrides.max_swap_len, Some(7));
        assert_eq!(o.overrides.alpha, Some(0.5));
        // The overlay turns the knobs into the LinQ router the engine runs.
        let fp = |b: tilt_engine::EngineBuilder| b.build().unwrap().config_fingerprint();
        let spec = tilt_engine::Backend::Tilt(tilt_compiler::DeviceSpec::tilt64(16));
        let linq = tilt_compiler::route::LinqConfig {
            max_swap_len: Some(7),
            alpha: 0.5,
            ..Default::default()
        };
        assert_eq!(
            fp(tilt_engine::Engine::builder()
                .overlay(&o.overrides, 64)
                .unwrap()),
            fp(tilt_engine::Engine::builder()
                .backend(spec)
                .router(tilt_compiler::RouterKind::Linq(linq)))
        );
    }

    /// Every option the CLI accepts decodes through the one table in
    /// `Overrides::set`: a flag and the same wire field build engines
    /// with one config fingerprint, and both surfaces reject the same
    /// malformed values.
    #[test]
    fn every_option_decodes_alike_on_the_cli_and_the_wire() {
        use std::sync::Arc;
        use tilt_engine::{CacheKey, CompileCache, Engine, Service};
        use tilt_report::Json;

        let qasm = "qreg q[16];\nh q[0];\ncx q[0], q[15];\n";
        let circuit = tilt_circuit::qasm::parse_qasm(qasm).unwrap();
        let width = circuit.n_qubits();
        let cli = |flags: &[&str]| -> Result<Engine, String> {
            let mut args = vec!["x"];
            args.extend(flags);
            let o = Options::parse("run", &v(&args)).map_err(|e| e.0)?;
            let builder = Engine::builder().overlay(&o.overrides, width)?;
            builder.build().map_err(|e| e.to_string())
        };
        // One request through a service over the CLI's default session;
        // the cache it fills names the config its engine compiled under.
        let wire = |fields: &str| {
            let cache = Arc::new(CompileCache::default());
            let session = Engine::builder()
                .overlay(&Overrides::default(), width)
                .unwrap()
                .compile_cache(Arc::clone(&cache));
            let qasm = Json::from(qasm).render();
            let line = format!("{{{fields},\"qasm\":{qasm}}}\n");
            let mut out = Vec::new();
            Service::new(session)
                .unwrap()
                .serve(std::io::Cursor::new(line), &mut out, None)
                .unwrap();
            let resp = Json::parse(String::from_utf8(out).unwrap().trim()).unwrap();
            (resp, cache)
        };
        let default = cli(&[]).unwrap().config_fingerprint();
        let valid: [(&[&str], &str); 12] = [
            (&["--backend", "qccd"], r#""backend":"qccd""#),
            (&["--backend", "scaled"], r#""backend":"scaled""#),
            (&["--ions", "20"], r#""ions":20"#),
            (&["--head", "4"], r#""head":4"#),
            (
                &["--backend", "qccd", "--ions-per-trap", "5"],
                r#""backend":"qccd","ions_per_trap":5"#,
            ),
            (
                &["--backend", "scaled", "--elu-ions", "10"],
                r#""backend":"scaled","elu_ions":10"#,
            ),
            (&["--router", "stochastic"], r#""router":"stochastic""#),
            (&["--router", "baseline"], r#""router":"baseline""#),
            (&["--max-swap-len", "3"], r#""max_swap_len":3"#),
            (&["--alpha", "0.5"], r#""alpha":0.5"#),
            (&["--scheduler", "naive"], r#""scheduler":"naive""#),
            (&["--method", "stabilizer"], r#""method":"stabilizer""#),
        ];
        let mut flags_seen = Vec::new();
        for (flags, fields) in valid {
            let fp = cli(flags).unwrap().config_fingerprint();
            assert_ne!(fp, default, "{flags:?} changes nothing");
            let (resp, cache) = wire(fields);
            assert_eq!(
                resp.get("ok"),
                Some(&Json::Bool(true)),
                "{fields}: {resp:?}"
            );
            let key = CacheKey {
                circuit: cache.circuit_key(&circuit),
                config: fp,
            };
            assert!(
                cache.peek_wire(key).is_some(),
                "{flags:?} and {fields} build different engines"
            );
            flags_seen.extend(flags.iter().filter(|f| f.starts_with("--")));
        }
        let malformed = [
            ("--backend", "qpu9000", r#""qpu9000""#),
            ("--backend", "4", "4"),
            ("--ions", "lots", r#""lots""#),
            ("--ions", "-1", "-1"),
            ("--ions", "1", "1"),
            ("--head", "2.5", "2.5"),
            ("--ions-per-trap", "x", r#""x""#),
            ("--elu-ions", "-2", "-2"),
            ("--router", "exact", r#""exact""#),
            ("--max-swap-len", "1.5", "1.5"),
            ("--alpha", "fast", r#""fast""#),
            ("--alpha", "1.5", "1.5"),
            ("--scheduler", "lazy", r#""lazy""#),
            ("--method", "magic", r#""magic""#),
        ];
        for (flag, text, json) in malformed {
            assert!(cli(&[flag, text]).is_err(), "CLI accepts {flag} {text}");
            let key = flag[2..].replace('-', "_");
            let (resp, _) = wire(&format!("\"{key}\":{json}"));
            let kind = resp.get_path("error.kind").and_then(Json::as_str);
            assert_eq!(kind, Some("invalid_request"), "{key}: {json}: {resp:?}");
        }
        // Another backend's dimension is refused with one text, not
        // silently dropped.
        let inapplicable: [(&[&str], &str, &str); 4] = [
            (
                &["--ions-per-trap", "5"],
                r#""ions_per_trap":5"#,
                "`ions_per_trap` does not apply to the tilt backend",
            ),
            (
                &["--backend", "scaled", "--ions-per-trap", "5"],
                r#""backend":"scaled","ions_per_trap":5"#,
                "`ions_per_trap` does not apply to the scaled backend",
            ),
            (
                &["--elu-ions", "10"],
                r#""elu_ions":10"#,
                "`elu_ions` does not apply to the tilt backend",
            ),
            (
                &["--backend", "qccd", "--elu-ions", "10"],
                r#""backend":"qccd","elu_ions":10"#,
                "`elu_ions` does not apply to the qccd backend",
            ),
        ];
        for (flags, fields, want) in inapplicable {
            let e = cli(flags).err();
            assert!(
                e.as_deref().is_some_and(|e| e.contains(want)),
                "{flags:?}: {e:?}"
            );
            let (resp, _) = wire(fields);
            let kind = resp.get_path("error.kind").and_then(Json::as_str);
            assert_eq!(kind, Some("invalid_request"), "{fields}: {resp:?}");
            let message = resp.get_path("error.message").and_then(Json::as_str);
            assert!(
                message.is_some_and(|m| m.contains(want)),
                "{fields}: {resp:?}"
            );
        }
        // Every decoder name is a CLI flag covered above, or wire-only.
        for key in tilt_engine::overlay::KEYS {
            let flag = format!("--{}", key.replace('_', "-"));
            if matches!(key, "verify" | "noise") {
                let e = Options::parse("run", &v(&["x", &flag, "strict"])).unwrap_err();
                assert_eq!(e.0, format!("unknown option `{flag}`"));
            } else {
                assert!(flags_seen.contains(&flag.as_str()), "{flag} is not covered");
            }
        }
    }
}
