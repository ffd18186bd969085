//! Hand-rolled option parsing (no external dependencies).

use std::error::Error;
use std::fmt;
use tilt_engine::overlay::{parse_backend, parse_method, parse_router, parse_scheduler, Overrides};

/// Parsed command-line options shared by all subcommands.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// First positional argument (file path or benchmark name).
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
    /// Parses a subcommand's arguments: one positional target plus flags.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] on missing targets, unknown flags, or
    /// unparseable values.
    pub fn parse(args: &[String]) -> Result<Options, ParseArgsError> {
        let mut opts = Options {
            target: String::new(),
            overrides: Overrides::default(),
            json: false,
            emit_program: false,
            emit_qasm: false,
            batch: false,
            stream: false,
            stream_window: None,
        };
        let o = &mut opts.overrides;
        let mut positional: Vec<&String> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            let mut value = || {
                it.next()
                    .ok_or_else(|| ParseArgsError(format!("{flag} needs a value")))
            };
            match flag {
                "--backend" => o.backend = named(parse_backend(value()?))?,
                "--ions" => o.ions = Some(parse_num(value()?, flag)?),
                "--head" => o.head = Some(parse_num(value()?, flag)?),
                "--ions-per-trap" => o.ions_per_trap = Some(parse_num(value()?, flag)?),
                "--elu-ions" => o.elu_ions = Some(parse_num(value()?, flag)?),
                "--router" => o.router = named(parse_router(value()?))?,
                "--max-swap-len" => o.max_swap_len = Some(parse_num(value()?, flag)?),
                "--alpha" => {
                    let v = value()?;
                    o.alpha = Some(
                        v.parse()
                            .map_err(|_| ParseArgsError(format!("invalid --alpha `{v}`")))?,
                    );
                }
                "--scheduler" => o.scheduler = named(parse_scheduler(value()?))?,
                "--method" => o.method = named(parse_method(value()?))?,
                "--json" => opts.json = true,
                "--emit-program" => opts.emit_program = true,
                "--emit-qasm" => opts.emit_qasm = true,
                "--batch" => opts.batch = true,
                "--stream" => opts.stream = true,
                "--stream-window" => {
                    let w = parse_num(value()?, flag)?;
                    if w == 0 {
                        return Err(ParseArgsError(
                            "--stream-window must be a positive gate count".into(),
                        ));
                    }
                    opts.stream_window = Some(w);
                }
                _ if flag.starts_with("--") => {
                    return Err(ParseArgsError(format!("unknown option `{flag}`")))
                }
                _ => positional.push(arg),
            }
        }
        match positional.as_slice() {
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

/// A parsed name as a set option, with the parser's error.
fn named<T>(parsed: Result<T, String>) -> Result<Option<T>, ParseArgsError> {
    parsed.map(Some).map_err(ParseArgsError)
}

fn parse_num(text: &str, flag: &str) -> Result<usize, ParseArgsError> {
    text.parse()
        .map_err(|_| ParseArgsError(format!("invalid {flag} value `{text}`")))
}

/// Parsed options for the `serve` subcommand (which, unlike the other
/// commands, takes no positional target — requests arrive on the wire).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOptions {
    /// The session engine the flags name, over a 64-ion tape by default.
    pub overrides: Overrides,
    /// In-flight request window (`--window`), 0 = auto (4 × pool
    /// threads, floor 8).
    pub window: usize,
    /// TCP listen address (`--listen host:port`); stdin/stdout when
    /// absent.
    pub listen: Option<String>,
    /// Compile-cache persistence directory (`--cache-dir`): snapshot
    /// entries are reloaded at startup (with digest verification) and
    /// written back at drain. The in-memory cache runs regardless.
    pub cache_dir: Option<String>,
    /// Admission budget: aggregate in-flight run requests across every
    /// connection (`--max-in-flight`), 0 = unlimited. Default 1024.
    pub max_in_flight: usize,
    /// Admission budget: aggregate in-flight request bytes
    /// (`--max-in-flight-bytes`), 0 = unlimited. Default 64 MiB.
    pub max_in_flight_bytes: usize,
    /// Deadline applied to requests that name no `deadline_ms`
    /// (`--default-deadline-ms`), 0 = none.
    pub default_deadline_ms: u64,
}

impl ServeOptions {
    /// Parses `serve` arguments (flags only, no positional target).
    ///
    /// Delegates the shared flag grammar to [`Options::parse`] (with a
    /// synthetic target, since `serve` has none) after extracting the
    /// serve-only flags — one grammar, one place to extend it.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] on unknown flags, missing values,
    /// unparseable numbers, or stray positionals.
    pub fn parse(args: &[String]) -> Result<ServeOptions, ParseArgsError> {
        // Pull out the serve-only flags, hand the rest to the common
        // parser with a synthetic positional target.
        const SYNTHETIC_TARGET: &str = "\u{0}serve";
        let mut opts = ServeOptions {
            overrides: Overrides::default(),
            window: 0,
            listen: None,
            cache_dir: None,
            max_in_flight: 1024,
            max_in_flight_bytes: 64 << 20,
            default_deadline_ms: 0,
        };
        let mut rest: Vec<String> = vec![SYNTHETIC_TARGET.to_string()];
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            let mut value = || {
                it.next()
                    .ok_or_else(|| ParseArgsError(format!("{flag} needs a value")))
            };
            match flag {
                "--window" => opts.window = parse_num(value()?, flag)?,
                "--listen" => opts.listen = Some(value()?.clone()),
                "--cache-dir" => opts.cache_dir = Some(value()?.clone()),
                "--max-in-flight" => opts.max_in_flight = parse_num(value()?, flag)?,
                "--max-in-flight-bytes" => opts.max_in_flight_bytes = parse_num(value()?, flag)?,
                "--default-deadline-ms" => {
                    opts.default_deadline_ms = parse_num(value()?, flag)? as u64;
                }
                _ => rest.push(arg.clone()),
            }
        }
        opts.overrides = Options::parse(&rest)
            .map_err(|e| {
                // The synthetic target makes any real positional a
                // "two targets" error; report it in serve's terms.
                if e.0.starts_with("expected one target") {
                    ParseArgsError("`serve` takes no positional argument".into())
                } else {
                    e
                }
            })?
            .overrides;
        Ok(opts)
    }
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
        let o = Options::parse(&v(&["file.qasm"])).unwrap();
        assert_eq!(o.target, "file.qasm");
        // Nothing named: the engine overlay supplies every default.
        assert_eq!(o.overrides, Overrides::default());
        assert!(!o.emit_program);
    }

    #[test]
    fn full_flag_set() {
        let o = Options::parse(&v(&[
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
        ]))
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
        let o = Options::parse(&v(&["x", "--json"])).unwrap();
        assert!(o.json);
        assert!(!Options::parse(&v(&["x"])).unwrap().json);
    }

    #[test]
    fn stream_flags_parse_and_reject_zero_window() {
        let o = Options::parse(&v(&["x", "--stream", "--stream-window", "4096"])).unwrap();
        assert!(o.stream);
        assert_eq!(o.stream_window, Some(4096));
        let o = Options::parse(&v(&["x", "--backend", "scaled", "--elu-ions", "10"])).unwrap();
        assert_eq!(o.overrides.backend, Some(BackendKind::Scaled));
        assert_eq!(o.overrides.elu_ions, Some(10));
        let o = Options::parse(&v(&["x"])).unwrap();
        assert!(!o.stream);
        assert_eq!(o.overrides.backend, None);
        assert_eq!(o.stream_window, None);
        let e = Options::parse(&v(&["x", "--stream-window", "0"])).unwrap_err();
        assert!(e.0.contains("positive"));
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(Options::parse(&v(&["x", "--bogus"])).is_err());
    }

    #[test]
    fn method_flag_parses_and_rejects_unknowns() {
        let o = Options::parse(&v(&["x", "--method", "stabilizer"])).unwrap();
        assert_eq!(o.overrides.method, Some(SimMethod::Stabilizer));
        let o = Options::parse(&v(&["x"])).unwrap();
        assert_eq!(o.overrides.method, None, "simulation is off by default");
        let e = Options::parse(&v(&["x", "--method", "magic"])).unwrap_err();
        assert!(e.0.contains("unknown method `magic`"));
    }

    #[test]
    fn exact_is_an_unknown_router() {
        // The exact search is studied in the ablation binary and the
        // semantics tests, not driven from the CLI.
        let e = Options::parse(&v(&["x", "--router", "exact"])).unwrap_err();
        assert_eq!(e.0, "unknown router `exact`");
        let e = Options::parse(&v(&["x", "--backend", "qpu9000"])).unwrap_err();
        assert_eq!(e.0, "unknown backend `qpu9000`");
    }

    #[test]
    fn rejects_missing_value() {
        assert!(Options::parse(&v(&["x", "--head"])).is_err());
    }

    #[test]
    fn rejects_bad_number() {
        assert!(Options::parse(&v(&["x", "--head", "lots"])).is_err());
    }

    #[test]
    fn rejects_extra_positionals() {
        assert!(Options::parse(&v(&["a", "b"])).is_err());
    }

    #[test]
    fn serve_options_defaults_and_flags() {
        let o = ServeOptions::parse(&v(&[])).unwrap();
        assert_eq!((o.overrides, o.window), (Overrides::default(), 0));
        assert_eq!(o.listen, None);
        assert_eq!(o.cache_dir, None);
        assert_eq!(o.max_in_flight, 1024);
        assert_eq!(o.max_in_flight_bytes, 64 << 20);
        assert_eq!(o.default_deadline_ms, 0);
        let o = ServeOptions::parse(&v(&[
            "--ions",
            "32",
            "--head",
            "8",
            "--window",
            "16",
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
        ]))
        .unwrap();
        assert_eq!(
            (o.overrides.ions, o.overrides.head, o.window),
            (Some(32), Some(8), 16)
        );
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.overrides.router, Some(RouterName::Stochastic));
        assert_eq!(o.overrides.scheduler, Some(SchedulerKind::NaiveNextGate));
        assert_eq!(o.cache_dir.as_deref(), Some("/tmp/tilt-cache"));
        assert_eq!(o.max_in_flight, 4);
        assert_eq!(o.max_in_flight_bytes, 65536);
        assert_eq!(o.default_deadline_ms, 250);
        assert!(ServeOptions::parse(&v(&["--cache-dir"])).is_err());
        assert!(ServeOptions::parse(&v(&["--max-in-flight", "many"])).is_err());
    }

    #[test]
    fn serve_options_reject_exact_and_positionals() {
        assert!(ServeOptions::parse(&v(&["--router", "exact"])).is_err());
        assert!(ServeOptions::parse(&v(&["file.qasm"])).is_err());
        assert!(ServeOptions::parse(&v(&["--bogus"])).is_err());
    }

    #[test]
    fn router_kind_carries_flags() {
        let o = Options::parse(&v(&["x", "--max-swap-len", "7", "--alpha", "0.5"])).unwrap();
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
}
