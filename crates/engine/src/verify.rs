//! Static verification riding along with every run.
//!
//! A session can ask the engine to re-check each compiled artifact
//! against the program invariants its backend promises — operands
//! inside the head span, swap chains under the router's cap, shuttle
//! routes that actually connect, comm ions reset between
//! teleportations. The rule packs themselves live next to the compilers
//! they audit ([`tilt_compiler::verify`], `tilt_qccd::verify`,
//! [`tilt_scale::verify`]). Each pack is a fold that the backend's pass
//! feeds as it compiles, so a streamed run reports what `run` reports.
//! This module decides what a finding *means*:
//!
//! * [`VerifyLevel::Off`] (default) — no checking; report shapes stay
//!   bit-identical to pre-verifier sessions.
//! * [`VerifyLevel::Warn`] — run the pack, attach every finding to
//!   [`RunReport::diagnostics`](crate::RunReport::diagnostics), succeed
//!   anyway.
//! * [`VerifyLevel::Strict`] — like `Warn`, but any error-severity
//!   finding fails the run with [`TiltError::Verify`], streamed or not.
//!
//! The level is folded into the session's config fingerprint (when not
//! `Off`), so a session at one level never answers from an entry
//! another level recorded.

use crate::error::TiltError;
use tilt_compiler::verify::{Diagnostic, Severity};

/// How much the session cares about verifier findings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum VerifyLevel {
    /// Skip verification entirely (the default).
    #[default]
    Off,
    /// Verify and attach diagnostics, but never fail a run over them.
    Warn,
    /// Verify and fail the run on any error-severity diagnostic.
    Strict,
}

impl VerifyLevel {
    /// Parses the wire/CLI spelling.
    pub fn parse(name: &str) -> Option<VerifyLevel> {
        [VerifyLevel::Off, VerifyLevel::Warn, VerifyLevel::Strict]
            .into_iter()
            .find(|l| l.to_string() == name)
    }

    /// Stable tag for config fingerprinting.
    pub(crate) fn tag(self) -> u8 {
        match self {
            VerifyLevel::Off => 0,
            VerifyLevel::Warn => 1,
            VerifyLevel::Strict => 2,
        }
    }
}

impl std::fmt::Display for VerifyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VerifyLevel::Off => "off",
            VerifyLevel::Warn => "warn",
            VerifyLevel::Strict => "strict",
        })
    }
}

/// Applies the session's `level` to a run's findings, `None` when the
/// session does not verify: under [`VerifyLevel::Strict`] any
/// error-severity finding fails the run.
pub(crate) fn enforce(
    level: VerifyLevel,
    found: Option<Vec<Diagnostic>>,
) -> Result<Vec<Diagnostic>, TiltError> {
    let diags = found.unwrap_or_default();
    if level == VerifyLevel::Strict {
        if let Some(first) = diags.iter().find(|d| d.severity == Severity::Error) {
            return Err(TiltError::Verify {
                count: diags.len(),
                first: first.to_string(),
            });
        }
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_spellings_round_trip() {
        for l in [VerifyLevel::Off, VerifyLevel::Warn, VerifyLevel::Strict] {
            assert_eq!(VerifyLevel::parse(&l.to_string()), Some(l));
        }
        assert_eq!(VerifyLevel::parse("pedantic"), None);
    }

    #[test]
    fn tags_are_distinct() {
        assert_ne!(VerifyLevel::Off.tag(), VerifyLevel::Warn.tag());
        assert_ne!(VerifyLevel::Warn.tag(), VerifyLevel::Strict.tag());
    }
}
