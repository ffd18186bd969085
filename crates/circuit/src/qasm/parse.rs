//! OpenQASM 2.0 parsing.
//!
//! Supports the subset the emitter produces plus common variants: a single
//! quantum register, the `qelib1` gates used by the benchmarks
//! (`h x y z s sdg t tdg sx sy rx ry rz cx cz cp/cu1 rzz rxx swap ccx id`),
//! `measure`, `barrier`, custom `gate` definition blocks (skipped — the
//! built-in semantics are used), and arithmetic angle expressions over
//! `pi` with `+ - * /` and parentheses.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::qubit::Qubit;
use std::error::Error;
use std::fmt;

/// Why a QASM program failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseQasmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QASM parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseQasmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseQasmError> {
    Err(ParseQasmError {
        line,
        message: message.into(),
    })
}

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on unknown gates, malformed statements,
/// multiple quantum registers, out-of-range qubit indices, or invalid
/// angle expressions.
///
/// # Example
///
/// ```
/// use tilt_circuit::qasm::parse_qasm;
///
/// let c = parse_qasm(
///     "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0], q[2];\n",
/// )?;
/// assert_eq!(c.n_qubits(), 3);
/// assert_eq!(c.two_qubit_count(), 1);
/// # Ok::<(), tilt_circuit::qasm::ParseQasmError>(())
/// ```
pub fn parse_qasm(source: &str) -> Result<Circuit, ParseQasmError> {
    let mut n_qubits: Option<usize> = None;
    let mut gates: Vec<Gate> = Vec::new();
    let mut in_gate_def = false;

    for (lineno, line) in source.lines().enumerate() {
        for stmt in statements(line, &mut in_gate_def) {
            parse_statement(stmt, lineno + 1, &mut n_qubits, &mut gates)?;
        }
    }

    let n = match n_qubits {
        Some(n) => n,
        None if gates.is_empty() => 0,
        None => return err(1, "no qreg declaration found"),
    };
    Ok(Circuit::from_gates(n, gates))
}

/// The statements of one source line: line comment stripped, split on
/// `;`. Custom gate-definition bodies are skipped (we know the semantics
/// of the gates the emitter defines); `in_gate_def` carries an open body
/// across lines.
pub(super) fn statements<'l>(
    line: &'l str,
    in_gate_def: &mut bool,
) -> impl Iterator<Item = &'l str> {
    let line = line.find("//").map_or(line, |i| &line[..i]);
    let skip = *in_gate_def || line.trim().starts_with("gate ");
    if skip {
        *in_gate_def = !line.contains('}');
    }
    line.split(';')
        .map(str::trim)
        .filter(move |stmt| !skip && !stmt.is_empty())
}

pub(super) fn parse_statement(
    stmt: &str,
    line: usize,
    n_qubits: &mut Option<usize>,
    gates: &mut Vec<Gate>,
) -> Result<(), ParseQasmError> {
    if stmt.starts_with("OPENQASM") || stmt.starts_with("include") || stmt.starts_with("creg") {
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("qreg") {
        let (_, size) = parse_register_ref(rest, line)?;
        let size = size.ok_or_else(|| ParseQasmError {
            line,
            message: "qreg needs an explicit size".into(),
        })?;
        if n_qubits.replace(size).is_some() {
            return err(line, "multiple quantum registers are not supported");
        }
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("measure") {
        // `measure q[i] -> c[i]` or `measure q -> c`.
        let target = rest.split("->").next().unwrap_or("");
        let (_, index) = parse_register_ref(target, line)?;
        match index {
            Some(i) => gates.push(Gate::Measure(Qubit(i))),
            None => {
                let n = n_qubits.ok_or_else(|| ParseQasmError {
                    line,
                    message: "measure before qreg".into(),
                })?;
                gates.extend((0..n).map(|i| Gate::Measure(Qubit(i))));
            }
        }
        return Ok(());
    }
    if stmt.starts_with("barrier") {
        gates.push(Gate::Barrier);
        return Ok(());
    }

    // General gate application: name[(params)] operand[, operand...]
    let (head, operand_text) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(i) if !stmt[..i].contains('(') || stmt[..i].contains(')') => (&stmt[..i], &stmt[i..]),
        _ => match stmt.find(')') {
            // Parameterized with possible space inside parens.
            Some(i) => (&stmt[..=i], &stmt[i + 1..]),
            None => return err(line, format!("malformed statement `{stmt}`")),
        },
    };

    let (name, params) = match head.find('(') {
        Some(i) => {
            let close = head.rfind(')').ok_or_else(|| ParseQasmError {
                line,
                message: format!("unclosed parameter list in `{head}`"),
            })?;
            (&head[..i], parse_params(&head[i + 1..close], line)?)
        }
        None => (head, Params::default()),
    };
    let name = name.trim();

    // Fixed-capacity operand list: the service parses millions of these
    // statements, and a heap `Vec` per gate dominated the hot path.
    let mut operands = [Qubit(0); 3];
    let mut n_operands = 0usize;
    for part in operand_text.split(',') {
        if part.trim().is_empty() {
            continue;
        }
        let (_, index) = parse_register_ref(part, line)?;
        let index = index.ok_or_else(|| ParseQasmError {
            line,
            message: format!("whole-register operand `{part}` not supported here"),
        })?;
        if n_operands == operands.len() {
            return err(line, format!("too many operands for `{name}`"));
        }
        operands[n_operands] = Qubit(index);
        n_operands += 1;
    }

    let angle = |k: usize| -> Result<f64, ParseQasmError> {
        params.get(k).ok_or_else(|| ParseQasmError {
            line,
            message: format!("`{name}` expects an angle parameter"),
        })
    };
    let op = |k: usize| -> Result<Qubit, ParseQasmError> {
        if k < n_operands {
            Ok(operands[k])
        } else {
            Err(ParseQasmError {
                line,
                message: format!("`{name}` expects at least {} operand(s)", k + 1),
            })
        }
    };

    let gate = match name {
        "h" => Gate::H(op(0)?),
        "x" => Gate::X(op(0)?),
        "y" => Gate::Y(op(0)?),
        "z" => Gate::Z(op(0)?),
        "s" => Gate::S(op(0)?),
        "sdg" => Gate::Sdg(op(0)?),
        "t" => Gate::T(op(0)?),
        "tdg" => Gate::Tdg(op(0)?),
        "sx" => Gate::SqrtX(op(0)?),
        "sy" => Gate::SqrtY(op(0)?),
        "rx" => Gate::Rx(op(0)?, angle(0)?),
        "ry" => Gate::Ry(op(0)?, angle(0)?),
        "rz" | "u1" => Gate::Rz(op(0)?, angle(0)?),
        "cx" | "CX" => Gate::Cnot(op(0)?, op(1)?),
        "cz" => Gate::Cz(op(0)?, op(1)?),
        "cp" | "cu1" => Gate::Cphase(op(0)?, op(1)?, angle(0)?),
        "rzz" => Gate::Zz(op(0)?, op(1)?, angle(0)?),
        "rxx" => Gate::Xx(op(0)?, op(1)?, angle(0)?),
        "swap" => Gate::Swap(op(0)?, op(1)?),
        "ccx" => Gate::Toffoli(op(0)?, op(1)?, op(2)?),
        "reset" => Gate::Reset(op(0)?),
        "id" => return Ok(()),
        other => return err(line, format!("unknown gate `{other}`")),
    };
    if let Some(n) = *n_qubits {
        for q in gate.operands().iter() {
            if q.index() >= n {
                return err(
                    line,
                    format!("qubit {} outside qreg of size {n}", q.index()),
                );
            }
        }
    }
    gates.push(gate);
    Ok(())
}

/// Parses `name` or `name[index]`, returning the (borrowed) register
/// name and the optional index. Allocation-free: this runs once per
/// operand of every statement.
fn parse_register_ref(text: &str, line: usize) -> Result<(&str, Option<usize>), ParseQasmError> {
    let text = text.trim();
    match text.find('[') {
        Some(i) => {
            let close = text.rfind(']').ok_or_else(|| ParseQasmError {
                line,
                message: format!("unclosed index in `{text}`"),
            })?;
            if close <= i {
                return Err(ParseQasmError {
                    line,
                    message: format!("malformed register reference `{text}`"),
                });
            }
            let index: usize = text[i + 1..close]
                .trim()
                .parse()
                .map_err(|_| ParseQasmError {
                    line,
                    message: format!("invalid index in `{text}`"),
                })?;
            Ok((text[..i].trim_end(), Some(index)))
        }
        None => Ok((text, None)),
    }
}

/// Fixed-capacity parameter list (no `qelib1` gate takes more than
/// three angles; ours take at most one).
#[derive(Default)]
struct Params {
    values: [f64; 3],
    len: usize,
}

impl Params {
    fn get(&self, k: usize) -> Option<f64> {
        (k < self.len).then(|| self.values[k])
    }
}

fn parse_params(text: &str, line: usize) -> Result<Params, ParseQasmError> {
    let mut params = Params::default();
    for part in text.split(',') {
        if params.len == params.values.len() {
            return err(line, format!("too many parameters in `{text}`"));
        }
        let part = part.trim();
        // Fast path: the emitter (and every mainstream toolchain)
        // writes plain decimal angles; the expression grammar only
        // runs for symbolic forms like `pi/2`.
        let raw = match part.parse::<f64>() {
            Ok(v) if v.is_finite() => v,
            _ => parse_angle_expr(part, line)?,
        };
        // Canonicalize so equivalent spellings (`rz(-3*pi/2)` vs
        // `rz(pi/2)`) build bit-identical gates — and therefore the
        // same circuit digest, cache key, and simulator selection.
        params.values[params.len] = crate::clifford::normalize_angle(raw);
        params.len += 1;
    }
    Ok(params)
}

/// Tiny recursive-descent parser for angle expressions:
/// `expr := term (('+'|'-') term)*`, `term := factor (('*'|'/') factor)*`,
/// `factor := ['-'] (number | 'pi' | '(' expr ')')`.
fn parse_angle_expr(text: &str, line: usize) -> Result<f64, ParseQasmError> {
    struct P<'a> {
        chars: std::iter::Peekable<std::str::Chars<'a>>,
        line: usize,
    }
    impl P<'_> {
        fn skip_ws(&mut self) {
            while self.chars.peek().is_some_and(|c| c.is_whitespace()) {
                self.chars.next();
            }
        }
        fn expr(&mut self) -> Result<f64, ParseQasmError> {
            let mut v = self.term()?;
            loop {
                self.skip_ws();
                match self.chars.peek() {
                    Some('+') => {
                        self.chars.next();
                        v += self.term()?;
                    }
                    Some('-') => {
                        self.chars.next();
                        v -= self.term()?;
                    }
                    _ => return Ok(v),
                }
            }
        }
        fn term(&mut self) -> Result<f64, ParseQasmError> {
            let mut v = self.factor()?;
            loop {
                self.skip_ws();
                match self.chars.peek() {
                    Some('*') => {
                        self.chars.next();
                        v *= self.factor()?;
                    }
                    Some('/') => {
                        self.chars.next();
                        v /= self.factor()?;
                    }
                    _ => return Ok(v),
                }
            }
        }
        fn factor(&mut self) -> Result<f64, ParseQasmError> {
            self.skip_ws();
            match self.chars.peek() {
                Some('-') => {
                    self.chars.next();
                    Ok(-self.factor()?)
                }
                Some('(') => {
                    self.chars.next();
                    let v = self.expr()?;
                    self.skip_ws();
                    if self.chars.next() != Some(')') {
                        return err(self.line, "expected `)` in angle expression");
                    }
                    Ok(v)
                }
                Some('p') | Some('P') => {
                    let p = self.chars.next();
                    let i = self.chars.next();
                    if !matches!((p, i), (Some('p') | Some('P'), Some('i') | Some('I'))) {
                        return err(self.line, "expected `pi`");
                    }
                    Ok(std::f64::consts::PI)
                }
                Some(c) if c.is_ascii_digit() || *c == '.' => {
                    let mut num = String::new();
                    while let Some(&c) = self.chars.peek() {
                        let exp_sign = (c == '+' || c == '-') && num.ends_with(['e', 'E']);
                        if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || exp_sign {
                            num.push(c);
                            self.chars.next();
                        } else {
                            break;
                        }
                    }
                    num.parse().map_err(|_| ParseQasmError {
                        line: self.line,
                        message: format!("invalid number `{num}`"),
                    })
                }
                other => err(self.line, format!("unexpected `{other:?}` in angle")),
            }
        }
    }
    let mut p = P {
        chars: text.chars().peekable(),
        line,
    };
    let v = p.expr()?;
    p.skip_ws();
    if p.chars.next().is_some() {
        return err(line, format!("trailing input in angle `{text}`"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qasm::to_qasm;
    use std::f64::consts::PI;

    #[test]
    fn parses_basic_program() {
        let c = parse_qasm(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n\
             h q[0];\ncx q[0], q[3];\nmeasure q[3] -> c[3];\n",
        )
        .unwrap();
        assert_eq!(c.n_qubits(), 4);
        assert_eq!(c.len(), 3);
        assert_eq!(c.gates()[1], Gate::Cnot(Qubit(0), Qubit(3)));
    }

    #[test]
    fn parses_angle_expressions() {
        let c = parse_qasm("qreg q[1];\nrz(pi/2) q[0];\nrx(-pi/4) q[0];\nry(2*pi) q[0];\nrz(0.25) q[0];\nrx((pi+pi)/4) q[0];\n").unwrap();
        let angles: Vec<f64> = c
            .iter()
            .filter_map(|g| match *g {
                Gate::Rx(_, a) | Gate::Ry(_, a) | Gate::Rz(_, a) => Some(a),
                _ => None,
            })
            .collect();
        assert!((angles[0] - PI / 2.0).abs() < 1e-12);
        assert!((angles[1] + PI / 4.0).abs() < 1e-12);
        // `2*pi` canonicalizes to 0: angles are normalized into (-π, π].
        assert_eq!(angles[2], 0.0);
        assert!((angles[3] - 0.25).abs() < 1e-12);
        assert!((angles[4] - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn normalizes_equivalent_angle_spellings_to_one_digest() {
        // The Clifford-classification satellite case: a wrapped negative
        // angle and its canonical spelling must build bit-identical
        // circuits, so digests (cache keys) and simulator selection
        // cannot diverge on equivalent programs.
        let a = parse_qasm("qreg q[1];\nrz(-3*pi/2) q[0];\n").unwrap();
        let b = parse_qasm("qreg q[1];\nrz(pi/2) q[0];\n").unwrap();
        assert_eq!(a.gates(), b.gates());
        assert_eq!(a.digest(), b.digest());
        assert!(a.gates()[0].is_clifford());
        // Decimal spellings of π multiples snap onto the same grid point.
        let c = parse_qasm("qreg q[1];\nrz(1.5707963267948966) q[0];\n").unwrap();
        assert_eq!(c.digest(), b.digest());
    }

    #[test]
    fn skips_gate_definitions_and_comments() {
        let c = parse_qasm(
            "OPENQASM 2.0;\nqreg q[2];\n// comment line\n\
             gate rxx(theta) a, b { h a; h b; cx a, b; rz(theta) b; cx a, b; h a; h b; }\n\
             rxx(pi/4) q[0], q[1]; // trailing comment\n",
        )
        .unwrap();
        assert_eq!(c.len(), 1);
        assert!(matches!(c.gates()[0], Gate::Xx(..)));
    }

    #[test]
    fn whole_register_measure_expands() {
        let c = parse_qasm("qreg q[3];\ncreg c[3];\nmeasure q -> c;\n").unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|g| matches!(g, Gate::Measure(_))));
    }

    #[test]
    fn rejects_unknown_gate() {
        let e = parse_qasm("qreg q[1];\nfrobnicate q[0];\n").unwrap_err();
        assert!(e.message.contains("frobnicate"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_out_of_range_qubit() {
        let e = parse_qasm("qreg q[2];\nh q[5];\n").unwrap_err();
        assert!(e.message.contains("outside"));
    }

    #[test]
    fn rejects_multiple_qregs() {
        let e = parse_qasm("qreg q[2];\nqreg r[2];\n").unwrap_err();
        assert!(e.message.contains("multiple"));
    }

    #[test]
    fn round_trips_the_emitters_output() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0))
            .t(Qubit(1))
            .cnot(Qubit(0), Qubit(1))
            .cphase(Qubit(1), Qubit(2), PI / 8.0)
            .zz(Qubit(0), Qubit(2), 0.3)
            .xx(Qubit(1), Qubit(2), 0.7)
            .swap(Qubit(0), Qubit(2))
            .toffoli(Qubit(0), Qubit(1), Qubit(2))
            .barrier()
            .measure(Qubit(2));
        let parsed = parse_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn empty_source_gives_empty_circuit() {
        let c = parse_qasm("").unwrap();
        assert_eq!(c.n_qubits(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn error_display_mentions_line() {
        let e = parse_qasm("qreg q[1];\nrx() q[0];\n").unwrap_err();
        assert!(e.to_string().contains("line 2"));
    }
}
