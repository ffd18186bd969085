//! Robustness property tests for the QASM parser: arbitrary input must
//! never panic — it either parses or returns a structured error — and
//! structurally mangled valid programs fail gracefully.

use proptest::prelude::*;
use tilt::circuit::qasm;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser is total: any string produces Ok or Err, never a panic.
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        let _ = qasm::parse_qasm(&input);
    }

    /// Same, over inputs biased toward QASM-looking token soup.
    #[test]
    fn parser_never_panics_on_qasm_like_soup(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("qreg".to_string()),
                Just("creg".to_string()),
                Just("q[3]".to_string()),
                Just("q[".to_string()),
                Just("cx".to_string()),
                Just("rx(pi/2)".to_string()),
                Just("rx()".to_string()),
                Just("measure".to_string()),
                Just("->".to_string()),
                Just(";".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("gate".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(",".to_string()),
                "[a-z0-9]{1,4}".prop_map(|s| s),
            ],
            0..30,
        )
    ) {
        let input = tokens.join(" ");
        let _ = qasm::parse_qasm(&input);
    }

    /// Truncating a valid program at any byte never panics.
    #[test]
    fn truncation_is_safe(cut in 0usize..400) {
        let full = qasm::to_qasm(&tilt::benchmarks::bv::bernstein_vazirani(8, &[true; 7]));
        let cut = cut.min(full.len());
        // Only cut at char boundaries (ASCII output, so every byte).
        let _ = qasm::parse_qasm(&full[..cut]);
    }
}

/// A whole-register `measure` over an absurd register is a parse error,
/// not an allocation abort, in the parser and in the stream alike.
#[test]
fn whole_register_measure_over_an_absurd_register_errors() {
    let src = "qreg q[1000000000000000000];\nmeasure q -> c;\n";
    let err = qasm::parse_qasm(src).unwrap_err();
    assert!(err.message.contains("cannot expand"), "{err}");
    assert_eq!(
        qasm::declared_qubits(src),
        Ok(Some(1_000_000_000_000_000_000))
    );
    let one_line = "qreg q[1000000000000000000]; measure q -> c;\n";
    let mut stream = qasm::QasmStream::new(one_line.as_bytes());
    assert!(stream.require_n_qubits().is_err());
}

#[test]
fn angle_expression_edge_cases_error_not_panic() {
    for angle in ["", "pi/", "*2", "((pi)", "1e", "pi pi", "1..2", "-"] {
        let src = format!("qreg q[1];\nrx({angle}) q[0];\n");
        assert!(
            qasm::parse_qasm(&src).is_err(),
            "`{angle}` should be rejected"
        );
    }
}

#[test]
fn deeply_nested_parens_parse() {
    let src = "qreg q[1];\nrx(((((pi))))/((2))) q[0];\n";
    let c = qasm::parse_qasm(src).unwrap();
    match c.gates()[0] {
        tilt::circuit::Gate::Rx(_, a) => {
            assert!((a - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        }
        ref g => panic!("unexpected {g:?}"),
    }
}
