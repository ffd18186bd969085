//! OpenQASM 2.0 interchange: emission ([`to_qasm`]) and parsing
//! ([`parse_qasm`]).
//!
//! LinQ's front end accepts "high-level quantum programs" (§IV of the
//! paper); OpenQASM 2.0 is the lingua franca for that, so the IR can be
//! round-tripped through text:
//!
//! ```
//! use tilt_circuit::{qasm, Circuit, Qubit};
//!
//! let mut c = Circuit::new(2);
//! c.h(Qubit(0));
//! c.cnot(Qubit(0), Qubit(1));
//! let text = qasm::to_qasm(&c);
//! let back = qasm::parse_qasm(&text)?;
//! assert_eq!(back, c);
//! # Ok::<(), tilt_circuit::qasm::ParseQasmError>(())
//! ```

mod emit;
mod parse;
pub mod stream;

pub use emit::{to_qasm, write_qasm_stream};
pub use parse::{declared_qubits, parse_qasm, ParseQasmError};
pub use stream::{QasmStream, QasmStreamError};
