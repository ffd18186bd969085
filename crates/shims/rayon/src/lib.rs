//! Empty placeholder for the [`rayon`](https://crates.io/crates/rayon)
//! crate.
//!
//! The workspace runs every compile, batch, scaled-shard advance and
//! state-vector kernel on the calling thread, so nothing uses this crate.
//! Three manifests (`tilt-engine`, `tilt-scale`, `tilt-statevec`) still
//! name it; dropping those lines rewrites the benchmark's lock file, so
//! the crate and the lines go together with the next change to the
//! benchmark.
