//! TILT device specification.

use crate::error::CompileError;

/// Physical description of a TILT machine: an ion chain of `n_ions`
/// positions shuttling under a laser head covering `head_size` contiguous
/// positions (Fig. 1 of the paper).
///
/// Head positions are indexed by their leftmost covered ion position, so
/// valid head positions are `0..=n_ions - head_size`.
///
/// # Example
///
/// ```
/// use tilt_compiler::DeviceSpec;
///
/// let spec = DeviceSpec::new(64, 16)?;
/// assert_eq!(spec.head_positions().count(), 49);
/// assert!(spec.fits_under_head(3, 18));   // distance 15 < 16
/// assert!(!spec.fits_under_head(3, 19));  // distance 16 needs a swap
/// # Ok::<(), tilt_compiler::CompileError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DeviceSpec {
    n_ions: usize,
    head_size: usize,
}

impl DeviceSpec {
    /// Rejects a register wider than the tape.
    pub(crate) fn check_width(&self, n_qubits: usize) -> Result<(), CompileError> {
        if n_qubits > self.n_ions {
            return Err(CompileError::CircuitTooWide {
                circuit_qubits: n_qubits,
                n_ions: self.n_ions,
            });
        }
        Ok(())
    }

    /// Creates a device with `n_ions` tape positions and a head covering
    /// `head_size` positions.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidSpec`] when the head is smaller than
    /// two ions (no two-qubit gate could ever execute) or larger than the
    /// tape.
    pub fn new(n_ions: usize, head_size: usize) -> Result<Self, CompileError> {
        if head_size < 2 || head_size > n_ions {
            return Err(CompileError::InvalidSpec { n_ions, head_size });
        }
        Ok(DeviceSpec { n_ions, head_size })
    }

    /// The paper's primary configuration: a 64-ion tape.
    ///
    /// # Panics
    ///
    /// Never panics for the fixed valid arguments.
    pub fn tilt64(head_size: usize) -> Self {
        DeviceSpec::new(64, head_size).expect("64-ion spec with paper head sizes is valid")
    }

    /// Number of ions on the tape (`N` in the paper).
    #[inline]
    pub fn n_ions(&self) -> usize {
        self.n_ions
    }

    /// Laser head width (`L` in the paper; 16 or 32 in the evaluation).
    #[inline]
    pub fn head_size(&self) -> usize {
        self.head_size
    }

    /// Iterator over the valid head positions (leftmost covered ion).
    pub fn head_positions(&self) -> impl Iterator<Item = usize> + '_ {
        0..=self.n_ions - self.head_size
    }

    /// Number of distinct head positions.
    pub fn n_head_positions(&self) -> usize {
        self.n_ions - self.head_size + 1
    }

    /// True when ion positions `a` and `b` can sit under the head
    /// simultaneously, i.e. `|a - b| < head_size`.
    ///
    /// This is the executability criterion of §III: a two-qubit gate is
    /// executable (possibly after a tape move) iff its operands fit under
    /// the head.
    #[inline]
    pub fn fits_under_head(&self, a: usize, b: usize) -> bool {
        a.abs_diff(b) < self.head_size
    }

    /// True when position `pos` is covered by the head at `head_pos`.
    #[inline]
    pub fn covers(&self, head_pos: usize, pos: usize) -> bool {
        pos >= head_pos && pos < head_pos + self.head_size
    }

    /// The inclusive range of head positions from which *all* of `positions`
    /// are covered, or `None` if they do not fit under the head at once.
    ///
    /// For a gate spanning `d` positions this yields `head_size - d` valid
    /// positions (Fig. 5 of the paper).
    pub fn covering_head_positions(
        &self,
        positions: impl IntoIterator<Item = usize>,
    ) -> Option<std::ops::RangeInclusive<usize>> {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut any = false;
        for p in positions {
            debug_assert!(p < self.n_ions, "position {p} outside tape");
            min = min.min(p);
            max = max.max(p);
            any = true;
        }
        if !any || max - min >= self.head_size {
            return None;
        }
        let lo = max.saturating_sub(self.head_size - 1);
        let hi = min.min(self.n_ions - self.head_size);
        if lo > hi {
            return None;
        }
        Some(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_heads() {
        assert!(DeviceSpec::new(64, 1).is_err());
        assert!(DeviceSpec::new(64, 0).is_err());
        assert!(DeviceSpec::new(8, 9).is_err());
        assert!(DeviceSpec::new(8, 8).is_ok());
    }

    #[test]
    fn head_position_count() {
        let spec = DeviceSpec::tilt64(16);
        assert_eq!(spec.n_head_positions(), 49);
        assert_eq!(spec.head_positions().count(), 49);
        let full = DeviceSpec::new(16, 16).unwrap();
        assert_eq!(full.n_head_positions(), 1);
    }

    #[test]
    fn executability_is_strict_inequality() {
        let spec = DeviceSpec::tilt64(16);
        assert!(spec.fits_under_head(0, 15));
        assert!(!spec.fits_under_head(0, 16));
    }

    #[test]
    fn covers_window() {
        let spec = DeviceSpec::tilt64(16);
        assert!(spec.covers(10, 10));
        assert!(spec.covers(10, 25));
        assert!(!spec.covers(10, 26));
        assert!(!spec.covers(10, 9));
    }

    #[test]
    fn covering_positions_match_fig5() {
        // Head size L: a gate with d = L-1 has exactly one position,
        // d = L-3 has three (Fig. 5).
        let spec = DeviceSpec::tilt64(16);
        let one: Vec<_> = spec.covering_head_positions([20, 35]).unwrap().collect();
        assert_eq!(one, vec![20]);
        let three: Vec<_> = spec.covering_head_positions([20, 33]).unwrap().collect();
        assert_eq!(three, vec![18, 19, 20]);
    }

    #[test]
    fn covering_positions_none_when_too_far() {
        let spec = DeviceSpec::tilt64(16);
        assert!(spec.covering_head_positions([0, 16]).is_none());
        assert!(spec.covering_head_positions(std::iter::empty()).is_none());
    }

    #[test]
    fn covering_positions_clamped_at_tape_ends() {
        let spec = DeviceSpec::tilt64(16);
        // A single qubit at the right end: head cannot slide past N - L.
        let r: Vec<_> = spec.covering_head_positions([63]).unwrap().collect();
        assert_eq!(*r.first().unwrap(), 48);
        assert_eq!(*r.last().unwrap(), 48);
        let l: Vec<_> = spec.covering_head_positions([0]).unwrap().collect();
        assert_eq!(l, vec![0]);
    }
}
