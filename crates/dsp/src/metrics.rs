//! Bit-error-rate counting for the experiments.

/// Accumulates bit-error statistics across many blocks.
///
/// # Example
///
/// ```
/// use sdr_dsp::metrics::BerCounter;
///
/// let mut ber = BerCounter::new();
/// ber.update(&[0, 1, 1, 0], &[0, 1, 0, 0]);
/// assert_eq!(ber.errors(), 1);
/// assert_eq!(ber.total(), 4);
/// assert!((ber.ber() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BerCounter {
    errors: u64,
    total: u64,
}

impl BerCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compares transmitted and received bits and accumulates.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn update(&mut self, tx: &[u8], rx: &[u8]) {
        assert_eq!(tx.len(), rx.len(), "ber: length mismatch");
        self.errors += tx.iter().zip(rx).filter(|(a, b)| a != b).count() as u64;
        self.total += tx.len() as u64;
    }

    /// Number of bit errors observed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Number of bits compared.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bit error rate (0 if nothing was counted).
    pub fn ber(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.errors as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_accumulates_across_blocks() {
        let mut ber = BerCounter::new();
        ber.update(&[0, 0, 1], &[1, 0, 1]);
        ber.update(&[1, 1], &[0, 0]);
        assert_eq!(ber.errors(), 3);
        assert_eq!(ber.total(), 5);
    }

    #[test]
    fn ber_empty_is_zero() {
        assert_eq!(BerCounter::new().ber(), 0.0);
    }

    #[test]
    #[should_panic]
    fn ber_rejects_mismatched_lengths() {
        BerCounter::new().update(&[0], &[0, 1]);
    }
}
