//! The I/Q plumbing every kernel's drive function shares: a complex
//! sample stream goes onto an array as two parallel word streams, and
//! comes back off it the same way.

use sdr_dsp::Cplx;

use crate::{Array, ConfigId, Result, Word};

/// Splits a complex integer stream into parallel I and Q word streams,
/// read lazily from the caller's slice (`Array::push_input` takes them as
/// they are).
pub fn split_iq(
    samples: &[Cplx<i32>],
) -> (
    impl Iterator<Item = Word> + '_,
    impl Iterator<Item = Word> + '_,
) {
    (
        samples.iter().map(|c| Word::new(c.re)),
        samples.iter().map(|c| Word::new(c.im)),
    )
}

/// Drains `cfg`'s output ports `i_port` and `q_port` and zips them back
/// into complex samples.
///
/// # Errors
///
/// Returns an error if `cfg` is not on `array` or lacks either port.
///
/// # Panics
///
/// Panics if the two streams have different lengths.
pub fn drain_iq(
    array: &mut Array,
    cfg: ConfigId,
    i_port: &str,
    q_port: &str,
) -> Result<Vec<Cplx<i32>>> {
    let i = array.drain_output(cfg, i_port)?;
    let q = array.drain_output(cfg, q_port)?;
    assert_eq!(i.len(), q.len(), "I/Q stream length mismatch");
    Ok(i.iter()
        .zip(&q)
        .map(|(a, b)| Cplx::new(a.value(), b.value()))
        .collect())
}
