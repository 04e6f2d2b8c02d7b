//! Orthogonal Variable Spreading Factor (OVSF) channelisation codes.
//!
//! Downlink physical channels are separated by OVSF codes `C(SF, k)` with
//! spreading factors from 4 to 512 (TS 25.213 §4.3.1). Codes on the same
//! path of the code tree are orthogonal, which is what lets the despreader
//! separate channels after descrambling. In the paper's partitioning the
//! code generation is dedicated hardware; the despreading multiply-accumulate
//! is the array kernel of Fig. 6.

/// Largest downlink spreading factor.
pub(crate) const MAX_SF: usize = 512;

/// Returns the OVSF code `C(sf, k)` as a vector of `±1` chips.
///
/// The code tree is defined recursively: `C(1,0) = [+1]`,
/// `C(2n, 2k) = [C(n,k), C(n,k)]`, `C(2n, 2k+1) = [C(n,k), −C(n,k)]`.
///
/// # Panics
///
/// Panics if `sf` is not a power of two in `1..=512` or `k ≥ sf`.
///
/// # Example
///
/// ```
/// use sdr_wcdma::ovsf::ovsf;
///
/// assert_eq!(ovsf(4, 1), vec![1, 1, -1, -1]);
/// assert_eq!(ovsf(4, 2), vec![1, -1, 1, -1]);
/// ```
pub fn ovsf(sf: usize, k: usize) -> Vec<i32> {
    assert!(
        sf.is_power_of_two() && (1..=MAX_SF).contains(&sf),
        "invalid spreading factor {sf}"
    );
    assert!(k < sf, "code index {k} out of range for SF {sf}");
    let mut code = vec![1i32];
    // Iterative form of the recursion: bit (level) of k, from the most
    // significant branching decision down, selects the same/negated half.
    let levels = sf.trailing_zeros();
    for level in (0..levels).rev() {
        let bit = (k >> level) & 1;
        let mut next = Vec::with_capacity(code.len() * 2);
        next.extend_from_slice(&code);
        if bit == 1 {
            next.extend(code.iter().map(|c| -c));
        } else {
            next.extend_from_slice(&code);
        }
        code = next;
    }
    code
}

/// Inner product of two equal-length codes.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn correlate(a: &[i32], b: &[i32]) -> i32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_codes() {
        assert_eq!(ovsf(1, 0), vec![1]);
        assert_eq!(ovsf(2, 0), vec![1, 1]);
        assert_eq!(ovsf(2, 1), vec![1, -1]);
        assert_eq!(ovsf(4, 0), vec![1, 1, 1, 1]);
        assert_eq!(ovsf(4, 3), vec![1, -1, -1, 1]);
    }

    #[test]
    fn same_sf_codes_are_orthogonal() {
        for sf in [4usize, 8, 16, 64, 256] {
            for k1 in 0..sf.min(8) {
                for k2 in 0..sf.min(8) {
                    let c = correlate(&ovsf(sf, k1), &ovsf(sf, k2));
                    if k1 == k2 {
                        assert_eq!(c, sf as i32);
                    } else {
                        assert_eq!(c, 0, "sf={sf} k1={k1} k2={k2}");
                    }
                }
            }
        }
    }

    #[test]
    fn chips_are_plus_minus_one() {
        for &sf in &[4usize, 32, 512] {
            for c in ovsf(sf, sf / 2) {
                assert_eq!(c.abs(), 1);
            }
        }
    }

    #[test]
    fn parent_child_relationship() {
        // C(8, 2k) repeats C(4, k); C(8, 2k+1) is C(4,k) then its negation.
        for k in 0..4 {
            let parent = ovsf(4, k);
            let even = ovsf(8, 2 * k);
            let odd = ovsf(8, 2 * k + 1);
            assert_eq!(&even[..4], &parent[..]);
            assert_eq!(&even[4..], &parent[..]);
            assert_eq!(&odd[..4], &parent[..]);
            assert_eq!(
                odd[4..].to_vec(),
                parent.iter().map(|c| -c).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn max_sf_supported() {
        assert_eq!(ovsf(512, 511).len(), 512);
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        ovsf(12, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_code_index_out_of_range() {
        ovsf(8, 8);
    }
}
