//! Log-linear bucket math shared by [`crate::AtomicHistogram`] and
//! `qres_stats::LogLinearHistogram`.
//!
//! The layout is the classic HDR-style "octave × linear sub-bucket" grid:
//! each power-of-two octave is split into `2^SUB_BITS = 16` equal-width
//! sub-buckets, giving a worst-case relative bucket error of `1/16`
//! (~6.25%) over the whole `u64` range while needing only
//! [`NUM_BUCKETS`] fixed slots — no allocation, no configuration, and
//! `const`-constructible cells.

/// Number of linear sub-buckets per octave, as a bit count (`16` buckets).
pub const SUB_BITS: u32 = 4;

/// Linear sub-buckets per octave (`1 << SUB_BITS`).
pub const SUBS: usize = 1 << SUB_BITS;

/// Number of octaves: octave 0 covers `0..16` exactly; octaves `1..=60`
/// cover `16 << (k-1) .. 32 << (k-1)`, reaching the top of `u64`.
pub const OCTAVES: usize = 61;

/// Total bucket count for the full `u64` range.
pub const NUM_BUCKETS: usize = OCTAVES * SUBS;

/// Maps a value to its bucket index.
///
/// Values below 16 get exact unit buckets; larger values land in the
/// sub-bucket holding their top `SUB_BITS + 1` significant bits.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        octave * SUBS + sub
    }
}

/// The smallest value that lands in bucket `idx`.
///
/// Panics if `idx >= NUM_BUCKETS`.
#[inline]
pub fn lower_bound(idx: usize) -> u64 {
    assert!(idx < NUM_BUCKETS, "bucket index out of range");
    let octave = idx / SUBS;
    let sub = (idx % SUBS) as u64;
    if octave == 0 {
        sub
    } else {
        (SUBS as u64 + sub) << (octave - 1)
    }
}

/// The largest value that lands in bucket `idx` (inclusive).
#[inline]
pub fn upper_bound(idx: usize) -> u64 {
    if idx + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        lower_bound(idx + 1) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(lower_bound(v as usize), v);
            assert_eq!(upper_bound(v as usize), v);
        }
    }

    #[test]
    fn octave_boundaries() {
        assert_eq!(bucket_index(16), 16);
        assert_eq!(lower_bound(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(lower_bound(32), 32);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bounds_bracket_every_probe() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + 1, v.saturating_mul(3) / 2] {
                let idx = bucket_index(probe);
                assert!(lower_bound(idx) <= probe, "lower({idx}) > {probe}");
                assert!(probe <= upper_bound(idx), "{probe} > upper({idx})");
            }
            v = v.saturating_mul(2) + 1;
        }
    }

    #[test]
    fn buckets_are_monotone_in_value() {
        let mut prev = 0;
        let mut v = 0u64;
        while v < 1 << 40 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket_index not monotone at {v}");
            prev = idx;
            v = v * 2 + 3;
        }
    }

    #[test]
    fn relative_error_bounded() {
        // Above the exact range, bucket width / lower bound <= 1/16.
        let mut v = 64u64;
        while v < 1 << 50 {
            let idx = bucket_index(v);
            let width = upper_bound(idx) - lower_bound(idx) + 1;
            assert!(
                width as f64 / lower_bound(idx) as f64 <= 1.0 / 16.0 + 1e-12,
                "bucket {idx} too wide: {width} at lower {}",
                lower_bound(idx)
            );
            v = v.saturating_mul(7) / 3;
        }
    }
}
