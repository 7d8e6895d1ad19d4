//! Collection strategies (`collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length range for [`vec()`]; converts from `a..b` and `a..=b`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    /// Inclusive upper bound.
    max: usize,
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

/// Strategy producing `Vec`s of `element` with a length in `size`.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min) as u64;
        let len = self.size.min
            + if span == 0 {
                0
            } else {
                rng.below(span + 1) as usize
            };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// `collection::vec(element, sizes)` — mirrors the real API.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn lengths_respect_bounds() {
        let mut r = TestRng::from_name("vec-lens");
        let s = vec(any::<u8>(), 3..10);
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!((3..10).contains(&v.len()));
        }
        let fixed = vec(any::<u8>(), 512..=512);
        assert_eq!(fixed.generate(&mut r).len(), 512);
    }

    #[test]
    fn nested_vecs_work() {
        let mut r = TestRng::from_name("vec-nested");
        let s = vec(vec(any::<u8>(), 0..4), 1..4);
        let v = s.generate(&mut r);
        assert!(!v.is_empty());
        assert!(v.iter().all(|inner| inner.len() < 4));
    }
}
