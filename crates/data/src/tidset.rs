//! Sorted transaction-id lists and fast intersections — the vertical
//! counting primitive.

/// Size of the intersection of two sorted, duplicate-free tid lists.
///
/// Uses a linear merge when the lists are of comparable length and galloping
/// (exponential + binary search) when one list is much shorter — the common
/// case when a rare item is intersected with a popular one.
pub fn intersect_size(a: &[u32], b: &[u32]) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    // Galloping pays off when the length ratio is large.
    if long.len() / short.len() >= 8 {
        gallop_intersect_size(short, long)
    } else {
        merge_intersect_size(short, long)
    }
}

/// Intersection of two sorted tid lists, written into `out` (cleared
/// first). Reusing one output buffer across many intersections keeps a hot
/// counting loop from allocating per group.
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(a.len().min(b.len()));
    // Branch-free cursor advance: both indices move by a comparison mask
    // instead of a three-way `match`, leaving only the (rare, predictable)
    // equality push as a branch.
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            out.push(x);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
}

fn merge_intersect_size(a: &[u32], b: &[u32]) -> u64 {
    // Fully branchless merge: the match count and both cursors advance by
    // comparison masks, so the loop body carries no unpredictable branch
    // and compiles to straight-line cmov/setcc code.
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        n += u64::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    n
}

fn gallop_intersect_size(short: &[u32], long: &[u32]) -> u64 {
    let mut n = 0u64;
    let mut base = 0usize;
    for &x in short {
        if base >= long.len() {
            break;
        }
        // Exponential probe: find an index whose value is >= x.
        let mut step = 1;
        let mut hi = base + 1;
        while hi < long.len() && long[hi] < x {
            hi += step;
            step *= 2;
        }
        let end = (hi + 1).min(long.len());
        // First position in [base, end) with value >= x.
        let pos = base + long[base..end].partition_point(|&v| v < x);
        if pos < long.len() && long[pos] == x {
            n += 1;
            base = pos + 1;
        } else {
            base = pos;
        }
    }
    n
}

/// Intersection of `k ≥ 1` sorted tid lists, written into `out` with
/// `spare` as the second buffer: the allocation-free core of
/// [`intersect_many`].
///
/// Sorts `lists` by length and intersects them shortest-first, so the
/// running intersection shrinks as fast as possible; returns early once it
/// empties.
pub(crate) fn intersect_many_into(lists: &mut [&[u32]], out: &mut Vec<u32>, spare: &mut Vec<u32>) {
    lists.sort_by_key(|l| l.len());
    match lists {
        [] => out.clear(),
        [only] => {
            out.clear();
            out.extend_from_slice(only);
        }
        [a, b, rest @ ..] => {
            intersect_into(a, b, out);
            for l in rest {
                if out.is_empty() {
                    return;
                }
                intersect_into(out, l, spare);
                std::mem::swap(out, spare);
            }
        }
    }
}

/// Intersection of `k ≥ 1` sorted tid lists, materialized.
///
/// Lists are processed shortest-first so the running intersection shrinks as
/// fast as possible; returns early once it empties.
pub fn intersect_many(lists: &[&[u32]]) -> Vec<u32> {
    let (mut out, mut spare) = (Vec::new(), Vec::new());
    intersect_many_into(&mut lists.to_vec(), &mut out, &mut spare);
    out
}

/// Size of the intersection of `k ≥ 1` sorted tid lists.
///
/// Lists are processed shortest-first so the running intersection shrinks as
/// fast as possible; returns early once it empties.
pub fn intersect_size_many(lists: &[&[u32]]) -> u64 {
    match lists {
        [] => 0,
        [only] => only.len() as u64,
        [a, b] => intersect_size(a, b),
        _ => intersect_many(lists).len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256pp};

    /// Intersection of two sorted tid lists, materialized.
    fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        intersect_into(a, b, &mut out);
        out
    }

    #[test]
    fn basic_intersections() {
        assert_eq!(intersect_size(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(intersect_size(&[], &[1, 2]), 0);
        assert_eq!(intersect_size(&[1, 2], &[]), 0);
        assert_eq!(intersect_size(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(intersect(&[1, 3, 5], &[3, 4, 5]), vec![3, 5]);
    }

    #[test]
    fn galloping_path_is_exercised() {
        // short:long ratio >= 8 triggers galloping.
        let long: Vec<u32> = (0..1000).collect();
        let short = vec![0u32, 500, 999];
        assert_eq!(intersect_size(&short, &long), 3);
        let short = vec![1001u32, 1002];
        assert_eq!(intersect_size(&short, &long), 0);
    }

    #[test]
    fn many_way_intersection() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).step_by(2).collect();
        let c: Vec<u32> = (0..100).step_by(3).collect();
        // Multiples of 6 below 100: 0,6,...,96 → 17.
        assert_eq!(intersect_size_many(&[&a, &b, &c]), 17);
        assert_eq!(intersect_size_many(&[&a]), 100);
        assert_eq!(intersect_size_many(&[]), 0);
        // Early exit when the accumulator empties.
        let d: Vec<u32> = vec![1000];
        assert_eq!(intersect_size_many(&[&a, &d, &b, &c]), 0);
    }

    /// A random sorted, duplicate-free tid list with up to 79 entries drawn
    /// from `0..300` — the shape the retired proptest strategy produced.
    fn sorted_set(rng: &mut Xoshiro256pp) -> Vec<u32> {
        let len = rng.gen_range(0..80usize);
        let mut set = std::collections::BTreeSet::new();
        for _ in 0..len {
            set.insert(rng.gen_range(0..300u32));
        }
        set.into_iter().collect()
    }

    #[test]
    fn intersect_size_matches_naive() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xA11CE);
        let mut buf = Vec::new();
        for _ in 0..256 {
            let a = sorted_set(&mut rng);
            let b = sorted_set(&mut rng);
            let naive = a.iter().filter(|x| b.contains(x)).count() as u64;
            assert_eq!(intersect_size(&a, &b), naive);
            assert_eq!(intersect_size(&b, &a), naive);
            assert_eq!(intersect(&a, &b).len() as u64, naive);
            // The buffer-reusing form agrees and fully overwrites stale
            // contents from the previous iteration.
            intersect_into(&a, &b, &mut buf);
            assert_eq!(buf, intersect(&a, &b));
        }
    }

    #[test]
    fn gallop_matches_merge() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xB0B);
        for _ in 0..256 {
            let a = sorted_set(&mut rng);
            let b = sorted_set(&mut rng);
            assert_eq!(
                super::gallop_intersect_size(&a, &b),
                super::merge_intersect_size(&a, &b)
            );
        }
    }

    #[test]
    fn intersect_many_matches_size_many() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xD00D);
        for _ in 0..128 {
            let a = sorted_set(&mut rng);
            let b = sorted_set(&mut rng);
            let c = sorted_set(&mut rng);
            let lists: [&[u32]; 3] = [&a, &b, &c];
            let m = intersect_many(&lists);
            assert!(m.windows(2).all(|w| w[0] < w[1]), "sorted unique");
            assert_eq!(m.len() as u64, intersect_size_many(&lists));
        }
        assert!(intersect_many(&[]).is_empty());
        assert_eq!(intersect_many(&[&[1u32, 2, 3][..]]), vec![1, 2, 3]);
    }

    #[test]
    fn many_matches_pairwise() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xCAFE);
        for _ in 0..256 {
            let a = sorted_set(&mut rng);
            let b = sorted_set(&mut rng);
            let c = sorted_set(&mut rng);
            let ab = intersect(&a, &b);
            let expect = intersect(&ab, &c).len() as u64;
            assert_eq!(intersect_size_many(&[&a, &b, &c]), expect);
        }
    }
}
