//! Place → dependent indices and the ordered candidate sort.
//!
//! After a completion, the simulator re-examines only the activities whose
//! enablement reads a place the completion changed, and recomputes only
//! the rate rewards that read one. Both lookups go through one
//! [`DependencyIndex`] type (a CSR array, built once), and both candidate
//! lists are put into ascending, duplicate-free visit order by one
//! [`CandidateSort`].

use crate::marking::PlaceId;

/// CSR index from place to the items (activities or rate rewards) whose
/// declared read-set contains it: `dependents(p)` is a slice borrow of one
/// flat array, not a `Vec` per place. At 1000-VM scale a clock firing
/// dirties thousands of places, and loading a `Vec` header per place costs
/// more cache traffic than the dependent lists themselves.
#[derive(Debug)]
pub(crate) struct DependencyIndex {
    /// `offsets[p] .. offsets[p + 1]` indexes `data` for place `p`.
    offsets: Vec<u32>,
    /// Dependent item indices, ascending within each place's range.
    data: Vec<u32>,
    /// Items with an undeclared read-set, ascending — the conservative
    /// fallback, revisited after every state change.
    pub(crate) conservative: Vec<u32>,
    /// Number of items the index was built over.
    items: usize,
}

impl DependencyIndex {
    /// Builds the index over `reads`, one entry per item in item order:
    /// `Some(places)` for a declared read-set (places deduplicated),
    /// `None` for an undeclared one.
    pub(crate) fn build<'a, I>(num_places: usize, reads: I) -> Self
    where
        I: IntoIterator<Item = Option<&'a [PlaceId]>>,
        I::IntoIter: Clone,
    {
        let reads = reads.into_iter();
        // Two passes: count per-place degrees, then fill the flat array.
        let mut counts = vec![0u32; num_places];
        let mut conservative = Vec::new();
        let mut items = 0;
        for (i, r) in reads.clone().enumerate() {
            match r {
                Some(places) => {
                    for p in places {
                        counts[p.index()] += 1;
                    }
                }
                None => conservative.push(i as u32),
            }
            items += 1;
        }
        let mut offsets = Vec::with_capacity(num_places + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut cursor: Vec<u32> = offsets[..num_places].to_vec();
        let mut data = vec![0u32; total as usize];
        // Items are visited in ascending order, so every per-place range
        // ends up ascending too.
        for (i, places) in reads.enumerate() {
            for p in places.unwrap_or_default() {
                let slot = &mut cursor[p.index()];
                data[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        DependencyIndex {
            offsets,
            data,
            conservative,
            items,
        }
    }

    /// Items whose read-set contains place `p`, ascending.
    #[inline]
    pub(crate) fn dependents(&self, p: usize) -> &[u32] {
        &self.data[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// Number of items the index was built over.
    pub(crate) fn items(&self) -> usize {
        self.items
    }
}

/// Lists shorter than this sort: most completions of a small model
/// collect 0–3 candidates, where marking and scanning a bitset costs
/// several times what sorting them does.
const BITSET_MIN: usize = 64;

/// Puts a candidate id list into ascending, duplicate-free order — exactly
/// what `sort_unstable` + `dedup` give.
///
/// Long, dense lists (a clock firing dirties thousands of places whose
/// dependents cover most of the universe) are marked in a reusable bitset
/// and read back in ascending order: linear in the ids plus the spanned
/// 64-bit words, where a sort is `n log n`. Short lists, and sparse ones
/// whose ids span more words than there are ids (a place read by
/// activities all over the model), are sorted.
#[derive(Debug)]
pub(crate) struct CandidateSort {
    /// One bit per id; all zero between calls.
    words: Vec<u64>,
}

impl CandidateSort {
    /// A sorter for ids below `universe`.
    pub(crate) fn new(universe: usize) -> Self {
        CandidateSort {
            words: vec![0; universe.div_ceil(64)],
        }
    }

    /// Sorts and deduplicates `ids`, every one of which must be below the
    /// universe the sorter was created for.
    #[inline]
    pub(crate) fn sort_dedup(&mut self, ids: &mut Vec<u32>) {
        if ids.len() < BITSET_MIN {
            ids.sort_unstable();
            ids.dedup();
        } else {
            self.sort_dedup_long(ids);
        }
    }

    /// The long-list body of [`CandidateSort::sort_dedup`], kept out of
    /// line so the short path inlines into its callers.
    #[inline(never)]
    fn sort_dedup_long(&mut self, ids: &mut Vec<u32>) {
        let (lo, hi) = ids
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &id| (lo.min(id), hi.max(id)));
        let (lo, hi) = (lo as usize / 64, hi as usize / 64);
        if hi - lo >= ids.len() {
            ids.sort_unstable();
            ids.dedup();
            return;
        }
        for &id in ids.iter() {
            self.words[id as usize / 64] |= 1 << (id % 64);
        }
        ids.clear();
        for (w, word) in self.words[lo..=hi].iter_mut().enumerate() {
            let base = ((lo + w) * 64) as u32;
            let mut bits = std::mem::take(word);
            while bits != 0 {
                ids.push(base + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_lists_dependents_ascending_and_conservative_items() {
        let reads: Vec<Option<Vec<PlaceId>>> = vec![
            Some(vec![PlaceId(1), PlaceId(2)]),
            None,
            Some(vec![PlaceId(2)]),
            Some(vec![]),
        ];
        let idx = DependencyIndex::build(3, reads.iter().map(Option::as_deref));
        assert_eq!(idx.dependents(0), &[] as &[u32]);
        assert_eq!(idx.dependents(1), &[0]);
        assert_eq!(idx.dependents(2), &[0, 2]);
        assert_eq!(idx.conservative, vec![1]);
        assert_eq!(idx.items(), 4);
    }

    /// `sort_unstable` + `dedup`: the reference.
    fn reference(ids: &[u32]) -> Vec<u32> {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn sort_dedup_matches_the_reference_on_every_path() {
        let mut sorter = CandidateSort::new(200);
        let check = |sorter: &mut CandidateSort, ids: &[u32]| {
            let mut got = ids.to_vec();
            sorter.sort_dedup(&mut got);
            assert_eq!(got, reference(ids));
            assert!(sorter.words.iter().all(|&w| w == 0), "bitset left dirty");
        };
        check(&mut sorter, &[]);
        check(&mut sorter, &[199, 5, 3, 5]);
        // Dense: 100 ids (with duplicates) over 4 words take the bitset.
        let dense: Vec<u32> = (0..100)
            .map(|i| (i * 37) % 200)
            .chain([0, 199, 0])
            .collect();
        check(&mut sorter, &dense);
        // Sparse: 64 ids over 64 words sort.
        let mut sorter = CandidateSort::new(64 * 64);
        let sparse: Vec<u32> = (0..64).rev().map(|i| i * 64 + 7).collect();
        check(&mut sorter, &sparse);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random lists — empty ones, duplicates, ids at both universe
        /// edges, short, long, dense and sparse — the sorter returns
        /// exactly `sort_unstable` + `dedup` and leaves no bit behind.
        #[test]
        fn sort_dedup_is_sort_unstable_then_dedup(
            universe in 1u32..5000,
            // (edge, r): 0 → id 0, 1 → the last id, else r mod universe.
            raw in proptest::collection::vec((0u32..4, any::<u32>()), 0..400),
        ) {
            let ids: Vec<u32> = raw
                .iter()
                .map(|&(edge, r)| match edge {
                    0 => 0,
                    1 => universe - 1,
                    _ => r % universe,
                })
                .collect();
            let mut sorter = CandidateSort::new(universe as usize);
            let mut got = ids.clone();
            sorter.sort_dedup(&mut got);
            prop_assert_eq!(&got, &reference(&ids));
            prop_assert!(sorter.words.iter().all(|&w| w == 0), "bitset left dirty");
            let mut again = ids.clone();
            sorter.sort_dedup(&mut again);
            prop_assert_eq!(again, got);
        }
    }
}
