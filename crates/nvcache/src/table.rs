//! Deterministic open-addressing index for cache blocks.
//!
//! The cache's block index is the innermost lookup of every cached-run
//! event, and `BTreeMap`'s O(log n) pointer-chasing made it the hot spot.
//! This is a flat linear-probing table with a **fixed** hash function
//! (splitmix64 finalizer — no `RandomState`, no ambient seed), so behavior
//! is bit-reproducible run to run. It is never iterated: callers that need
//! ordered traversal keep their own ordered side structures, so hash order
//! can never leak into simulation results.
//!
//! Deletions use backward-shift compaction instead of tombstones, keeping
//! probe chains short under the cache's constant insert/evict churn.

use crate::lru::BlockKey;

/// Key: (block identity, is-old-copy flag) — the same composite the cache
/// previously kept in its `BTreeMap`.
type Key = (BlockKey, bool);

#[derive(Clone, Debug)]
pub(crate) struct BlockMap {
    slots: Vec<Option<(Key, usize)>>,
    /// `slots.len() - 1`; length is always a power of two.
    mask: usize,
    len: usize,
}

#[inline]
fn hash(key: Key) -> u64 {
    let (BlockKey { disk, block }, old) = key;
    let mut z = block
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((disk as u64) << 1)
        .wrapping_add(old as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BlockMap {
    /// A table ready to hold `n` entries without growing.
    pub(crate) fn with_capacity(n: usize) -> BlockMap {
        let slots = (n * 2).max(16).next_power_of_two();
        BlockMap {
            slots: vec![None; slots],
            mask: slots - 1,
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn ideal(&self, key: Key) -> usize {
        (hash(key) as usize) & self.mask
    }

    /// Slot holding `key`, if present.
    #[inline]
    fn find(&self, key: Key) -> Option<usize> {
        let mut i = self.ideal(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & self.mask,
            }
        }
    }

    #[inline]
    #[expect(clippy::expect_used, reason = "find() only returns occupied slots")]
    pub(crate) fn get(&self, key: Key) -> Option<usize> {
        self.find(key)
            .map(|i| self.slots[i].as_ref().expect("occupied slot").1)
    }

    #[inline]
    pub(crate) fn contains_key(&self, key: Key) -> bool {
        self.find(key).is_some()
    }

    /// Insert or replace; returns the previous value if the key was present.
    pub(crate) fn insert(&mut self, key: Key, value: usize) -> Option<usize> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.ideal(key);
        loop {
            match &mut self.slots[i] {
                None => {
                    self.slots[i] = Some((key, value));
                    self.len += 1;
                    return None;
                }
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => i = (i + 1) & self.mask,
            }
        }
    }

    /// Remove `key`, compacting the probe chain behind it (backward-shift
    /// deletion: every displaced entry moves at least as close to its ideal
    /// slot, so chains never accumulate tombstone rot).
    pub(crate) fn remove(&mut self, key: Key) -> Option<usize> {
        let mut hole = self.find(key)?;
        #[expect(clippy::expect_used, reason = "find() only returns occupied slots")]
        let (_, value) = self.slots[hole].take().expect("occupied slot");
        self.len -= 1;
        let mut probe = hole;
        loop {
            probe = (probe + 1) & self.mask;
            let Some((k, _)) = self.slots[probe] else {
                break;
            };
            let ideal = self.ideal(k);
            // Shift into the hole only if that does not move the entry to
            // before its ideal slot (cyclic distance comparison).
            if (probe.wrapping_sub(ideal) & self.mask) >= (probe.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = self.slots[probe].take();
                hole = probe;
            }
        }
        Some(value)
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; new_len]);
        self.mask = new_len - 1;
        self.len = 0;
        for slot in old.into_iter().flatten() {
            self.insert(slot.0, slot.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(disk: u32, block: u64, old: bool) -> Key {
        (BlockKey::new(disk, block), old)
    }

    #[test]
    fn insert_get_remove() {
        let mut m = BlockMap::with_capacity(4);
        assert_eq!(m.insert(k(0, 1, false), 10), None);
        assert_eq!(m.insert(k(0, 1, true), 11), None);
        assert_eq!(m.get(k(0, 1, false)), Some(10));
        assert_eq!(m.get(k(0, 1, true)), Some(11));
        assert_eq!(m.get(k(0, 2, false)), None);
        assert_eq!(m.insert(k(0, 1, false), 12), Some(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(k(0, 1, false)), Some(12));
        assert_eq!(m.remove(k(0, 1, false)), None);
        assert_eq!(m.get(k(0, 1, true)), Some(11));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = BlockMap::with_capacity(2);
        for b in 0..1000u64 {
            m.insert(k((b % 7) as u32, b, b.is_multiple_of(3)), b as usize);
        }
        assert_eq!(m.len(), 1000);
        for b in 0..1000u64 {
            assert_eq!(
                m.get(k((b % 7) as u32, b, b.is_multiple_of(3))),
                Some(b as usize)
            );
        }
    }

    /// Churn against a reference model: backward-shift deletion must never
    /// lose or corrupt entries, whatever the interleaving.
    #[test]
    fn differential_churn_against_btreemap() {
        use std::collections::BTreeMap;
        let mut m = BlockMap::with_capacity(8);
        let mut reference: BTreeMap<(u32, u64, bool), usize> = BTreeMap::new();
        let mut x = 0x1234_5678_u64;
        for step in 0..20_000usize {
            // xorshift: deterministic operation mix.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = k((x % 3) as u32, (x >> 8) % 512, x.is_multiple_of(2));
            let rkey = ((x % 3) as u32, (x >> 8) % 512, x.is_multiple_of(2));
            if x % 5 < 3 {
                assert_eq!(
                    m.insert(key, step),
                    reference.insert(rkey, step),
                    "step {step}"
                );
            } else {
                assert_eq!(m.remove(key), reference.remove(&rkey), "step {step}");
            }
            assert_eq!(m.len(), reference.len(), "step {step}");
        }
        for (&(d, b, o), &v) in &reference {
            assert_eq!(m.get(k(d, b, o)), Some(v));
        }
    }
}
