//! Resident-memory estimation for cache accounting.
//!
//! The byte-budgeted [`crate::OpCache`] needs to know how much memory each
//! stored value keeps alive. [`MemFootprint`] answers that: an estimate of
//! the bytes a value occupies — its inline size plus every heap allocation
//! it owns. The estimate is *deterministic* (it depends only on the value's
//! structure, never on allocator or platform state beyond `size_of`), which
//! the eviction-determinism guarantees of the cache rely on.
//!
//! Conventions:
//!
//! * `Arc<T>` weighs as a pointer. A shared allocation is charged where it
//!   is created (e.g. [`crate::OpCache::intern_operand`] weighs the interned
//!   payload once), not at every handle that keeps it alive — otherwise one
//!   automaton shared by five memo entries would be counted five times.
//! * [`Alphabet`](crate::Alphabet) likewise weighs as a pointer: alphabets
//!   are interned per system and shared by every machine derived from it.
//! * `BTreeSet` nodes are estimated (element size plus amortized node
//!   overhead); exact B-tree layout is not observable from safe code.

use std::collections::BTreeSet;
use std::mem::size_of;
use std::sync::Arc;

/// Estimated resident bytes of a value: inline size plus owned heap.
///
/// Implementations must be deterministic — two structurally equal values
/// report the same footprint on every run.
pub trait MemFootprint {
    /// Bytes owned on the heap *beyond* `size_of_val(self)`.
    fn heap_bytes(&self) -> usize;

    /// Total estimated resident bytes: inline size plus owned heap.
    fn mem_bytes(&self) -> usize
    where
        Self: Sized,
    {
        size_of::<Self>() + self.heap_bytes()
    }
}

/// Amortized per-element overhead of a `BTreeSet` node (split slack plus
/// parent/edge bookkeeping), used by the set estimates below.
const BTREE_NODE_OVERHEAD: usize = 16;

macro_rules! inline_only {
    ($($ty:ty),* $(,)?) => {$(
        impl MemFootprint for $ty {
            fn heap_bytes(&self) -> usize {
                0
            }
        }
    )*};
}

inline_only!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool, char, f32, f64);
inline_only!(crate::Symbol);

impl MemFootprint for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl MemFootprint for &'static str {
    fn heap_bytes(&self) -> usize {
        // The referent lives in static storage; only the fat pointer counts.
        0
    }
}

impl<T: MemFootprint> MemFootprint for Vec<T> {
    fn heap_bytes(&self) -> usize {
        // The buffer itself (including spare capacity), plus whatever each
        // element owns beyond its slot in the buffer.
        self.capacity() * size_of::<T>() + self.iter().map(MemFootprint::heap_bytes).sum::<usize>()
    }
}

impl<T: MemFootprint> MemFootprint for Arc<T> {
    fn heap_bytes(&self) -> usize {
        // Shared allocations are charged at their origin (see module docs);
        // a handle is just a pointer.
        0
    }
}

impl<T> MemFootprint for BTreeSet<T> {
    fn heap_bytes(&self) -> usize {
        self.len() * (size_of::<T>() + BTREE_NODE_OVERHEAD)
    }
}

impl MemFootprint for crate::Alphabet {
    fn heap_bytes(&self) -> usize {
        // Alphabets are interned per system (an `Arc` handle shared by every
        // machine derived from that system); the payload is charged where the
        // alphabet was created.
        0
    }
}

impl<A: MemFootprint, B: MemFootprint> MemFootprint for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<A: MemFootprint, B: MemFootprint, C: MemFootprint> MemFootprint for (A, B, C) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes() + self.2.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_inline_only() {
        assert_eq!(7u64.mem_bytes(), 8);
        assert_eq!(true.mem_bytes(), 1);
        assert_eq!("static".mem_bytes(), size_of::<&str>());
    }

    #[test]
    fn string_counts_capacity() {
        let mut s = String::with_capacity(64);
        s.push_str("ab");
        assert_eq!(s.mem_bytes(), size_of::<String>() + 64);
    }

    #[test]
    fn vec_counts_buffer_and_elements() {
        let v: Vec<u32> = Vec::with_capacity(8);
        assert_eq!(v.mem_bytes(), size_of::<Vec<u32>>() + 8 * 4);
        let nested: Vec<Vec<u32>> = vec![Vec::with_capacity(2), Vec::with_capacity(3)];
        let expect = size_of::<Vec<Vec<u32>>>() + 2 * size_of::<Vec<u32>>() + (2 + 3) * 4;
        assert_eq!(nested.mem_bytes(), expect);
    }

    #[test]
    fn arc_is_a_pointer() {
        let a = Arc::new(vec![0u64; 1024]);
        assert_eq!(a.mem_bytes(), size_of::<Arc<Vec<u64>>>());
    }

    #[test]
    fn footprint_is_deterministic_across_structurally_equal_values() {
        let a = (String::from("operand"), vec![1u64, 2, 3]);
        let b = (String::from("operand"), vec![1u64, 2, 3]);
        assert_eq!(a.mem_bytes(), b.mem_bytes());
    }
}
