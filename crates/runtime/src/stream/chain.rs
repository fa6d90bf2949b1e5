//! Per-task lists without per-task allocations: singly linked chains
//! threaded through one arena.
//!
//! Every live task of the window owns two short lists — its successors and
//! the transfers it owes — that grow while later tasks are inserted and are
//! consumed once, at its completion. As `Vec`s they cost an allocation (and
//! a few regrowths) per task; as chains through a shared arena whose links
//! are recycled at completion, they cost none once the arena has grown to
//! the window's population.

/// Index of a link in the arena; `NIL` ends a chain.
pub(crate) type Link = u32;
const NIL: Link = Link::MAX;

/// One list in a [`Chains`] arena: its first and last link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain {
    head: Link,
    tail: Link,
}

impl Chain {
    pub(crate) const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
    };

    /// Where a walk of the chain starts (see [`Chains::get`]).
    pub(crate) fn head(self) -> Link {
        self.head
    }
}

/// The arena: every chain's links, plus a chain of free ones.
pub(crate) struct Chains<T> {
    links: Vec<(T, Link)>,
    free: Link,
}

impl<T> Default for Chains<T> {
    fn default() -> Self {
        Chains {
            links: Vec::new(),
            free: NIL,
        }
    }
}

impl<T: Copy> Chains<T> {
    /// Append `value` to `chain`.
    pub(crate) fn push(&mut self, chain: &mut Chain, value: T) {
        let at = match self.free {
            NIL => {
                let at = Link::try_from(self.links.len()).expect("chain links fit 32 bits");
                assert_ne!(at, NIL, "chain links fit 32 bits");
                self.links.push((value, NIL));
                at
            }
            at => {
                self.free = self.links[at as usize].1;
                self.links[at as usize] = (value, NIL);
                at
            }
        };
        match chain.tail {
            NIL => chain.head = at,
            tail => self.links[tail as usize].1 = at,
        }
        chain.tail = at;
    }

    /// The value at link `at` and the link after it; `None` past the end
    /// of a chain. Walking link by link leaves the caller free to mutate
    /// everything but the arena between two steps.
    pub(crate) fn get(&self, at: Link) -> Option<(T, Link)> {
        self.links.get(at as usize).copied()
    }

    /// The values of `chain`, in the order they were pushed.
    pub(crate) fn iter(&self, chain: Chain) -> impl Iterator<Item = T> + '_ {
        let mut at = chain.head;
        std::iter::from_fn(move || {
            let (value, next) = self.get(at)?;
            at = next;
            Some(value)
        })
    }

    /// Return the links of `chain` (which must not be used again) to the
    /// free list.
    pub(crate) fn release(&mut self, chain: Chain) {
        if chain.tail != NIL {
            self.links[chain.tail as usize].1 = self.free;
            self.free = chain.head;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_keep_push_order_and_stay_apart() {
        let mut arena = Chains::default();
        let (mut a, mut b) = (Chain::EMPTY, Chain::EMPTY);
        for v in 0..5u32 {
            arena.push(&mut a, v);
            arena.push(&mut b, 100 + v);
        }
        assert_eq!(arena.iter(a).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(arena.iter(b).collect::<Vec<_>>(), [100, 101, 102, 103, 104]);
        assert_eq!(arena.iter(Chain::EMPTY).count(), 0);
    }

    #[test]
    fn released_links_are_reused_before_the_arena_grows() {
        let mut arena = Chains::default();
        let mut a = Chain::EMPTY;
        for v in 0..4u32 {
            arena.push(&mut a, v);
        }
        arena.release(a);
        arena.release(Chain::EMPTY);
        let (mut b, mut c) = (Chain::EMPTY, Chain::EMPTY);
        for v in 0..2u32 {
            arena.push(&mut b, 10 + v);
            arena.push(&mut c, 20 + v);
        }
        assert_eq!(arena.links.len(), 4, "four links serve the four pushes");
        assert_eq!(arena.iter(b).collect::<Vec<_>>(), [10, 11]);
        assert_eq!(arena.iter(c).collect::<Vec<_>>(), [20, 21]);
        arena.push(&mut b, 12);
        assert_eq!(arena.links.len(), 5);
        assert_eq!(arena.iter(b).collect::<Vec<_>>(), [10, 11, 12]);
    }
}
