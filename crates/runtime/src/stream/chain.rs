//! Per-task lists without per-task allocations: singly linked chains
//! threaded through one arena.
//!
//! Every live task of the window owns two short lists — its successors and
//! the transfers it owes — that grow while later tasks are inserted and are
//! consumed once, at its completion. As `Vec`s they cost an allocation (and
//! a few regrowths) per task; as chains through a shared arena whose links
//! are recycled at completion, they cost none once the arena has grown to
//! the window's population. Free links wait on a stack rather than a chain
//! of their own: taking one then reads the stack's top, not a link last
//! touched when its old chain was consumed.

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

    /// Where a walk of the chain starts (see [`Chains::take`]).
    pub(crate) fn head(self) -> Link {
        self.head
    }
}

/// The arena: every chain's links, plus the free ones.
pub(crate) struct Chains<T> {
    links: Vec<(T, Link)>,
    free: Vec<Link>,
}

impl<T> Default for Chains<T> {
    fn default() -> Self {
        Chains {
            links: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Copy> Chains<T> {
    /// Append `value` to `chain`.
    pub(crate) fn push(&mut self, chain: &mut Chain, value: T) {
        let at = match self.free.pop() {
            None => {
                let at = Link::try_from(self.links.len()).expect("chain links fit 32 bits");
                assert_ne!(at, NIL, "chain links fit 32 bits");
                self.links.push((value, NIL));
                at
            }
            Some(at) => {
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

    /// Consume link `at` of a chain that is being used up: its value and
    /// the link after it, `None` past the end. The link goes back to the
    /// free stack, so a chain walked to its end with `take` (from
    /// [`Chain::head`]) is released and must not be used again. Walking
    /// link by link leaves the caller free to mutate everything but the
    /// arena between two steps.
    pub(crate) fn take(&mut self, at: Link) -> Option<(T, Link)> {
        let link = *self.links.get(at as usize)?;
        self.free.push(at);
        Some(link)
    }

    /// The values of `chain`, in the order they were pushed.
    #[cfg(test)]
    pub(crate) fn iter(&self, chain: Chain) -> impl Iterator<Item = T> + '_ {
        let mut at = chain.head;
        std::iter::from_fn(move || {
            let (value, next) = *self.links.get(at as usize)?;
            at = next;
            Some(value)
        })
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
        let mut at = a.head();
        while let Some((_, next)) = arena.take(at) {
            at = next;
        }
        assert_eq!(arena.take(Chain::EMPTY.head()), None);
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
