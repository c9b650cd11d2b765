//! [`Queue`]: one queue threaded through the slab, with the tag its members
//! carry, their total bytes, and the eviction [`Rule`] it keeps.
//!
//! Every FIFO-family and LRU-ordered slab policy is built from these queues,
//! and each rule is written once, here ([`rule`]): what a hit does to the
//! order, and which member an eviction takes. A policy keeps only its own
//! decisions — which queue an object enters, when it moves between queues,
//! which queue gives up a victim. §3 of the paper calls FIFO-reinsertion and
//! CLOCK the same algorithm, and S3-FIFO's `EVICTM` is that algorithm over a
//! two-bit counter, so [`rule::Clock`] serves both.
//!
//! Two lists stay bare [`PackedQueue`]s, because what a `Queue` keeps does
//! not hold for them: LIRS's stack `S` links non-resident entries, whose
//! tags and bytes are not the stack's, and LRU-2's cold list charges its
//! bytes together with the warm set beside it.

use super::{DenseSlab, PackedQueue, Slot};
use cache_ds::NIL;
use std::marker::PhantomData;

/// How a [`Queue`] reorders on a hit and which member it evicts: a
/// zero-sized marker, so that each queue's rule is fixed at compile time.
pub trait Rule: Sized + std::fmt::Debug + Send + 'static {
    /// The rule's name, which the single-queue policy over it carries.
    const NAME: &'static str;

    /// A hit on member `slot`. Default: the order does not change.
    #[inline]
    fn hit(_queue: &mut Queue<Self>, _slots: &mut [Slot], _slot: u32) {}

    /// The member to evict, still linked, after any reinsertions or hand
    /// steps; `None` when the queue is empty. Default: the tail.
    #[inline]
    fn victim(queue: &mut Queue<Self>, _slots: &mut [Slot]) -> Option<u32> {
        queue.tail()
    }
}

/// The eviction rules.
pub mod rule {
    use super::{Queue, Rule, Slot, NIL};

    /// Insertion order: a hit changes nothing, eviction takes the tail.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Fifo;

    /// Recency order: a hit moves the slot to the head, eviction takes the
    /// tail.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Lru;

    /// FIFO-reinsertion: eviction takes the tail, but while the tail's
    /// counter is above 0 it moves to the head with the counter decremented.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Clock;

    /// SIEVE: a hand walks from the tail toward the head, wrapping, clearing
    /// counters in place, and evicts the first slot whose counter is 0; it
    /// rests on that slot's neighbour toward the head.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Sieve;

    impl Rule for Fifo {
        const NAME: &'static str = "FIFO";
    }

    impl Rule for Lru {
        const NAME: &'static str = "LRU";

        #[inline]
        fn hit(queue: &mut Queue<Self>, slots: &mut [Slot], slot: u32) {
            queue.links.move_to_front(slots, slot);
        }
    }

    impl Rule for Clock {
        const NAME: &'static str = "CLOCK";

        #[inline]
        fn victim(queue: &mut Queue<Self>, slots: &mut [Slot]) -> Option<u32> {
            loop {
                let tail = queue.links.tail()?;
                let s = &mut slots[tail as usize];
                if s.freq == 0 {
                    return Some(tail);
                }
                s.freq -= 1;
                queue.links.move_to_front(slots, tail);
            }
        }
    }

    impl Rule for Sieve {
        const NAME: &'static str = "SIEVE";

        #[inline]
        fn victim(queue: &mut Queue<Self>, slots: &mut [Slot]) -> Option<u32> {
            let links = &queue.links;
            let mut cur = if queue.hand != NIL {
                queue.hand
            } else {
                links.tail()?
            };
            while slots[cur as usize].freq != 0 {
                slots[cur as usize].freq = 0;
                cur = links.toward_head(slots, cur).or_else(|| links.tail())?;
            }
            // `Queue::remove` steps the hand off the victim.
            queue.hand = cur;
            Some(cur)
        }
    }
}

/// One queue of a slab policy: its links, the nonzero tag every member
/// carries, the members' total size, and its rule `R`.
///
/// Callers uphold the membership contract: `push` only detached, untagged
/// slots whose size is recorded; `hit` and `remove` only members.
#[derive(Debug)]
pub struct Queue<R> {
    links: PackedQueue,
    tag: u8,
    bytes: u64,
    /// SIEVE's next candidate, or `NIL` for "start at the tail" (always, for
    /// the other rules). When set it names a member: `remove` steps it off
    /// a slot before the slot leaves.
    pub(crate) hand: u32,
    rule: PhantomData<R>,
}

impl<R: Rule> Queue<R> {
    /// An empty queue whose members carry `tag`, which must not be 0.
    pub fn new(tag: u8) -> Self {
        assert_ne!(tag, 0, "tag 0 means not resident");
        Queue {
            links: PackedQueue::new(),
            tag,
            bytes: 0,
            hand: NIL,
            rule: PhantomData,
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> u32 {
        self.links.len()
    }

    /// True when the queue has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The members' total size.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The tail (oldest) member, or `None` when empty.
    #[inline]
    pub fn tail(&self) -> Option<u32> {
        self.links.tail()
    }

    /// Puts detached `slot` at the head, tagged, and charges its recorded
    /// size.
    #[inline]
    pub fn push(&mut self, slab: &mut DenseSlab, slot: u32) {
        self.links.push_front(&mut slab.slots, slot);
        let s = &mut slab.slots[slot as usize];
        s.tag = self.tag;
        self.bytes += u64::from(s.size);
    }

    /// A hit on member `slot`: the rule's reordering, if any.
    #[inline]
    pub fn hit(&mut self, slab: &mut DenseSlab, slot: u32) {
        R::hit(self, &mut slab.slots, slot);
    }

    /// Unlinks member `slot`, clears its tag and uncharges its size; a hand
    /// resting on it first steps toward the head.
    #[inline]
    pub fn remove(&mut self, slab: &mut DenseSlab, slot: u32) {
        if self.hand == slot {
            self.hand = self.links.toward_head(&slab.slots, slot).unwrap_or(NIL);
        }
        self.links.remove(&mut slab.slots, slot);
        let s = &mut slab.slots[slot as usize];
        s.tag = 0;
        self.bytes -= u64::from(s.size);
    }

    /// Evicts one member by the rule and returns it, already unlinked and
    /// untagged; `None` when the queue is empty.
    #[inline]
    pub fn evict(&mut self, slab: &mut DenseSlab) -> Option<u32> {
        let victim = R::victim(self, &mut slab.slots)?;
        self.remove(slab, victim);
        Some(victim)
    }

    /// Warms the next victim's slot: the hand when one is set, otherwise the
    /// tail. Victims sit untouched since insertion and therefore cold;
    /// warming them on every request keeps the eviction scan off the
    /// demand-miss path.
    #[inline]
    pub fn warm(&self, slab: &DenseSlab) {
        let hand = Some(self.hand).filter(|&h| h != NIL);
        if let Some(next) = hand.or_else(|| self.tail()) {
            slab.warm_slot(next);
        }
    }

    /// Members head → tail (validation and tests; not a hot path).
    pub fn iter<'a>(&'a self, slab: &'a DenseSlab) -> impl Iterator<Item = u32> + 'a {
        self.links.iter(&slab.slots)
    }
}

/// A [`Queue`] of any rule, as [`validate_queues`] checks it.
pub trait Members {
    /// Checks the queue on its own: its links walk exactly `len` slots, each
    /// carries the queue's tag, their sizes sum to its bytes, and any hand
    /// points at a member. Returns the `(slots, bytes)` it walked.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    fn validate(&self, slab: &DenseSlab) -> Result<(u32, u64), String>;
}

impl<R: Rule> Members for Queue<R> {
    fn validate(&self, slab: &DenseSlab) -> Result<(u32, u64), String> {
        let queue = || format!("the {} queue tagged {}", R::NAME, self.tag);
        let (mut count, mut bytes, mut hand_found) = (0u32, 0u64, self.hand == NIL);
        for slot in self.iter(slab) {
            let s = &slab.slots[slot as usize];
            if s.tag != self.tag {
                return Err(format!("slot {slot} in {} is tagged {}", queue(), s.tag));
            }
            bytes += u64::from(s.size);
            count += 1;
            hand_found |= slot == self.hand;
        }
        if count != self.len() {
            let len = self.len();
            return Err(format!("{}: links walk {count} slots, len {len}", queue()));
        }
        if bytes != self.bytes {
            let charged = self.bytes;
            return Err(format!(
                "{}: links hold {bytes} B, {charged} charged",
                queue()
            ));
        }
        if !hand_found {
            let hand = self.hand;
            return Err(format!("{}: hand at slot {hand}, not a member", queue()));
        }
        Ok((count, bytes))
    }
}

/// Structural validation shared by the slab policies: each queue passes its
/// own [`Members::validate`], and across them, they fit `capacity` and no
/// slot outside them carries a tag.
///
/// # Errors
///
/// Returns a human-readable description, prefixed by `name`, of the violated
/// invariant.
pub fn validate_queues(
    name: &str,
    capacity: u64,
    slab: &DenseSlab,
    queues: &[&dyn Members],
) -> Result<(), String> {
    let (mut queued, mut total) = (0usize, 0u64);
    for queue in queues {
        let (count, bytes) = queue.validate(slab).map_err(|e| format!("{name}: {e}"))?;
        queued += count as usize;
        total += bytes;
    }
    if total > capacity {
        return Err(format!("{name}: used {total} > capacity {capacity}"));
    }
    let tagged = slab.slots.iter().filter(|s| s.tag != 0).count();
    if tagged != queued {
        return Err(format!(
            "{name}: {tagged} slots carry a residency tag but {queued} are queued"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::rule::{Clock, Fifo, Lru, Sieve};
    use super::*;
    use cache_ds::SplitMix64;
    use std::collections::VecDeque;

    /// A plain model of one rule: members tail first, every slot's counter,
    /// and the hand as an index into the members.
    struct Model {
        order: VecDeque<u32>,
        freq: Vec<u8>,
        hand: Option<usize>,
    }

    impl Model {
        fn remove_at(&mut self, i: usize) -> u32 {
            let slot = self.order.remove(i).expect("index in range");
            self.hand = match self.hand {
                Some(h) if h > i => Some(h - 1),
                Some(h) if h == i => (i < self.order.len()).then_some(i),
                hand => hand,
            };
            slot
        }

        /// The index of the member `rule` evicts next, after its
        /// reinsertions or hand steps.
        fn victim(&mut self, rule: &str) -> Option<usize> {
            if self.order.is_empty() {
                return None;
            }
            match rule {
                "CLOCK" => loop {
                    let tail = self.order[0] as usize;
                    if self.freq[tail] == 0 {
                        return Some(0);
                    }
                    self.freq[tail] -= 1;
                    self.order.rotate_left(1);
                },
                "SIEVE" => {
                    let mut i = self.hand.unwrap_or(0);
                    while self.freq[self.order[i] as usize] != 0 {
                        self.freq[self.order[i] as usize] = 0;
                        i = (i + 1) % self.order.len();
                    }
                    self.hand = Some(i);
                    Some(i)
                }
                _ => Some(0),
            }
        }
    }

    /// Drives one queue under `R`, with hits raising counters up to `cap`,
    /// through a seeded push/hit/remove/evict sequence, checking it against
    /// the model and validating it after every operation.
    fn drive<R: Rule>(cap: u8, seed: u64) {
        const SLOTS: usize = 24;
        let mut rng = SplitMix64::new(seed);
        let mut slab = DenseSlab::with_domain(SLOTS);
        let mut queue = Queue::<R>::new(3);
        let mut model = Model {
            order: VecDeque::new(),
            freq: vec![0; SLOTS],
            hand: None,
        };
        let mut bytes = 0u64;
        for step in 0..3000 {
            let slot = rng.next_below(SLOTS as u64) as u32;
            let s = slot as usize;
            let member = model.order.iter().position(|&m| m == slot);
            match (rng.next_below(4), member) {
                (0, _) => {
                    let want = model.victim(R::NAME).map(|i| model.remove_at(i));
                    assert_eq!(queue.evict(&mut slab), want, "{} step {step}", R::NAME);
                    if let Some(v) = want {
                        bytes -= u64::from(slab.size(v));
                    }
                }
                (1, Some(i)) => {
                    queue.remove(&mut slab, slot);
                    model.remove_at(i);
                    bytes -= u64::from(slab.size(slot));
                }
                (_, Some(i)) => {
                    let f = (slab.slots[s].freq + 1).min(cap);
                    slab.slots[s].freq = f;
                    model.freq[s] = f;
                    queue.hit(&mut slab, slot);
                    if R::NAME == "LRU" {
                        model.order.remove(i);
                        model.order.push_back(slot);
                    }
                }
                (_, None) => {
                    let size = 1 + rng.next_below(4) as u32;
                    slab.slots[s].size = size;
                    slab.slots[s].freq = 0;
                    model.freq[s] = 0;
                    queue.push(&mut slab, slot);
                    model.order.push_back(slot);
                    bytes += u64::from(size);
                }
            }
            let context = format!("{} cap {cap} seed {seed} step {step}", R::NAME);
            validate_queues(&context, u64::MAX, &slab, &[&queue]).unwrap();
            let head_first: Vec<u32> = model.order.iter().rev().copied().collect();
            assert_eq!(
                queue.iter(&slab).collect::<Vec<_>>(),
                head_first,
                "{context}"
            );
            assert_eq!(
                (queue.len() as usize, queue.bytes()),
                (model.order.len(), bytes)
            );
            let hand = model.hand.map_or(NIL, |i| model.order[i]);
            assert_eq!(queue.hand, hand, "{context}");
            let freqs: Vec<u8> = slab.slots.iter().map(|s| s.freq).collect();
            assert_eq!(freqs, model.freq, "{context}");
        }
    }

    /// Every rule, from the same seeds, against its model: FIFO and LRU
    /// with a counter they ignore, CLOCK with 0, 1 and 2 counter bits, and
    /// SIEVE with its visited bit.
    #[test]
    fn each_rule_matches_its_model() {
        let table = [
            (drive::<Fifo> as fn(u8, u64), 1),
            (drive::<Lru>, 1),
            (drive::<Clock>, 0),
            (drive::<Clock>, 1),
            (drive::<Clock>, 3),
            (drive::<Sieve>, 1),
        ];
        for (drive, cap) in table {
            for seed in 0..6 {
                drive(cap, 0x51AB + seed);
            }
        }
    }
}
