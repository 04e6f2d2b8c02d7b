//! Token channels: the handshake-protocol communication resources.
//!
//! Every channel is point-to-point (one producer port, one consumer port;
//! fan-out is modelled as several channels from the same port). Objects make
//! fire/stall decisions against the channel state *at the start of the
//! cycle*; consumptions and productions are staged and committed at the end
//! of the cycle, which makes the simulation order-independent and reproduces
//! the hardware's synchronous token movement.

use std::collections::VecDeque;

/// Tokens stored inline inside the channel (no heap indirection). Channels
/// up to this capacity — which covers the default capacity 2 and the
/// capacity-4 streaming netlists — never touch the heap, so the hot
/// stepping loop reads only the contiguous channel slab.
const INLINE_TOKENS: usize = 4;

/// A bounded token channel.
///
/// Capacity 2 (one output register plus one forward register) sustains one
/// token per cycle through a pipeline; capacity 1 halves throughput — this is
/// the `ablation_channel_capacity` experiment.
///
/// Occupancy, capacity and the staged flags are plain fields, so the
/// predicates every fire decision reads ([`has_token`](Self::has_token),
/// [`has_space`](Self::has_space), [`is_staged`](Self::is_staged)) never
/// dispatch on how the tokens are stored. The oldest four tokens always sit
/// in the inline ring; only a deep (pipeline-balancing) channel ever holds
/// more, and keeps the rest in a heap spill that only
/// [`commit_wakes`](Self::commit_wakes) touches.
#[derive(Debug, Clone)]
pub struct Channel<T> {
    ring: [T; INLINE_TOKENS],
    /// The token [`produce`](Self::produce) staged (valid while
    /// `staged_push`).
    pushed: T,
    /// Committed tokens, the spill's included.
    len: usize,
    capacity: usize,
    head: u8,
    staged_pop: bool,
    staged_push: bool,
    /// Committed tokens beyond the inline ring, oldest first.
    spill: VecDeque<T>,
}

impl<T: Copy + Default> Channel<T> {
    /// Creates a channel with the given capacity and initial tokens.
    ///
    /// # Panics
    ///
    /// Panics if the initial tokens exceed the capacity or capacity is 0
    /// (the netlist builder validates this earlier).
    pub fn new(capacity: usize, initial: impl IntoIterator<Item = T>) -> Self {
        assert!(capacity >= 1, "channel capacity must be at least 1");
        let mut ch = Channel {
            ring: [T::default(); INLINE_TOKENS],
            pushed: T::default(),
            len: 0,
            capacity,
            head: 0,
            staged_pop: false,
            staged_push: false,
            spill: VecDeque::new(),
        };
        for t in initial {
            assert!(ch.len < capacity, "initial tokens exceed capacity");
            ch.push_back(t);
        }
        ch
    }

    #[inline]
    fn push_back(&mut self, t: T) {
        if self.len < INLINE_TOKENS {
            self.ring[(self.head as usize + self.len) % INLINE_TOKENS] = t;
        } else {
            self.spill.push_back(t);
        }
        self.len += 1;
    }

    /// True if a token is available for consumption this cycle.
    #[inline]
    pub fn has_token(&self) -> bool {
        self.len != 0
    }

    /// The token that would be consumed this cycle.
    #[inline]
    pub fn peek(&self) -> Option<T> {
        self.has_token().then(|| self.ring[self.head as usize])
    }

    /// Stages consumption of the front token and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the channel is empty and (in debug builds) if it was
    /// already consumed this cycle; callers gate on [`Self::has_token`]
    /// first.
    #[inline]
    pub fn consume(&mut self) -> T {
        debug_assert!(!self.staged_pop, "channel consumed twice in one cycle");
        self.staged_pop = true;
        match self.peek() {
            Some(v) => v,
            None => panic!("consume from empty channel"),
        }
    }

    /// True if the producer may emit into this channel this cycle
    /// (conservative: based on start-of-cycle occupancy).
    #[inline]
    pub fn has_space(&self) -> bool {
        !self.staged_push && self.len < self.capacity
    }

    /// Stages production of a token.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the channel has no space or was already
    /// produced into; callers gate on [`Self::has_space`] first.
    #[inline]
    pub fn produce(&mut self, value: T) {
        debug_assert!(self.has_space(), "produce into full channel");
        self.staged_push = true;
        self.pushed = value;
    }

    /// True if a consume or produce has been staged this cycle — i.e. the
    /// channel belongs on the dirty-commit list.
    #[inline]
    pub fn is_staged(&self) -> bool {
        self.staged_pop | self.staged_push
    }

    /// Commits staged operations at the end of a cycle. Returns `true` if
    /// any token moved (used for idle detection).
    #[inline]
    pub fn commit(&mut self) -> bool {
        let (moved, _, _) = self.commit_wakes();
        moved
    }

    /// Commits staged operations and reports scheduler-relevant transitions:
    /// `(moved, freed_space, gained_token)`. `freed_space` means the channel
    /// went full→not-full (its producer may have been unblocked on it);
    /// `gained_token` means it went empty→non-empty (its consumer may have
    /// been unblocked). An object whose blocking predicate did not
    /// transition cannot have become fireable through this channel, so these
    /// two flags are exactly the wakes the ready-list stepper needs.
    #[inline]
    pub fn commit_wakes(&mut self) -> (bool, bool, bool) {
        let (pop, push) = (self.staged_pop, self.staged_push);
        let before = self.len;
        if pop {
            debug_assert!(before > 0);
            self.staged_pop = false;
            self.head = (self.head + 1) % INLINE_TOKENS as u8;
            self.len -= 1;
            // A deep channel refills the ring slot the pop just vacated
            // (now the ring's tail) with its oldest spilled token.
            if let Some(t) = self.spill.pop_front() {
                self.ring[(self.head as usize + INLINE_TOKENS - 1) % INLINE_TOKENS] = t;
            }
        }
        if push {
            debug_assert!(self.len < self.capacity);
            self.staged_push = false;
            self.push_back(self.pushed);
        }
        (
            pop | push,
            pop && before == self.capacity,
            push && before == 0,
        )
    }

    /// Current occupancy (committed tokens).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no committed tokens are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produce_consume_commit_cycle() {
        let mut ch: Channel<i32> = Channel::new(2, []);
        assert!(!ch.has_token());
        assert!(ch.has_space());
        ch.produce(5);
        // Not visible until commit.
        assert!(!ch.has_token());
        assert!(ch.commit());
        assert!(ch.has_token());
        assert_eq!(ch.peek(), Some(5));
        assert_eq!(ch.consume(), 5);
        // Still visible until commit.
        assert!(ch.has_token());
        assert!(ch.commit());
        assert!(!ch.has_token());
    }

    #[test]
    fn same_cycle_produce_and_consume_pipeline() {
        // Steady state: one token in flight, both producer and consumer act
        // every cycle — sustained throughput 1/cycle at capacity 2.
        let mut ch: Channel<i32> = Channel::new(2, [1]);
        for n in 2..10 {
            assert!(ch.has_token());
            assert!(ch.has_space());
            let got = ch.consume();
            assert_eq!(got, n - 1);
            ch.produce(n);
            ch.commit();
            assert_eq!(ch.len(), 1);
        }
    }

    #[test]
    fn capacity_one_blocks_simultaneous_use() {
        let mut ch: Channel<i32> = Channel::new(1, [1]);
        assert!(ch.has_token());
        assert!(!ch.has_space()); // full: producer must stall
        ch.consume();
        ch.commit();
        assert!(ch.has_space());
    }

    #[test]
    fn initial_tokens_present() {
        let ch: Channel<i32> = Channel::new(2, [7, 8]);
        assert_eq!(ch.len(), 2);
        assert_eq!(ch.peek(), Some(7));
    }

    #[test]
    #[should_panic]
    fn overfull_initial_rejected() {
        let _ = Channel::new(1, [1, 2]);
    }

    // The next two guards are `debug_assert!`s (stepping hot path), which
    // release builds compile out by design, so the tests exist only in debug.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn double_consume_panics() {
        let mut ch: Channel<i32> = Channel::new(2, [1]);
        ch.consume();
        ch.consume();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn produce_into_full_panics() {
        let mut ch: Channel<i32> = Channel::new(1, [1]);
        ch.produce(2);
    }

    #[test]
    fn deep_channel_keeps_fifo_order_through_the_spill() {
        // Capacity beyond the inline ring: fill, then stream with the
        // channel held full so every pop refills the ring from the spill.
        let mut ch: Channel<i32> = Channel::new(7, [0, 1, 2]);
        for n in 3..7 {
            ch.produce(n);
            assert_eq!(ch.commit_wakes(), (true, false, false));
        }
        assert_eq!(ch.len(), 7);
        assert!(!ch.has_space());
        for n in 0..20 {
            assert_eq!(ch.consume(), n);
            let (_, freed, gained) = ch.commit_wakes();
            assert!(freed && !gained);
            ch.produce(n + 7);
            ch.commit();
        }
        for n in 20..27 {
            assert_eq!(ch.peek(), Some(n));
            ch.consume();
            ch.commit();
        }
        assert!(ch.is_empty());
    }

    #[test]
    fn commit_reports_movement() {
        let mut ch: Channel<i32> = Channel::new(2, []);
        assert!(!ch.commit());
        ch.produce(1);
        assert!(ch.commit());
        assert!(!ch.commit());
    }
}
