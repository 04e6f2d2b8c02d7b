//! Token channels: the handshake-protocol communication resources.
//!
//! Every channel is point-to-point (one producer port, one consumer port;
//! fan-out is modelled as several channels from the same port). Objects make
//! fire/stall decisions against the channel state *at the start of the
//! cycle*; consumptions and productions are staged and committed at the end
//! of the cycle, which makes the simulation order-independent and reproduces
//! the hardware's synchronous token movement.
//!
//! Capacity 2 (one output register plus one forward register) sustains one
//! token per cycle through a pipeline; capacity 1 halves throughput — this is
//! the `ablation_channel_capacity` experiment.
//!
//! A loaded configuration keeps all of its channels, data and event alike,
//! in one [`Slab`]: a `u8` head, length and capacity per channel plus a
//! power-of-two token ring per channel, every ring cut from one token
//! vector. One layout serves every capacity up to [`MAX_CAPACITY`], and no
//! channel ever touches the heap after it is built.

use crate::word::{Event, Word};

/// The deepest channel a configuration may hold: occupancy and ring
/// positions are `u8`.
pub(crate) const MAX_CAPACITY: usize = 255;

/// One channel's bookkeeping. Its ring is `ring[base..=base + mask]`, the
/// next power of two above the capacity, so the tail slot is free whenever
/// a producer may write it and a staged token waits there, invisible,
/// until the commit counts it.
///
/// `occ` packs the committed length (low byte) and a free-running head
/// (high byte; the ring index is `head & mask`, which a power-of-two ring
/// no larger than 256 allows). `staged` is this cycle's change to `occ`:
/// a consumption adds 255 (length −1, head +1), a production 1, so the
/// commit is one add.
#[derive(Debug, Clone, Copy)]
struct Meta {
    base: u32,
    occ: u16,
    staged: u16,
    cap: u8,
    mask: u8,
}

/// What a consumption adds to `occ`: one off the length, one on the head.
const POP: u16 = 0x00FF;

impl Meta {
    #[inline]
    fn len(&self) -> u8 {
        self.occ as u8
    }

    #[inline]
    fn head(&self) -> usize {
        usize::from(self.occ >> 8) & usize::from(self.mask)
    }
}

/// Every channel of one configuration: data channels first, then event
/// channels (events ride as the words 0 and 1), then one *null* channel.
///
/// The null channel stands in for every unconnected port: it never holds a
/// token, always has space, is never committed, and what is produced into
/// it is lost — exactly how an unconnected input never fires and an
/// unconnected output discards.
#[derive(Debug, Clone)]
pub(crate) struct Slab {
    meta: Vec<Meta>,
    ring: Vec<Word>,
}

impl Slab {
    /// Builds the slab for channels given as `(capacity, initial tokens)`,
    /// in slot order.
    ///
    /// # Panics
    ///
    /// Panics if a capacity is 0 or above [`MAX_CAPACITY`], or the initial
    /// tokens exceed it (the netlist builder validates the last earlier).
    pub(crate) fn new<'a>(channels: impl IntoIterator<Item = (usize, &'a [Word])>) -> Slab {
        let mut slab = Slab {
            meta: Vec::new(),
            ring: Vec::new(),
        };
        for (capacity, initial) in channels {
            assert!(
                (1..=MAX_CAPACITY).contains(&capacity),
                "channel capacity must be 1..={MAX_CAPACITY}, not {capacity}"
            );
            assert!(initial.len() <= capacity, "initial tokens exceed capacity");
            slab.add(capacity, initial);
        }
        // The null channel: one slot, no capacity to lose, never committed.
        slab.add(1, &[]);
        slab
    }

    fn add(&mut self, capacity: usize, initial: &[Word]) {
        let size = (capacity + 1).next_power_of_two();
        let base = u32::try_from(self.ring.len()).expect("token slab fits u32");
        self.ring.extend_from_slice(initial);
        self.ring
            .resize(self.ring.len() + size - initial.len(), Word::ZERO);
        self.meta.push(Meta {
            base,
            occ: initial.len() as u16,
            staged: 0,
            cap: capacity as u8,
            mask: (size - 1) as u8,
        });
    }

    /// The slot of the null channel.
    pub(crate) fn null(&self) -> u32 {
        (self.meta.len() - 1) as u32
    }

    /// The channels as the steppers read and write them: two slices, so a
    /// stepping loop keeps both in registers instead of reloading them
    /// through the slab after every store.
    #[inline]
    pub(crate) fn chans(&mut self) -> Chans<'_> {
        Chans {
            meta: &mut self.meta,
            ring: &mut self.ring,
        }
    }
}

/// A [`Slab`]'s channels, borrowed for one stepping pass.
pub(crate) struct Chans<'a> {
    meta: &'a mut [Meta],
    ring: &'a mut [Word],
}

impl Chans<'_> {
    /// True if channel `c` holds a committed token. Out-of-range slots
    /// (the reference stepper's unconnected-port sentinel) read as empty.
    #[inline]
    pub(crate) fn has(&self, c: u32) -> bool {
        self.meta.get(c as usize).is_some_and(|m| m.len() != 0)
    }

    /// True if channel `c` may take a token this cycle (start-of-cycle
    /// occupancy; each channel has one producer, visited once a cycle).
    #[inline]
    pub(crate) fn space(&self, c: u32) -> bool {
        let m = &self.meta[c as usize];
        m.len() < m.cap
    }

    /// The token a consumption would take this cycle (the head slot; stale
    /// when the channel is empty).
    #[inline]
    pub(crate) fn peek(&self, c: u32) -> Word {
        let m = &self.meta[c as usize];
        self.ring[m.base as usize + m.head()]
    }

    /// Stages consumption of the front token and returns it. The caller
    /// gates on [`Self::has`] first.
    #[inline]
    pub(crate) fn take(&mut self, c: u32) -> Word {
        let m = &mut self.meta[c as usize];
        debug_assert!(m.len() != 0, "consume from empty channel");
        debug_assert!(m.staged < POP, "channel consumed twice in one cycle");
        m.staged = m.staged.wrapping_add(POP);
        self.ring[m.base as usize + m.head()]
    }

    /// Stages production of `v`: it waits in the free tail slot until the
    /// commit counts it. The caller gates on [`Self::space`] first.
    #[inline]
    pub(crate) fn put(&mut self, c: u32, v: Word) {
        let null = c as usize + 1 == self.meta.len();
        let m = &mut self.meta[c as usize];
        debug_assert!(m.len() < m.cap, "produce into full channel");
        debug_assert!(
            null || m.staged.is_multiple_of(POP),
            "channel produced into twice"
        );
        m.staged = m.staged.wrapping_add(1);
        let tail = (usize::from(m.occ >> 8) + usize::from(m.len())) & usize::from(m.mask);
        self.ring[m.base as usize + tail] = v;
    }

    /// [`Self::take`] for an event channel.
    #[inline]
    pub(crate) fn take_ev(&mut self, c: u32) -> Event {
        Event(self.take(c) != Word::ZERO)
    }

    /// [`Self::peek`] for an event channel.
    #[inline]
    pub(crate) fn peek_ev(&self, c: u32) -> Event {
        Event(self.peek(c) != Word::ZERO)
    }

    /// [`Self::put`] for an event channel.
    #[cfg(any(test, feature = "reference"))]
    #[inline]
    pub(crate) fn put_ev(&mut self, c: u32, e: Event) {
        self.put(c, Word::new(i32::from(e.0)));
    }

    /// Commits every channel's staged operations at the end of a cycle:
    /// one add each, no branch.
    #[inline]
    pub(crate) fn commit(&mut self) {
        let (_null, channels) = self.meta.split_last_mut().expect("null channel");
        for m in channels {
            m.occ = m.occ.wrapping_add(m.staged);
            m.staged = 0;
        }
    }

    /// Committed tokens on channel `c`.
    #[cfg(test)]
    fn len(&self, c: u32) -> usize {
        usize::from(self.meta[c as usize].len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: i32) -> Word {
        Word::new(v)
    }

    fn one(capacity: usize, initial: &[Word]) -> Slab {
        Slab::new([(capacity, initial)])
    }

    #[test]
    fn produce_consume_commit_cycle() {
        let mut slab = one(2, &[]);
        let mut ch = slab.chans();
        assert!(!ch.has(0));
        assert!(ch.space(0));
        ch.put(0, w(5));
        // Not visible until commit.
        assert!(!ch.has(0));
        ch.commit();
        assert!(ch.has(0));
        assert_eq!(ch.peek(0), w(5));
        assert_eq!(ch.take(0), w(5));
        // Still visible until commit.
        assert!(ch.has(0));
        ch.commit();
        assert!(!ch.has(0));
    }

    #[test]
    fn same_cycle_produce_and_consume_pipeline() {
        // Steady state: one token in flight, both producer and consumer act
        // every cycle — sustained throughput 1/cycle at capacity 2.
        let mut slab = one(2, &[w(1)]);
        let mut ch = slab.chans();
        for n in 2..10 {
            assert!(ch.has(0));
            assert!(ch.space(0));
            assert_eq!(ch.take(0), w(n - 1));
            ch.put(0, w(n));
            ch.commit();
            assert_eq!(ch.len(0), 1);
        }
    }

    #[test]
    fn capacity_one_blocks_simultaneous_use() {
        let mut slab = one(1, &[w(1)]);
        let mut ch = slab.chans();
        assert!(ch.has(0));
        assert!(!ch.space(0)); // full: producer must stall
        ch.take(0);
        ch.commit();
        assert!(ch.space(0));
    }

    #[test]
    fn initial_tokens_present() {
        let mut slab = one(2, &[w(7), w(8)]);
        let ch = slab.chans();
        assert_eq!(ch.len(0), 2);
        assert_eq!(ch.peek(0), w(7));
    }

    #[test]
    #[should_panic]
    fn overfull_initial_rejected() {
        let _ = one(1, &[w(1), w(2)]);
    }

    #[test]
    #[should_panic]
    fn capacity_beyond_a_u8_rejected() {
        let _ = one(MAX_CAPACITY + 1, &[]);
    }

    // The next two guards are `debug_assert!`s (stepping hot path), which
    // release builds compile out by design, so the tests exist only in debug.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn double_consume_panics() {
        let mut slab = one(2, &[w(1)]);
        let mut ch = slab.chans();
        ch.take(0);
        ch.take(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn produce_into_full_panics() {
        let mut slab = one(1, &[w(1)]);
        let mut ch = slab.chans();
        ch.put(0, w(2));
    }

    #[test]
    fn deep_channels_keep_fifo_order_held_full() {
        // Every capacity up to the largest, a power of two or not: fill,
        // then stream with the channel held full so the ring wraps many
        // times, then drain.
        for capacity in [3, 4, 7, 8, 9, MAX_CAPACITY] {
            let first: Vec<Word> = (0..3).map(w).collect();
            let mut slab = one(capacity, &first);
            let mut ch = slab.chans();
            let cap = capacity as i32;
            for n in 3..cap {
                ch.put(0, w(n));
                ch.commit();
            }
            assert_eq!(ch.len(0), capacity);
            assert!(!ch.space(0));
            for n in 0..3 * cap {
                assert_eq!(ch.take(0), w(n));
                ch.commit();
                assert!(ch.space(0));
                ch.put(0, w(n + cap));
                ch.commit();
            }
            for n in 3 * cap..4 * cap {
                assert_eq!(ch.peek(0), w(n));
                ch.take(0);
                ch.commit();
            }
            assert!(!ch.has(0));
        }
    }

    #[test]
    fn channels_of_one_slab_are_independent() {
        let mut slab = Slab::new([(2, &[w(1)][..]), (1, &[][..]), (4, &[w(2), w(3)][..])]);
        assert_eq!(slab.null(), 3);
        let mut s = slab.chans();
        s.take(0);
        s.put(1, w(9));
        s.put(2, w(4));
        s.commit();
        assert_eq!((s.len(0), s.len(1), s.len(2)), (0, 1, 3));
        assert_eq!((s.peek(1), s.peek(2)), (w(9), w(2)));
    }

    #[test]
    fn the_null_channel_is_empty_bottomless_and_never_committed() {
        let mut slab = one(2, &[]);
        let null = slab.null();
        let mut s = slab.chans();
        for n in 0..10 {
            assert!(!s.has(null));
            assert!(s.space(null));
            s.put(null, w(n));
            s.commit();
        }
        assert!(!s.has(null) && !s.has(u32::MAX));
    }

    #[test]
    fn events_ride_as_zero_and_one() {
        let mut slab = one(2, &[]);
        let mut s = slab.chans();
        s.put_ev(0, Event(true));
        s.commit();
        assert_eq!(s.peek(0), Word::ONE);
        assert_eq!(s.take_ev(0), Event(true));
        s.commit();
        s.put_ev(0, Event(false));
        s.commit();
        assert_eq!(s.peek_ev(0), Event(false));
    }
}
