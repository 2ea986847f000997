//! Callback spans recorded from the benchmark's own closures, and their
//! attribution to wall time.
//!
//! The engine runs a callback on several executor threads at once, so the
//! callbacks' summed thread time can exceed the wall time of the aggregate
//! call around them. [`attribute`] instead splits every instant of wall time
//! equally among the callbacks running at that instant. The shares then sum
//! to the wall time covered by at least one callback, and the rest of the
//! aggregate call is the engine's own time (scheduling, codec, wire, waits).
//!
//! `seqOp` runs once per sample, hundreds of thousands of times per op, so
//! it is not timed call by call. [`seq_mark`] counts every call and reads
//! the clock at every [`SEQ_SAMPLE`]-th call of a thread; readings less
//! than [`SEQ_GAP_NS`] apart extend one open span. A fold over a partition
//! thus becomes one span that misses at most `SEQ_SAMPLE` calls at either
//! end, and a pause between folds longer than the gap starts a new span.
//! The other callbacks run a few times per op and are timed call by call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The SAI callbacks the traced loop wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    Seq = 0,
    Merge = 1,
    Split = 2,
    Reduce = 3,
    Concat = 4,
}

pub const CALLBACKS: usize = 5;

/// `seqOp` calls per clock reading on a thread.
pub const SEQ_SAMPLE: u64 = 16;

/// Two clock readings of `seqOp` calls on one thread closer than this
/// belong to one span. It exceeds the time of `SEQ_SAMPLE` calls on the
/// cache-missing wide aggregator.
pub const SEQ_GAP_NS: u64 = 100_000;

/// No `seqOp` span is open on the thread.
const CLOSED: u64 = u64::MAX;

/// A closed span, in nanoseconds since [`origin`].
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u64,
    end: u64,
    kind: Callback,
}

/// One thread's spans. Only the owning thread writes the atomics, so they
/// are read and written with plain relaxed loads and stores; [`attribute`]
/// reads them after the engine has handed the results back, which orders
/// the writes before the reads.
#[derive(Debug)]
struct Slot {
    spans: Mutex<Vec<Span>>,
    seq_start: AtomicU64,
    seq_end: AtomicU64,
    seq_calls: AtomicU64,
}

impl Default for Slot {
    fn default() -> Self {
        Self {
            spans: Mutex::default(),
            seq_start: AtomicU64::new(CLOSED),
            seq_end: AtomicU64::new(0),
            seq_calls: AtomicU64::new(0),
        }
    }
}

impl Slot {
    /// Moves the open `seqOp` span, if any, to the closed spans.
    fn close_seq(&self) {
        let start = self.seq_start.swap(CLOSED, Ordering::Relaxed);
        if start != CLOSED {
            let end = self.seq_end.load(Ordering::Relaxed);
            self.push(Span {
                start,
                end,
                kind: Callback::Seq,
            });
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

fn registry() -> &'static Mutex<Vec<Arc<Slot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<Slot> = {
        let slot = Arc::new(Slot::default());
        registry()
            .lock()
            .expect("span registry poisoned")
            .push(slot.clone());
        slot
    };
}

/// Marks the start of one `seqOp` call on this thread.
pub fn seq_mark() {
    LOCAL.with(|slot| {
        let calls = slot.seq_calls.load(Ordering::Relaxed);
        slot.seq_calls.store(calls + 1, Ordering::Relaxed);
        if calls % SEQ_SAMPLE != 0 {
            return;
        }
        let t = now_ns();
        let open = slot.seq_start.load(Ordering::Relaxed) != CLOSED;
        if open && t.saturating_sub(slot.seq_end.load(Ordering::Relaxed)) < SEQ_GAP_NS {
            slot.seq_end.store(t, Ordering::Relaxed);
            return;
        }
        slot.close_seq();
        slot.seq_start.store(t, Ordering::Relaxed);
        slot.seq_end.store(t, Ordering::Relaxed);
    });
}

/// Times `f` as one invocation of `kind` (any callback but `seqOp`).
pub fn timed<R>(kind: Callback, f: impl FnOnce() -> R) -> R {
    debug_assert_ne!(kind, Callback::Seq, "seqOp calls go through seq_mark");
    let start = now_ns();
    let r = f();
    let end = now_ns();
    LOCAL.with(|slot| {
        // A fold on this thread has ended; the span must not stretch over
        // this call.
        slot.close_seq();
        slot.push(Span { start, end, kind });
    });
    r
}

/// Per-callback wall-time shares and call counts of the spans recorded
/// since the last drain.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    /// Wall seconds attributed to each [`Callback`].
    pub share_s: [f64; CALLBACKS],
    /// Invocations of each [`Callback`].
    pub calls: [u64; CALLBACKS],
    /// Wall seconds during which at least one callback ran.
    pub covered_s: f64,
}

impl Attribution {
    pub fn add(&mut self, o: &Attribution) {
        for k in 0..CALLBACKS {
            self.share_s[k] += o.share_s[k];
            self.calls[k] += o.calls[k];
        }
        self.covered_s += o.covered_s;
    }
}

/// Drains every thread's spans and attributes them to wall time. Call only
/// while no callback is running.
pub fn attribute() -> Attribution {
    let mut out = Attribution::default();
    let mut spans = Vec::new();
    for slot in registry().lock().expect("span registry poisoned").iter() {
        slot.close_seq();
        out.calls[Callback::Seq as usize] += slot.seq_calls.swap(0, Ordering::Relaxed);
        spans.extend(std::mem::take(
            &mut *slot.spans.lock().expect("span buffer poisoned"),
        ));
    }
    // (time, +1 start / -1 end, kind), ends before starts at equal times.
    let mut events: Vec<(u64, i8, usize)> = Vec::with_capacity(spans.len() * 2);
    for s in &spans {
        let k = s.kind as usize;
        if s.kind != Callback::Seq {
            out.calls[k] += 1;
        }
        events.push((s.start, 1, k));
        events.push((s.end, -1, k));
    }
    events.sort_unstable();
    let mut active = [0u32; CALLBACKS];
    let mut total = 0u32;
    let mut last = 0u64;
    for (t, delta, k) in events {
        if total > 0 && t > last {
            let dt = (t - last) as f64 * 1e-9;
            out.covered_s += dt;
            for (share, &n) in out.share_s.iter_mut().zip(&active) {
                *share += dt * f64::from(n) / f64::from(total);
            }
        }
        last = t;
        if delta > 0 {
            active[k] += 1;
            total += 1;
        } else {
            active[k] -= 1;
            total -= 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // One test: `attribute` drains every thread's spans, so tests running
    // in parallel would drain each other's.
    #[test]
    fn spans_merge_and_share_wall_time() {
        let ms = |n: u64| n * 1_000_000;
        let slot = Arc::new(Slot::default());
        for (start, end, kind) in [
            (0, 10, Callback::Seq),
            (5, 15, Callback::Merge),
            (20, 30, Callback::Concat),
        ] {
            slot.push(Span {
                start: ms(start),
                end: ms(end),
                kind,
            });
        }
        registry().lock().unwrap().push(slot);
        let a = attribute();
        let close = |x: f64, y: f64| (x - y).abs() < 1e-9;
        assert!(close(a.covered_s, 0.025), "{a:?}");
        assert!(close(a.share_s[Callback::Seq as usize], 0.0075), "{a:?}");
        assert!(close(a.share_s[Callback::Merge as usize], 0.0075), "{a:?}");
        assert!(close(a.share_s[Callback::Concat as usize], 0.010), "{a:?}");
        assert_eq!(a.calls, [0, 1, 0, 0, 1]);

        // Back-to-back seqOp calls form one span; a pause longer than the
        // gap, or another callback, starts a new one.
        let before = now_ns();
        let calls = SEQ_SAMPLE * 100;
        for _ in 0..calls {
            seq_mark();
        }
        std::thread::sleep(Duration::from_millis(2));
        seq_mark();
        timed(Callback::Merge, || ());
        for _ in 0..SEQ_SAMPLE {
            seq_mark();
        }
        let spans_now = LOCAL.with(|slot| slot.spans.lock().unwrap().len());
        assert_eq!(spans_now, 3, "two closed seqOp spans and one merge");
        let a = attribute();
        assert_eq!(a.calls, [calls + 1 + SEQ_SAMPLE, 1, 0, 0, 0]);
        assert!(a.covered_s < (now_ns() - before) as f64 * 1e-9);
        assert!(a.share_s[Callback::Seq as usize] < 0.002, "{a:?}");
    }
}
