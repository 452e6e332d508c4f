//! Tracing from the benchmark's own files: timed wrappers around the
//! public layer traits (trace cursor, L1 prefetcher, L2 prefetcher) and a
//! per-cell span recorder around the calls into each layer.
//!
//! The hot layers are called once per instruction or access, so their
//! time is accumulated into the enclosing span (sum of call durations plus
//! a call count) instead of recording one span per call.

use prophet_prefetch::{L1PrefetchList, L1Prefetcher, L2Decision, L2Prefetcher, MetaTableStats};
use prophet_sim_core::{TraceCursor, TraceInst, TraceSource};
use prophet_sim_mem::hierarchy::L2Event;
use prophet_sim_mem::{Addr, Pc};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Time and counts of the per-call layers, for one cell (one thread).
#[derive(Debug, Default)]
pub struct Clock {
    pub gen_ns: Cell<u64>,
    pub gen_calls: Cell<u64>,
    pub l1_ns: Cell<u64>,
    pub l1_calls: Cell<u64>,
    pub l1_requests: Cell<u64>,
    pub l2_ns: Cell<u64>,
    pub l2_calls: Cell<u64>,
}

fn add(c: &Cell<u64>, v: u64) {
    c.set(c.get() + v);
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Snapshot of a [`Clock`], for per-span deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafTimes {
    pub gen_ns: u64,
    pub gen_calls: u64,
    pub l1_ns: u64,
    pub l1_calls: u64,
    pub l1_requests: u64,
    pub l2_ns: u64,
    pub l2_calls: u64,
}

impl LeafTimes {
    fn of(c: &Clock) -> Self {
        LeafTimes {
            gen_ns: c.gen_ns.get(),
            gen_calls: c.gen_calls.get(),
            l1_ns: c.l1_ns.get(),
            l1_calls: c.l1_calls.get(),
            l1_requests: c.l1_requests.get(),
            l2_ns: c.l2_ns.get(),
            l2_calls: c.l2_calls.get(),
        }
    }

    pub fn minus(self, o: LeafTimes) -> Self {
        LeafTimes {
            gen_ns: self.gen_ns - o.gen_ns,
            gen_calls: self.gen_calls - o.gen_calls,
            l1_ns: self.l1_ns - o.l1_ns,
            l1_calls: self.l1_calls - o.l1_calls,
            l1_requests: self.l1_requests - o.l1_requests,
            l2_ns: self.l2_ns - o.l2_ns,
            l2_calls: self.l2_calls - o.l2_calls,
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.gen_ns + self.l1_ns + self.l2_ns
    }
}

/// A [`TraceSource`] whose cursors time every `next_inst`.
pub struct TimedSource<'a> {
    inner: &'a dyn TraceSource,
    clock: Rc<Clock>,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a dyn TraceSource, clock: &Rc<Clock>) -> Self {
        TimedSource {
            inner,
            clock: clock.clone(),
        }
    }
}

struct TimedCursor<'a> {
    inner: Box<dyn TraceCursor + 'a>,
    clock: Rc<Clock>,
}

impl TraceCursor for TimedCursor<'_> {
    fn next_inst(&mut self) -> Option<TraceInst> {
        let t = Instant::now();
        let inst = self.inner.next_inst();
        add(&self.clock.gen_ns, ns_since(t));
        add(&self.clock.gen_calls, inst.is_some() as u64);
        inst
    }
}

impl TraceSource for TimedSource<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn cursor(&self) -> Box<dyn TraceCursor + '_> {
        Box::new(TimedCursor {
            inner: self.inner.cursor(),
            clock: self.clock.clone(),
        })
    }
}

/// An [`L1Prefetcher`] that times every `on_l1_access`.
pub struct TimedL1 {
    inner: Box<dyn L1Prefetcher>,
    clock: Rc<Clock>,
}

impl TimedL1 {
    pub fn boxed(inner: Box<dyn L1Prefetcher>, clock: &Rc<Clock>) -> Box<dyn L1Prefetcher> {
        Box::new(TimedL1 {
            inner,
            clock: clock.clone(),
        })
    }
}

impl L1Prefetcher for TimedL1 {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_l1_access(&mut self, pc: Pc, addr: Addr, hit: bool) -> L1PrefetchList {
        let t = Instant::now();
        let reqs = self.inner.on_l1_access(pc, addr, hit);
        add(&self.clock.l1_ns, ns_since(t));
        add(&self.clock.l1_calls, 1);
        add(&self.clock.l1_requests, reqs.len() as u64);
        reqs
    }
}

/// An [`L2Prefetcher`] that times every `on_l2_access`.
pub struct TimedL2 {
    inner: Box<dyn L2Prefetcher>,
    clock: Rc<Clock>,
}

impl TimedL2 {
    pub fn boxed(inner: Box<dyn L2Prefetcher>, clock: &Rc<Clock>) -> Box<dyn L2Prefetcher> {
        Box::new(TimedL2 {
            inner,
            clock: clock.clone(),
        })
    }
}

impl L2Prefetcher for TimedL2 {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_l2_access(&mut self, ev: &L2Event) -> L2Decision {
        let t = Instant::now();
        let d = self.inner.on_l2_access(ev);
        add(&self.clock.l2_ns, ns_since(t));
        add(&self.clock.l2_calls, 1);
        d
    }

    fn meta_ways(&self) -> usize {
        self.inner.meta_ways()
    }

    fn meta_stats(&self) -> MetaTableStats {
        self.inner.meta_stats()
    }
}

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Per-call layer time spent inside this span, nested spans included.
    pub leaf: LeafTimes,
    /// The layer the L2-prefetcher time inside this span belongs to.
    pub l2_layer: &'static str,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one cell. Spans nest through [`Recorder::span`].
pub struct Recorder {
    origin: Instant,
    clock: Rc<Clock>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            clock: Rc::new(Clock::default()),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock the timed wrappers of this cell accumulate into.
    pub fn clock(&self) -> &Rc<Clock> {
        &self.clock
    }

    /// Runs `f` inside a span named `name`; L2-prefetcher time observed
    /// inside it is attributed to `l2_layer`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        l2_layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            leaf: LeafTimes::default(),
            l2_layer,
        });
        self.open.push(idx);
        let before = LeafTimes::of(&self.clock);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        span.leaf = LeafTimes::of(&self.clock).minus(before);
        self.open.pop();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}
