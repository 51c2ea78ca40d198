//! The load generator: one client, hosted in this process as a
//! `TcpNode<MulticastClient>`, driven by the calling thread.
//!
//! Closed loop for the four workloads (the next multicast is submitted only
//! when an earlier one is acknowledged, so `window` are always in flight);
//! open loop for the fault probe (sends follow a schedule, and each latency
//! is measured from the message's *due* time).

use std::collections::HashMap;
use std::time::Duration;

use wbam_core::WhiteBoxMsg;
use wbam_runtime::TcpNode;
use wbam_types::AppMessage;

use crate::check::Acked;
use crate::procfs::{self, CpuTimes, ProcSample};
use crate::reference::Reference;
use crate::stats::{OpenLoopSchedule, Slice};
use crate::workload::Generator;

/// A multicast not acknowledged within this long counts as failed, and a
/// run in which nothing is acknowledged for this long is aborted.
pub const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// One multicast as the client saw it: the span the traced pass records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulticastSpan {
    /// Sender-local sequence number (with the client's process id, the
    /// message id).
    pub seq: u64,
    /// Whether the message was addressed to more than one group.
    pub cross_group: bool,
    /// Submit time on the client node's clock (for an open-loop message, its
    /// due time).
    pub start: Duration,
    /// Time the `ClientReply` was processed.
    pub end: Duration,
}

impl MulticastSpan {
    /// Submit → reply.
    pub fn latency(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// What one measured window produced.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// One entry per slice, in order.
    pub slices: Vec<Slice>,
    /// Submit → reply of every multicast acknowledged inside a slice of the
    /// window, ns, as measured, in slice order: the first `slices[0].acked`
    /// entries belong to the first slice, and so on.
    pub latencies_ns: Vec<u64>,
    /// Traced windows only: one span per acknowledged multicast.
    pub spans: Vec<MulticastSpan>,
    /// Traced windows only: `/proc` samples of the watched processes at the
    /// window's start and end, in the order the pids were given (this
    /// process last).
    pub proc_before: Vec<ProcSample>,
    /// See [`Self::proc_before`].
    pub proc_after: Vec<ProcSample>,
}

impl Window {
    /// Appends a later window of the same deployment: slices, latencies and
    /// spans accumulate, and the `/proc` deltas add up.
    pub fn merge(&mut self, later: Window) {
        self.slices.extend(later.slices);
        self.latencies_ns.extend(later.latencies_ns);
        self.spans.extend(later.spans);
        if self.proc_before.is_empty() {
            self.proc_before = later.proc_before;
            self.proc_after = later.proc_after;
            return;
        }
        // Keep `after - before` equal to the sum of both windows' deltas;
        // gauges (RSS) take the later reading.
        for ((after, b), a) in self
            .proc_after
            .iter_mut()
            .zip(&later.proc_before)
            .zip(&later.proc_after)
        {
            after.cpu.user += a.cpu.user.saturating_sub(b.cpu.user);
            after.cpu.sys += a.cpu.sys.saturating_sub(b.cpu.sys);
            after.syscr += a.syscr - b.syscr;
            after.syscw += a.syscw - b.syscw;
            after.vol_ctxsw += a.vol_ctxsw - b.vol_ctxsw;
            after.invol_ctxsw += a.invol_ctxsw - b.invol_ctxsw;
            after.rss_kb = a.rss_kb;
        }
    }

    /// Multicasts acknowledged in the window.
    pub fn acked(&self) -> u64 {
        self.slices.iter().map(|s| s.acked).sum()
    }

    /// Every latency sample at the nominal host speed (divided by its
    /// slice's `slowdown`), ns, sorted.
    pub fn sorted_latencies_ns(&self) -> Vec<u64> {
        let mut samples = self.latencies_ns.iter();
        let mut scaled = Vec::with_capacity(self.latencies_ns.len());
        for slice in &self.slices {
            scaled.extend(
                samples
                    .by_ref()
                    .take(slice.acked as usize)
                    .map(|&ns| (ns as f64 / slice.slowdown) as u64),
            );
        }
        scaled.sort_unstable();
        scaled
    }

    /// The same window as the clock saw it, with no host-speed correction.
    pub fn as_measured(&self) -> Window {
        Window {
            slices: self.slices.iter().map(Slice::as_measured).collect(),
            ..self.clone()
        }
    }
}

/// The client side of one deployment.
pub struct Client {
    node: TcpNode<WhiteBoxMsg>,
    generator: Generator,
    /// Submitted, not yet acknowledged: sequence number → (start of its
    /// latency, destination groups).
    inflight: HashMap<u64, (Duration, Vec<u32>)>,
    seen: u64,
    /// Multicasts submitted so far.
    pub submitted: u64,
    /// Multicasts that were acknowledged twice, or not within
    /// [`ACK_TIMEOUT`].
    pub failed: u64,
    /// Every acknowledged multicast with its destination groups, for the
    /// delivery-log check.
    pub acked: Vec<Acked>,
}

impl Client {
    /// A client submitting `generator`'s messages through `node`.
    pub fn new(node: TcpNode<WhiteBoxMsg>, generator: Generator) -> Self {
        Client {
            node,
            generator,
            inflight: HashMap::new(),
            seen: 0,
            submitted: 0,
            failed: 0,
            acked: Vec::new(),
        }
    }

    fn submit(&mut self, msg: AppMessage, start: Duration) -> Result<(), String> {
        let dest = msg.dest.iter().map(|g| g.0).collect();
        self.inflight.insert(msg.id.seq, (start, dest));
        self.submitted += 1;
        self.node.submit(msg).map_err(|e| e.to_string())
    }

    fn submit_next(&mut self) -> Result<(), String> {
        let msg = self.generator.next_message();
        self.submit(msg, self.node.uptime())
    }

    /// Waits up to `timeout` for new completions and returns them.
    fn pump(&mut self, timeout: Duration) -> Result<Vec<MulticastSpan>, String> {
        self.node
            .wait_for_total(self.seen + 1, timeout)
            .map_err(|e| e.to_string())?;
        let completions = self.node.drain_deliveries().map_err(|e| e.to_string())?;
        self.seen += completions.len() as u64;
        let mut spans = Vec::with_capacity(completions.len());
        for completion in completions {
            let id = completion.delivery.msg.id;
            let Some((start, dest)) = self.inflight.remove(&id.seq) else {
                self.failed += 1; // acknowledged twice
                continue;
            };
            let span = MulticastSpan {
                seq: id.seq,
                cross_group: dest.len() > 1,
                start,
                end: completion.elapsed,
            };
            if span.latency() > ACK_TIMEOUT {
                self.failed += 1;
            }
            self.acked.push((id, dest));
            spans.push(span);
        }
        Ok(spans)
    }

    fn stalled(&self, since: Duration) -> Result<(), String> {
        if !self.inflight.is_empty() && self.node.uptime().saturating_sub(since) > ACK_TIMEOUT {
            return Err(format!(
                "stalled: no acknowledgement for {ACK_TIMEOUT:?} with {} multicasts in flight",
                self.inflight.len()
            ));
        }
        Ok(())
    }

    /// Closed loop, fixed count: keeps `window` multicasts in flight until
    /// `count` have been acknowledged, then returns with nothing in flight.
    /// This is the warm-up that ends every set-up.
    pub fn run_count(&mut self, window: usize, count: u64) -> Result<(), String> {
        let target = self.submitted + count;
        let mut last_progress = self.node.uptime();
        while self.submitted < target && self.inflight.len() < window {
            self.submit_next()?;
        }
        while !self.inflight.is_empty() {
            let spans = self.pump(Duration::from_millis(100))?;
            if spans.is_empty() {
                self.stalled(last_progress)?;
                continue;
            }
            last_progress = self.node.uptime();
            while self.submitted < target && self.inflight.len() < window {
                self.submit_next()?;
            }
        }
        Ok(())
    }

    /// Closed loop, fixed time: `slices` slices of `slice_len` with `window`
    /// multicasts in flight throughout. CPU time of `pids` (and of this
    /// process) is read at every slice edge. `traced` additionally keeps one
    /// span per multicast and samples the processes' `/proc` counters at
    /// both ends.
    ///
    /// With a `reference`, the loop is drained after every slice and the
    /// reference work is timed there (and once before the first slice); a
    /// slice's `slowdown` is the mean of the measurements on either side of
    /// it, and the reference's own CPU time falls between slices. Without
    /// one, slices follow each other directly and up to `window` multicasts
    /// are still in flight on return; [`Self::drain`] collects them.
    pub fn run_window(
        &mut self,
        window: usize,
        slices: usize,
        slice_len: Duration,
        pids: &[u32],
        traced: bool,
        mut reference: Option<&mut Reference>,
    ) -> Result<Window, String> {
        let cpu_now = || -> CpuTimes {
            let mut total = CpuTimes::default();
            for pid in pids.iter().map(|&p| Some(p)).chain([None]) {
                let t = procfs::cpu_times(pid).unwrap_or_default();
                total.user += t.user;
                total.sys += t.sys;
            }
            total
        };
        let sample_all = || -> Vec<ProcSample> {
            pids.iter()
                .map(|&p| Some(p))
                .chain([None])
                .map(|pid| procfs::sample(pid).unwrap_or_default())
                .collect()
        };

        let mut out = Window::default();
        if traced {
            out.proc_before = sample_all();
        }
        let mut before = match reference.as_deref_mut() {
            Some(reference) => reference.slowdown()?,
            None => 1.0,
        };
        while out.slices.len() < slices {
            let start = self.node.uptime();
            let cpu_at_start = cpu_now();
            let mut acked = 0u64;
            let mut last_progress = start;
            loop {
                while self.inflight.len() < window {
                    self.submit_next()?;
                }
                let left = (start + slice_len).saturating_sub(self.node.uptime());
                if left.is_zero() {
                    break;
                }
                let spans = self.pump(left.min(Duration::from_millis(100)))?;
                if spans.is_empty() {
                    self.stalled(last_progress)?;
                    continue;
                }
                last_progress = self.node.uptime();
                acked += spans.len() as u64;
                out.latencies_ns
                    .extend(spans.iter().map(|s| s.latency().as_nanos() as u64));
                if traced {
                    out.spans.extend(spans);
                }
            }
            let wall = self.node.uptime() - start;
            let cpu = cpu_now().since(&cpu_at_start).total();
            let mut slowdown = 1.0;
            if let Some(reference) = reference.as_deref_mut() {
                // Multicasts completing while the loop empties belong to no
                // slice; they are still checked against the delivery logs.
                self.drain()?;
                let after = reference.slowdown()?;
                slowdown = (before + after) / 2.0;
                before = after;
            }
            out.slices.push(Slice {
                wall,
                acked,
                cpu,
                slowdown,
            });
        }
        if traced {
            out.proc_after = sample_all();
        }
        Ok(out)
    }

    /// Open loop: `rate` multicasts per second for `duration`, each timed
    /// from its due time, then a drain of whatever is still in flight.
    /// `fault` is called once, `fault_at` into the run (the fault probe
    /// kills a leader there). Returns the acknowledged spans (times relative
    /// to the start of the schedule) and the schedule, which knows how late
    /// the generator ran.
    pub fn run_open_loop(
        &mut self,
        rate: u32,
        duration: Duration,
        fault_at: Duration,
        mut fault: impl FnMut(),
    ) -> Result<(Vec<MulticastSpan>, OpenLoopSchedule), String> {
        let mut schedule = OpenLoopSchedule::new(rate);
        let origin = self.node.uptime();
        let mut spans = Vec::new();
        let mut faulted = false;
        loop {
            let now = self.node.uptime() - origin;
            if !faulted && now >= fault_at {
                fault();
                faulted = true;
            }
            while schedule.next_due() < duration {
                let Some(due) = schedule.take_due(now) else {
                    break;
                };
                let msg = self.generator.next_message();
                self.submit(msg, origin + due)?;
            }
            if schedule.next_due() >= duration {
                break;
            }
            let until_due = schedule.next_due().saturating_sub(now);
            spans.extend(self.pump(until_due.min(Duration::from_millis(20)))?);
        }
        spans.extend(self.drain()?);
        for span in &mut spans {
            span.start = span.start.saturating_sub(origin);
            span.end = span.end.saturating_sub(origin);
        }
        Ok((spans, schedule))
    }

    /// Waits for every in-flight multicast; those still unacknowledged after
    /// [`ACK_TIMEOUT`] count as failed. Returns the spans of those that made
    /// it, on the node's clock.
    pub fn drain(&mut self) -> Result<Vec<MulticastSpan>, String> {
        let begin = self.node.uptime();
        let mut spans = Vec::new();
        while !self.inflight.is_empty() {
            if self.node.uptime().saturating_sub(begin) > ACK_TIMEOUT {
                self.failed += self.inflight.len() as u64;
                self.inflight.clear();
                break;
            }
            spans.extend(self.pump(Duration::from_millis(100))?);
        }
        Ok(spans)
    }

    /// Stops the client node's threads and returns the frames its transport
    /// dropped (zero in any healthy run).
    pub fn shutdown(self) -> u64 {
        let dropped = self.node.dropped_frames();
        self.node.shutdown();
        dropped
    }
}
