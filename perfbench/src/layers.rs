//! Per-layer accounting of a traced iteration: oclsim events by command
//! kind, reconciled against the iteration's virtual window, and deltas of
//! the runtime's execution counters.

use oclsim::{CommandKind, Event};
use skelcl::ExecTrace;

/// A half-open virtual-time window `[start, end)` in nanoseconds.
pub type Window = (u64, u64);

fn queued_in(event: &Event, windows: &[Window]) -> bool {
    let q = event.queued.as_nanos();
    windows.iter().any(|&(s, e)| s <= q && q < e)
}

/// Virtual-time totals of oclsim events, summed over devices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTotals {
    /// Busy time of program-build commands.
    pub build_ns: u64,
    /// Busy time of host → device transfers.
    pub write_ns: u64,
    /// Busy time of kernel launches.
    pub kernel_ns: u64,
    /// Busy time of device → host transfers.
    pub read_ns: u64,
    /// Busy time of markers.
    pub marker_ns: u64,
    /// Σ (start − queued) over commands.
    pub wait_ns: u64,
    /// Time inside the window with the device doing nothing.
    pub idle_ns: u64,
    /// Bytes written to devices.
    pub write_bytes: u64,
    /// Bytes read from devices.
    pub read_bytes: u64,
    /// Commands executed.
    pub commands: u64,
    /// Kernel work-items executed.
    pub work_items: u64,
    /// Write + read busy time of transfers enqueued inside halo windows.
    pub halo_ns: u64,
    /// Bytes read by transfers enqueued inside gather windows.
    pub gather_bytes: u64,
}

impl EventTotals {
    /// Device busy time: build + write + kernel + read (+ markers).
    pub fn busy_ns(&self) -> u64 {
        self.build_ns + self.write_ns + self.kernel_ns + self.read_ns + self.marker_ns
    }

    /// Add another iteration's totals.
    pub fn add(&mut self, o: &EventTotals) {
        self.build_ns += o.build_ns;
        self.write_ns += o.write_ns;
        self.kernel_ns += o.kernel_ns;
        self.read_ns += o.read_ns;
        self.marker_ns += o.marker_ns;
        self.wait_ns += o.wait_ns;
        self.idle_ns += o.idle_ns;
        self.write_bytes += o.write_bytes;
        self.read_bytes += o.read_bytes;
        self.commands += o.commands;
        self.work_items += o.work_items;
        self.halo_ns += o.halo_ns;
        self.gather_bytes += o.gather_bytes;
    }
}

/// Account the events of one iteration, `per_device[d]` being device `d`'s
/// drained log, against the iteration's virtual `window`.
///
/// Reconciliation: on every device the commands must lie inside the window
/// without overlapping, so that busy time plus the idle gaps between them
/// equals the window exactly; summed over devices that is
/// `devices × window`. Any violation is an error.
pub fn account(
    per_device: &[Vec<Event>],
    window: Window,
    halo: &[Window],
    gather: &[Window],
) -> Result<EventTotals, String> {
    let (w0, w1) = window;
    let span = w1 - w0;
    let mut totals = EventTotals::default();
    for (d, events) in per_device.iter().enumerate() {
        let mut device = EventTotals::default();
        let mut sorted: Vec<&Event> = events.iter().collect();
        sorted.sort_by_key(|e| (e.start, e.end));
        let mut cursor = w0;
        for e in sorted {
            let (start, end) = (e.start.as_nanos(), e.end.as_nanos());
            if start < cursor || end > w1 || end < start {
                return Err(format!(
                    "device {d}: command {:?} [{start}, {end}] overlaps another or leaves the \
                     window [{w0}, {w1}] (cursor {cursor})",
                    e.kind
                ));
            }
            device.idle_ns += start - cursor;
            cursor = end;
            let busy = end - start;
            match &e.kind {
                CommandKind::BuildProgram => device.build_ns += busy,
                CommandKind::WriteBuffer => {
                    device.write_ns += busy;
                    device.write_bytes += e.bytes as u64;
                }
                CommandKind::Kernel(_) => {
                    device.kernel_ns += busy;
                    device.work_items += e.work_items as u64;
                }
                CommandKind::ReadBuffer => {
                    device.read_ns += busy;
                    device.read_bytes += e.bytes as u64;
                    if queued_in(e, gather) {
                        device.gather_bytes += e.bytes as u64;
                    }
                }
                CommandKind::Marker => device.marker_ns += busy,
            }
            if e.is_transfer() && queued_in(e, halo) {
                device.halo_ns += busy;
            }
            device.wait_ns += (e.start - e.queued).as_nanos();
            device.commands += 1;
        }
        device.idle_ns += w1 - cursor;
        if device.busy_ns() + device.idle_ns != span {
            return Err(format!(
                "device {d}: busy {} + idle {} != window {span}",
                device.busy_ns(),
                device.idle_ns
            ));
        }
        totals.add(&device);
    }
    let devices = per_device.len() as u64;
    if totals.busy_ns() + totals.idle_ns != devices * span {
        return Err(format!(
            "busy {} + idle {} != {devices} × window {span}",
            totals.busy_ns(),
            totals.idle_ns
        ));
    }
    Ok(totals)
}

/// Differences of the runtime's execution counters between two snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Launches by kernel tier.
    pub native: usize,
    /// Launches on the lane-batched VM.
    pub batched: usize,
    /// Launches on the scalar VM.
    pub scalar: usize,
    /// Launches on the AST interpreter.
    pub interp: usize,
    /// Native-tier compile time, nanoseconds (wall).
    pub native_compile_ns: u64,
    /// Buffer-pool hits.
    pub pool_hits: usize,
    /// Halo-exchange transfers.
    pub halo_transfers: usize,
    /// Halo-exchange bytes.
    pub halo_bytes: usize,
    /// Plan stages fused away.
    pub kernels_fused: usize,
    /// Launches elided by fusion.
    pub launches_elided: usize,
    /// Intermediate bytes never allocated thanks to fusion.
    pub intermediate_bytes_elided: usize,
    /// Skeleton calls.
    pub skeleton_calls: usize,
    /// Programs built.
    pub programs_built: usize,
    /// Deferred (asynchronous) command errors.
    pub deferred_errors: usize,
    /// Launches replayed by the recovery layer.
    pub replayed_launches: usize,
}

impl Counters {
    /// `after − before`.
    pub fn between(before: &ExecTrace, after: &ExecTrace) -> Counters {
        let pool = |t: &ExecTrace| t.devices.iter().map(|d| d.pool_hits).sum::<usize>();
        Counters {
            native: after.native_launches() - before.native_launches(),
            batched: after.batched_launches() - before.batched_launches(),
            scalar: after.scalar_launches() - before.scalar_launches(),
            interp: after.interp_launches() - before.interp_launches(),
            native_compile_ns: after.native_compile_ns() - before.native_compile_ns(),
            pool_hits: pool(after) - pool(before),
            halo_transfers: after.halo_transfers() - before.halo_transfers(),
            halo_bytes: after.halo_bytes() - before.halo_bytes(),
            kernels_fused: after.kernels_fused - before.kernels_fused,
            launches_elided: after.launches_elided - before.launches_elided,
            intermediate_bytes_elided: after.intermediate_bytes_elided
                - before.intermediate_bytes_elided,
            skeleton_calls: after.skeleton_calls - before.skeleton_calls,
            programs_built: after.programs_built - before.programs_built,
            deferred_errors: after.deferred_errors() - before.deferred_errors(),
            replayed_launches: after.replayed_launches - before.replayed_launches,
        }
    }

    /// Kernel launches on any tier.
    pub fn launches(&self) -> usize {
        self.native + self.batched + self.scalar + self.interp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oclsim::SimTime;

    fn ev(kind: CommandKind, queued: u64, start: u64, end: u64) -> Event {
        Event {
            kind,
            device: 0,
            queued: SimTime(queued),
            start: SimTime(start),
            end: SimTime(end),
            bytes: 8,
            work_items: 0,
        }
    }

    #[test]
    fn busy_plus_idle_fills_every_device_window() {
        let dev0 = vec![
            ev(CommandKind::WriteBuffer, 100, 110, 200),
            ev(CommandKind::Kernel("k".into()), 120, 200, 500),
            ev(CommandKind::ReadBuffer, 130, 600, 700),
        ];
        let t = account(
            &[dev0, Vec::new()],
            (100, 1000),
            &[(100, 125)],
            &[(130, 131)],
        )
        .unwrap();
        assert_eq!(t.write_ns, 90);
        assert_eq!(t.kernel_ns, 300);
        assert_eq!(t.read_ns, 100);
        assert_eq!(t.idle_ns, 10 + 100 + 300 + 900);
        assert_eq!(t.wait_ns, 10 + 80 + 470);
        assert_eq!(t.halo_ns, 90);
        assert_eq!(t.gather_bytes, 8);
        assert_eq!(t.commands, 3);
    }

    #[test]
    fn overlapping_or_escaping_commands_fail_loudly() {
        let overlap = vec![
            ev(CommandKind::WriteBuffer, 0, 0, 50),
            ev(CommandKind::WriteBuffer, 0, 40, 60),
        ];
        assert!(account(&[overlap], (0, 100), &[], &[]).is_err());
        let escape = vec![ev(CommandKind::ReadBuffer, 0, 90, 120)];
        assert!(account(&[escape], (0, 100), &[], &[]).is_err());
    }
}
