//! A clock that runs at the speed of a quiet host.
//!
//! The benchmark runs on shared virtual machines. Their CPU speed swings by
//! 30-70% in spells that can outlast a whole run, and the hypervisor now
//! and then takes a vCPU away for milliseconds at a time, so wall time
//! alone cannot tell a slower program from a slower host. Every time the
//! benchmark reports is read from a [`RefClock`] instead: a base time,
//! divided by the host's current slowdown.
//!
//! The base is wall time, or for a workload that runs on one thread the
//! process's CPU time ([`Base::Cpu`]). CPU time is wall time minus the time
//! the process was off its CPU, which for a process that never sleeps or
//! waits is the time the host gave its vCPU to someone else.
//!
//! A probe measures the host's slowdown. It is the benchmark's own code and
//! never changes: two fixed kernels, a small matrix product and string
//! formatting with hashing, each timed in the base time and divided by its
//! time on a quiet host, then averaged. The two stress different parts of a
//! core, as the serving path does, and together they track its speed better
//! than either alone. The clock probes every [`PROBE_EVERY_NS`] of base
//! time, at points between two units of work, and stands still while the
//! probe runs.
//! The work slows a little less than the probe does, so base time is
//! divided by the slowdown to the power [`ELASTICITY`]. A change to the
//! program moves the work's time and not the probe's, so it shows in full;
//! a slow spell of the host moves both.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Base time between two probes, in ns. A probe takes about 0.4 ms on a
/// quiet host.
const PROBE_EVERY_NS: u64 = 20_000_000;
/// Probes averaged into the current slowdown: about the last 60 ms. The
/// host's speed changes within a second, so a short window tracks it
/// better than a long one smooths the probe's own noise.
const WINDOW: usize = 3;

const DIM: usize = 48;
const MATMUL_REPS: usize = 6;
const STRINGS: usize = 1000;
/// How much the workloads' own work slows when the probe slows by a
/// factor `s`: `s` to this power. Fitted on the serving path: the same
/// drains, timed in six runs at probe slowdowns from 1.2 to 2.0, slowed by
/// `s^0.86` within runs and `s^0.91` between them.
const ELASTICITY: f64 = 0.9;
/// Each kernel's time on a quiet host, in ns: the 10th percentile of
/// 12,000 probes on a 2.1 GHz Xeon vCPU. They fix the unit every reported
/// time is in; changing them changes every time the benchmark reports.
const QUIET_NS: [f64; 2] = [226_115.0, 154_672.0];

/// What a [`RefClock`] corrects for the host's speed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Base {
    /// Wall time, for workloads that run on several threads.
    Wall,
    /// CPU time of this process, for workloads that run on one thread and
    /// never sleep: time the host took the vCPU away does not count.
    Cpu,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, over all its threads, in ns.
fn cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Reads the base time, in ns since the reader was made.
struct BaseClock {
    base: Base,
    wall0: Instant,
    cpu0: u64,
}

impl BaseClock {
    fn new(base: Base) -> BaseClock {
        BaseClock { base, wall0: Instant::now(), cpu0: cpu_ns() }
    }

    fn ns(&self) -> u64 {
        match self.base {
            Base::Wall => self.wall0.elapsed().as_nanos() as u64,
            Base::Cpu => cpu_ns() - self.cpu0,
        }
    }

    /// Base ns `f` took.
    fn time(&self, f: impl FnOnce()) -> f64 {
        let t = self.ns();
        f();
        (self.ns() - t) as f64
    }
}

struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            a: (0..DIM * DIM).map(|i| (i % 13) as f32 * 0.1).collect(),
            b: (0..DIM * DIM).map(|i| (i % 7) as f32 * 0.2).collect(),
            c: vec![0.0; DIM * DIM],
        }
    }

    fn matmul(&mut self) {
        self.c.fill(0.0);
        for _ in 0..MATMUL_REPS {
            for i in 0..DIM {
                for k in 0..DIM {
                    let x = self.a[i * DIM + k];
                    for j in 0..DIM {
                        self.c[i * DIM + j] += x * self.b[k * DIM + j];
                    }
                }
            }
        }
        black_box(&self.c);
    }

    fn strings() {
        let mut counts: std::collections::HashMap<String, usize> = Default::default();
        for i in 0..STRINGS {
            let s = format!("tok{}_{i}", i % 997);
            *counts.entry(s).or_default() += i;
        }
        black_box(counts.len());
    }

    /// The host's slowdown now: each kernel's time over its quiet time,
    /// averaged.
    fn slowdown(&mut self, clock: &BaseClock) -> f64 {
        let matmul_ns = clock.time(|| self.matmul());
        let strings_ns = clock.time(Probe::strings);
        (matmul_ns / QUIET_NS[0] + strings_ns / QUIET_NS[1]) / 2.0
    }
}

/// Reference time: base time over the host's slowdown, in ns since the
/// clock was made. See the module docs.
pub struct RefClock {
    base: BaseClock,
    probe: Probe,
    /// What the clock read at `anchor`, the base time of the last probe's
    /// end.
    at_anchor: f64,
    anchor: u64,
    recent: VecDeque<f64>,
    /// What base time is divided by: the recent probes' mean slowdown, to
    /// the power `ELASTICITY`.
    slowdown: f64,
    /// Sum and count of every probe's slowdown, for the run's report.
    sum: f64,
    probes: u64,
    /// Wall time when the clock was made, for the share of it the base
    /// time covers.
    wall0: Instant,
}

impl RefClock {
    pub fn new(base: Base) -> RefClock {
        let mut clock = RefClock {
            base: BaseClock::new(base),
            probe: Probe::new(),
            at_anchor: 0.0,
            anchor: 0,
            recent: VecDeque::with_capacity(WINDOW),
            slowdown: 1.0,
            sum: 0.0,
            probes: 0,
            wall0: Instant::now(),
        };
        for _ in 0..WINDOW {
            clock.probe();
        }
        clock
    }

    fn read(&self) -> f64 {
        self.at_anchor + (self.base.ns() - self.anchor) as f64 / self.slowdown
    }

    /// Reference ns since the clock was made.
    pub fn now(&self) -> u64 {
        self.read() as u64
    }

    /// Probe the host when `PROBE_EVERY_NS` has passed since the last
    /// probe. Call it between units of work, never inside a timed one.
    pub fn tick(&mut self) {
        if self.base.ns() - self.anchor >= PROBE_EVERY_NS {
            self.probe();
        }
    }

    fn probe(&mut self) {
        self.at_anchor = self.read();
        let s = self.probe.slowdown(&self.base);
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(s);
        let mean = self.recent.iter().sum::<f64>() / self.recent.len() as f64;
        self.slowdown = mean.powf(ELASTICITY);
        self.sum += s;
        self.probes += 1;
        self.anchor = self.base.ns();
    }

    /// Run `f`, a call that cannot stop for probes (a training run), and
    /// return its reference time in seconds: its base time over the mean
    /// of the slowdown before it and the slowdown after one more probe.
    /// The clock advances by that time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let (before, at) = (self.slowdown, self.read());
        let t = self.base.ns();
        let r = f();
        let base_ns = (self.base.ns() - t) as f64;
        self.probe();
        let ns = base_ns / ((before + self.slowdown) / 2.0);
        self.at_anchor = at + ns;
        (r, ns / 1e9)
    }

    /// Mean slowdown over every probe so far (1 on a quiet host).
    pub fn mean_slowdown(&self) -> f64 {
        self.sum / self.probes.max(1) as f64
    }

    /// Share of the wall time since the clock was made that its base time
    /// did not cover: 0 for a wall clock; for a CPU clock, the time the
    /// process was off its CPU.
    pub fn off_cpu_frac(&self) -> f64 {
        let wall = self.wall0.elapsed().as_nanos() as f64;
        match self.base.base {
            Base::Wall => 0.0,
            Base::Cpu => (1.0 - self.base.ns() as f64 / wall).max(0.0),
        }
    }
}
