//! Calendar (§7.3): multi-user meeting scheduling over labeled files.
//!
//! Modelled on the paper's retrofit of the k5nCal desktop calendar: every
//! user's calendar data — the in-memory data structures *and* the `.ics`
//! file — carries the user's secrecy tag, and all code touching it runs
//! in security regions. The scheduling thread holds the capability to
//! *read* both Alice's and Bob's calendars but can only *declassify*
//! Bob's data (`C(a+, b+, b-)`); the meeting it computes is written to an
//! output file labeled `{S(a)}` that only Alice can read.
//!
//! Capabilities travel from the owners to the scheduler through
//! kernel-mediated pipes (`write_capability`, Fig. 3).

use laminar::{
    Laminar, LaminarError, LaminarResult, Principal, RegionParams, RuntimeStats,
};
use laminar_difc::{CapSet, Capability, Label, SecPair, Tag};
use laminar_os::{OpenMode, UserId};
use std::sync::Arc;

/// Number of schedulable time slots per horizon.
pub const SLOTS: u8 = 240;

/// The secured calendar system: Alice, Bob and the scheduling service.
pub struct CalendarSystem {
    alice: Principal,
    bob: Principal,
    scheduler: Principal,
    tag_a: Tag,
    tag_b: Tag,
}

impl std::fmt::Debug for CalendarSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarSystem").finish_non_exhaustive()
    }
}

impl CalendarSystem {
    /// Boots the calendar service: the scheduler process is forked into
    /// per-user processes; each user mints their tag, labels their
    /// calendar file, and hands the scheduler exactly the capabilities
    /// the paper describes (`a+` from Alice; `b+` and `b-` from Bob)
    /// through kernel pipes.
    ///
    /// # Errors
    /// Propagates runtime/OS setup failures.
    pub fn new(system: &Arc<Laminar>) -> LaminarResult<Self> {
        system.add_user(UserId(3000), "scheduler");
        let sched_login = system.login(UserId(3000))?;

        // A pipe per user for capability transfer (created pre-fork so
        // both processes share it).
        let (cap_rx_a, cap_tx_a) = sched_login.task()?.pipe()?;
        let (cap_rx_b, cap_tx_b) = sched_login.task()?.pipe()?;

        let alice = system.adopt(sched_login.task()?.fork(None)?)?;
        let bob = system.adopt(sched_login.task()?.fork(None)?)?;

        let tag_a = alice.create_tag()?;
        let tag_b = bob.create_tag()?;

        // Each user pre-creates a labeled calendar file (before tainting
        // themselves — the §5.2 creation discipline), then fills it from
        // inside a region.
        Self::init_calendar(&alice, tag_a, "/tmp/alice.ics", &[10, 11, 30, 31, 75])?;
        Self::init_calendar(&bob, tag_b, "/tmp/bob.ics", &[10, 12, 30, 32, 90])?;

        // Capability grants: Alice sends a+; Bob sends b+ and b-.
        alice.task()?.write_capability(Capability::plus(tag_a), cap_tx_a)?;
        bob.task()?.write_capability(Capability::plus(tag_b), cap_tx_b)?;
        bob.task()?.write_capability(Capability::minus(tag_b), cap_tx_b)?;

        for fd in [cap_rx_a, cap_rx_b, cap_rx_b] {
            if sched_login.receive_capability(fd)?.is_none() {
                return Err(LaminarError::App("capability transfer lost".into()));
            }
        }

        // The scheduling work runs on its own thread-principal holding
        // exactly the received capabilities (a+, b+, b-).
        let mut sched_caps = CapSet::new();
        sched_caps.grant(Capability::plus(tag_a));
        sched_caps.grant(Capability::plus(tag_b));
        sched_caps.grant(Capability::minus(tag_b));
        // (create_tag-granted caps from the login shell stay behind.)
        let scheduler = sched_login.spawn_thread(Some(sched_caps))?;

        // Output file: labeled {S(a)} so Alice can read the meeting.
        let fd = scheduler.task()?.create_file_labeled(
            "/tmp/meeting_alice.txt",
            SecPair::secrecy_only(Label::singleton(tag_a)),
        )?;
        scheduler.task()?.close(fd)?;

        Ok(CalendarSystem { alice, bob, scheduler, tag_a, tag_b })
    }

    fn init_calendar(
        owner: &Principal,
        tag: Tag,
        path: &str,
        busy: &[u8],
    ) -> LaminarResult<()> {
        // Pre-create while unlabeled; the file name lives in /tmp which
        // is unlabeled, so creation reveals nothing.
        let fd = owner
            .task()?
            .create_file_labeled(path, SecPair::secrecy_only(Label::singleton(tag)))?;
        owner.task()?.close(fd)?;
        // Fill it from inside a region carrying the file's label.
        let params = RegionParams::new()
            .secrecy(Label::singleton(tag))
            .grant(Capability::plus(tag));
        let path = path.to_string();
        let busy = busy.to_vec();
        owner
            .secure(
                &params,
                move |g| {
                    let os = g.os()?;
                    let fd = os.open(&path, OpenMode::Write)?;
                    os.write(fd, &busy)?;
                    os.close(fd)?;
                    Ok(())
                },
                |_| {},
            )?
            .ok_or(LaminarError::App("calendar init suppressed".into()))
    }

    /// Marks a slot busy in a user's calendar (0 = Alice, 1 = Bob).
    ///
    /// # Errors
    /// Propagates region/OS failures.
    pub fn add_busy(&self, user: usize, slot: u8) -> LaminarResult<()> {
        let (p, tag, path) = if user == 0 {
            (&self.alice, self.tag_a, "/tmp/alice.ics")
        } else {
            (&self.bob, self.tag_b, "/tmp/bob.ics")
        };
        let params = RegionParams::new()
            .secrecy(Label::singleton(tag))
            .grant(Capability::plus(tag));
        p.secure(
            &params,
            move |g| {
                let os = g.os()?;
                let fd = os.open(path, OpenMode::ReadWrite)?;
                let mut data = os.read(fd, SLOTS as usize)?;
                os.close(fd)?;
                if !data.contains(&slot) {
                    data.push(slot);
                    let fd = os.open(path, OpenMode::Write)?;
                    os.write(fd, &data)?;
                    os.close(fd)?;
                }
                Ok(())
            },
            |_| {},
        )?
        .ok_or(LaminarError::App("add_busy suppressed".into()))
    }

    /// Schedules one meeting: reads both labeled calendars inside a
    /// region `{S(a,b)}`, finds the first common free slot at or after
    /// `earliest`, then — in a nested region `{S(a)}` whose entry
    /// declassifies Bob's contribution with `b-` — writes the slot to
    /// the `{S(a)}`-labeled output file. Returns the slot for test
    /// verification (via Alice, who may read the output).
    ///
    /// # Errors
    /// Propagates region/OS failures.
    pub fn schedule_meeting(&self, earliest: u8) -> LaminarResult<u8> {
        let tag_a = self.tag_a;
        let tag_b = self.tag_b;
        let both = Label::from_tags([tag_a, tag_b]);
        let outer = RegionParams::new()
            .secrecy(both)
            .grant(Capability::plus(tag_a))
            .grant(Capability::plus(tag_b))
            .grant(Capability::minus(tag_b));
        self.scheduler
            .secure(
                &outer,
                move |g| {
                    let os = g.os()?;
                    let fd = os.open("/tmp/alice.ics", OpenMode::Read)?;
                    let busy_a = os.read(fd, SLOTS as usize)?;
                    os.close(fd)?;
                    let fd = os.open("/tmp/bob.ics", OpenMode::Read)?;
                    let busy_b = os.read(fd, SLOTS as usize)?;
                    os.close(fd)?;

                    let slot = (earliest..SLOTS)
                        .find(|s| !busy_a.contains(s) && !busy_b.contains(s))
                        .ok_or_else(|| LaminarError::App("no free slot".into()))?;

                    // The slot derives from both calendars: it lives in a
                    // {S(a,b)} cell until explicitly declassified with b-
                    // (Fig. 4's L3–L5 pattern).
                    let joint = g.new_labeled(slot);
                    let a_only = g.copy_and_label(
                        &joint,
                        SecPair::secrecy_only(Label::singleton(tag_a)),
                    )?;

                    // Nested region {S(a)}: write the declassified slot
                    // to Alice's labeled output file.
                    let inner = RegionParams::new()
                        .secrecy(Label::singleton(tag_a))
                        .grant(Capability::plus(tag_a));
                    let written = g.secure(
                        &inner,
                        |g2| {
                            let v = a_only.read(g2, |v| *v)?;
                            let os = g2.os()?;
                            let fd =
                                os.open("/tmp/meeting_alice.txt", OpenMode::Write)?;
                            os.write(fd, &[v])?;
                            os.close(fd)?;
                            Ok(v)
                        },
                        |_| {},
                    )?;
                    written.ok_or(LaminarError::App("inner region suppressed".into()))
                },
                |_| {},
            )?
            .ok_or(LaminarError::App("scheduling suppressed".into()))
    }

    /// Schedules `n` meetings with staggered earliest-slot constraints —
    /// the paper's experiment schedules 1,000 meetings — each surrounded
    /// by the iCalendar rendering/notification work the desktop app does
    /// per meeting. Returns a checksum of the chosen slots.
    ///
    /// # Errors
    /// Propagates the first failure.
    pub fn run_workload(&self, n: usize) -> LaminarResult<u64> {
        let mut check = 0u64;
        for k in 0..n {
            let earliest = (k % 200) as u8;
            let _ = crate::workload::request_work(&["VEVENT", "render"], REQUEST_UNITS);
            check = check.wrapping_add(u64::from(self.schedule_meeting(earliest)?));
        }
        Ok(check)
    }

    /// Alice reads the scheduled meeting from her labeled output file.
    ///
    /// # Errors
    /// Propagates region/OS failures.
    pub fn alice_read_meeting(&self) -> LaminarResult<u8> {
        let params = RegionParams::new()
            .secrecy(Label::singleton(self.tag_a))
            .grant(Capability::plus(self.tag_a))
            .grant(Capability::minus(self.tag_a));
        self.alice
            .secure(
                &params,
                |g| {
                    let os = g.os()?;
                    let fd = os.open("/tmp/meeting_alice.txt", OpenMode::Read)?;
                    let data = os.read(fd, 4)?;
                    os.close(fd)?;
                    Ok(*data.last().unwrap_or(&0))
                },
                |_| {},
            )?
            .ok_or(LaminarError::App("meeting read suppressed".into()))
    }

    /// Aggregated statistics across all principals.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        let mut s = self.scheduler.stats();
        s.merge(&self.alice.stats());
        s.merge(&self.bob.stats());
        s
    }

    /// Resets all principals' statistics.
    pub fn reset_stats(&self) {
        self.scheduler.reset_stats();
        self.alice.reset_stats();
        self.bob.reset_stats();
    }
}

/// The unsecured baseline: the same file traffic on unlabeled files, no
/// regions — the pre-retrofit k5nCal behaviour (any user could read any
/// calendar).
#[derive(Debug)]
pub struct BaselineCalendar {
    task: laminar_os::TaskHandle,
}

impl BaselineCalendar {
    /// Creates unlabeled calendar files with the same initial busy slots.
    ///
    /// # Errors
    /// Propagates OS failures.
    pub fn new(system: &Arc<Laminar>) -> LaminarResult<Self> {
        system.add_user(UserId(3100), "plainsched");
        let task = system.login_raw(UserId(3100))?;
        for (path, busy) in [
            ("/tmp/alice_plain.ics", vec![10u8, 11, 30, 31, 75]),
            ("/tmp/bob_plain.ics", vec![10u8, 12, 30, 32, 90]),
        ] {
            let fd = task.create(path)?;
            task.write(fd, &busy)?;
            task.close(fd)?;
        }
        let fd = task.create("/tmp/meeting_plain.txt")?;
        task.close(fd)?;
        Ok(BaselineCalendar { task })
    }

    /// One unsecured scheduling pass (same I/O shape).
    ///
    /// # Errors
    /// Propagates OS failures.
    pub fn schedule_meeting(&self, earliest: u8) -> LaminarResult<u8> {
        let fd = self.task.open("/tmp/alice_plain.ics", OpenMode::Read)?;
        let busy_a = self.task.read(fd, SLOTS as usize)?;
        self.task.close(fd)?;
        let fd = self.task.open("/tmp/bob_plain.ics", OpenMode::Read)?;
        let busy_b = self.task.read(fd, SLOTS as usize)?;
        self.task.close(fd)?;
        let slot = (earliest..SLOTS)
            .find(|s| !busy_a.contains(s) && !busy_b.contains(s))
            .ok_or_else(|| LaminarError::App("no free slot".into()))?;
        let fd = self.task.open("/tmp/meeting_plain.txt", OpenMode::Write)?;
        self.task.write(fd, &[slot])?;
        self.task.close(fd)?;
        Ok(slot)
    }

    /// Same workload shape as [`CalendarSystem::run_workload`],
    /// including the identical per-meeting rendering work.
    ///
    /// # Errors
    /// Propagates the first failure.
    pub fn run_workload(&self, n: usize) -> LaminarResult<u64> {
        let mut check = 0u64;
        for k in 0..n {
            let earliest = (k % 200) as u8;
            let _ = crate::workload::request_work(&["VEVENT", "render"], REQUEST_UNITS);
            check = check.wrapping_add(u64::from(self.schedule_meeting(earliest)?));
        }
        Ok(check)
    }
}

/// Per-meeting rendering work units (k5nCal spends ~1% of its time in
/// security regions, Table 3 — the app around the scheduler dominates).
const REQUEST_UNITS: u32 = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_finds_common_free_slot() {
        let sys = Laminar::boot();
        let cal = CalendarSystem::new(&sys).unwrap();
        // Busy: alice {10,11,30,31,75}, bob {10,12,30,32,90} → first free ≥10 is 13.
        assert_eq!(cal.schedule_meeting(10).unwrap(), 13);
        // Alice can read the meeting from her labeled file.
        assert_eq!(cal.alice_read_meeting().unwrap(), 13);
    }

    #[test]
    fn add_busy_shifts_the_meeting() {
        let sys = Laminar::boot();
        let cal = CalendarSystem::new(&sys).unwrap();
        cal.add_busy(0, 13).unwrap();
        cal.add_busy(1, 14).unwrap();
        assert_eq!(cal.schedule_meeting(10).unwrap(), 15);
    }

    #[test]
    fn bob_cannot_read_alices_meeting_file() {
        let sys = Laminar::boot();
        let cal = CalendarSystem::new(&sys).unwrap();
        cal.schedule_meeting(0).unwrap();
        // Bob opens Alice's output file outside any region: denied.
        let err = cal.bob.task().unwrap().open("/tmp/meeting_alice.txt", OpenMode::Read);
        assert!(err.is_err());
        // Even inside his own region {S(b)}: still denied (no a taint).
        let params = RegionParams::new()
            .secrecy(Label::singleton(cal.tag_b))
            .grant(Capability::plus(cal.tag_b));
        let out = cal
            .bob
            .secure(
                &params,
                |g| {
                    let os = g.os()?;
                    let fd = os.open("/tmp/meeting_alice.txt", OpenMode::Read)?;
                    let data = os.read(fd, 4)?;
                    os.close(fd)?;
                    Ok(data)
                },
                |_| {},
            )
            .unwrap();
        assert_eq!(out, None, "flow violation must be confined to the region");
    }

    #[test]
    fn secured_matches_baseline() {
        let sys = Laminar::boot();
        let cal = CalendarSystem::new(&sys).unwrap();
        let base = BaselineCalendar::new(&sys).unwrap();
        assert_eq!(cal.run_workload(20).unwrap(), base.run_workload(20).unwrap());
    }

    #[test]
    fn lazy_sync_fires_for_file_io_regions() {
        let sys = Laminar::boot();
        let cal = CalendarSystem::new(&sys).unwrap();
        cal.reset_stats();
        cal.schedule_meeting(0).unwrap();
        let s = cal.stats();
        assert!(s.os_syncs > 0, "file I/O in regions must sync labels");
        assert!(s.regions_entered >= 2, "outer + nested regions");
        assert!(s.copies >= 1, "declassification via copy_and_label");
    }
}
