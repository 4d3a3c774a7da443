//! GradeSheet (§7.1): grade management with per-cell heterogeneous
//! labels — the Table 4 policy.
//!
//! The `(i, j)`-th cell of the grade matrix is guarded by secrecy tag
//! `s_i` (student *i*'s) and integrity tag `p_j` (project *j*'s):
//!
//! | Principal    | Capability set                                   |
//! |--------------|--------------------------------------------------|
//! | GradeCell(i,j)| labels `{S(s_i), I(p_j)}`                       |
//! | Student(i)   | `C(s_i+, s_i-)`                                  |
//! | TA(j)        | `C(s_1+..s_n+, p_j+, p_j-)`                      |
//! | Professor    | `C(s_i±, p_j±)` for all `i, j`                   |
//!
//! Students read (and declassify) only their own marks, for any project;
//! TAs read all marks but can endorse writes only for their own project;
//! the professor can do anything — including the average-marks
//! computation that Laminar exposed as an information leak in the
//! original policy (only the professor may declassify an average, since
//! it derives from every student's secret).

use laminar::{
    Labeled, Laminar, LaminarError, LaminarResult, Principal, RegionParams, RuntimeStats,
};
use laminar_difc::{CapSet, Capability, Label, SecPair, Tag};
use laminar_os::UserId;
use std::sync::Arc;

/// The Laminar-secured GradeSheet.
#[derive(Debug)]
pub struct GradeSheet {
    students: Vec<Tag>,
    projects: Vec<Tag>,
    cells: Vec<Vec<Arc<Labeled<i64>>>>,
    professor: Principal,
    tas: Vec<Principal>,
    student_threads: Vec<Principal>,
    // Policy objects are built once at setup (the retrofit's labels are
    // static configuration, not per-request work).
    cell_params: Vec<Vec<RegionParams>>,
    student_params: Vec<RegionParams>,
    ta_read_params: Vec<RegionParams>,
    avg_params: RegionParams,
    project_integrity: Vec<SecPair>,
}

impl GradeSheet {
    /// Builds a gradesheet for `n` students and `m` projects, minting all
    /// tags and principals. The professor's account owns the tags; TAs
    /// and students receive exactly the Table 4 capability subsets.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from setup.
    pub fn new(system: &Arc<Laminar>, n: usize, m: usize) -> LaminarResult<Self> {
        system.add_user(UserId(1000), "professor");
        let professor = system.login(UserId(1000))?;

        let students: Vec<Tag> =
            (0..n).map(|_| professor.create_tag()).collect::<Result<_, _>>()?;
        let projects: Vec<Tag> =
            (0..m).map(|_| professor.create_tag()).collect::<Result<_, _>>()?;

        // TA(j): s_i+ for all i, plus p_j±.
        let tas: Vec<Principal> = (0..m)
            .map(|j| {
                let mut caps = CapSet::new();
                for &s in &students {
                    caps.grant(Capability::plus(s));
                }
                caps.grant_both(projects[j]);
                professor.spawn_thread(Some(caps))
            })
            .collect::<Result<_, _>>()?;

        // Student(i): s_i±.
        let student_threads: Vec<Principal> = (0..n)
            .map(|i| {
                let mut caps = CapSet::new();
                caps.grant_both(students[i]);
                professor.spawn_thread(Some(caps))
            })
            .collect::<Result<_, _>>()?;

        // The professor allocates every cell inside a region carrying the
        // cell's labels.
        let mut cells = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)] // i/j index students and
        // projects in lock-step with the cell grid being built
        for i in 0..n {
            let mut row = Vec::with_capacity(m);
            for j in 0..m {
                let params = RegionParams::new()
                    .secrecy(Label::singleton(students[i]))
                    .integrity(Label::singleton(projects[j]))
                    .grant(Capability::plus(students[i]))
                    .grant(Capability::plus(projects[j]));
                let cell = professor
                    .secure(&params, |g| Ok(Arc::new(g.new_labeled(0i64))), |_| {})?
                    .ok_or(LaminarError::App("cell allocation failed".into()))?;
                row.push(cell);
            }
            cells.push(row);
        }

        let cell_params: Vec<Vec<RegionParams>> = (0..n)
            .map(|i| {
                (0..m)
                    .map(|j| {
                        RegionParams::new()
                            .secrecy(Label::singleton(students[i]))
                            .integrity(Label::singleton(projects[j]))
                            .grant(Capability::plus(students[i]))
                            .grant(Capability::plus(projects[j]))
                    })
                    .collect()
            })
            .collect();
        let student_params: Vec<RegionParams> = (0..n)
            .map(|i| {
                RegionParams::new()
                    .secrecy(Label::singleton(students[i]))
                    .grant(Capability::plus(students[i]))
                    .grant(Capability::minus(students[i]))
            })
            .collect();
        let ta_read_params: Vec<RegionParams> = (0..n)
            .map(|i| {
                RegionParams::new()
                    .secrecy(Label::singleton(students[i]))
                    .grant(Capability::plus(students[i]))
            })
            .collect();
        let all = Label::from_tags(students.iter().copied());
        let mut avg_params = RegionParams::new().secrecy(all);
        for &st in &students {
            avg_params =
                avg_params.grant(Capability::plus(st)).grant(Capability::minus(st));
        }
        let project_integrity: Vec<SecPair> = (0..m)
            .map(|j| SecPair::integrity_only(Label::singleton(projects[j])))
            .collect();

        Ok(GradeSheet {
            students,
            projects,
            cells,
            professor,
            tas,
            student_threads,
            cell_params,
            student_params,
            ta_read_params,
            avg_params,
            project_integrity,
        })
    }

    /// Number of students.
    #[must_use]
    pub fn students(&self) -> usize {
        self.students.len()
    }

    /// Number of projects.
    #[must_use]
    pub fn projects(&self) -> usize {
        self.projects.len()
    }

    /// The professor sets any grade.
    ///
    /// # Errors
    /// Never for in-range indices (the professor holds all capabilities).
    pub fn professor_set(&self, i: usize, j: usize, v: i64) -> LaminarResult<()> {
        let params = &self.cell_params[i][j];
        let cell = &self.cells[i][j];
        self.professor
            .secure(params, |g| cell.write(g, |c| *c = v), |_| {})?
            .ok_or(LaminarError::App("professor write suppressed".into()))
    }

    /// TA `ta` sets student `i`'s grade on project `j`. Succeeds only for
    /// the TA's own project: writing the cell demands the `p_j` integrity
    /// endorsement, which other TAs cannot produce.
    ///
    /// # Errors
    /// [`LaminarError::RegionEntry`] when `ta != j` (no `p_j+`).
    pub fn ta_set(&self, ta: usize, i: usize, j: usize, v: i64) -> LaminarResult<()> {
        let params = &self.cell_params[i][j];
        let cell = &self.cells[i][j];
        self.tas[ta]
            .secure(params, |g| cell.write(g, |c| *c = v), |_| {})?
            .ok_or(LaminarError::App("ta write suppressed".into()))
    }

    /// TA `ta` reads student `i`'s grade on any project (TAs hold every
    /// `s_i+`; reading needs no integrity endorsement).
    ///
    /// # Errors
    /// Propagates region failures.
    pub fn ta_read(&self, ta: usize, i: usize, j: usize) -> LaminarResult<i64> {
        // No s_i- in these params: the TA cannot declassify.
        let params = &self.ta_read_params[i];
        let cell = &self.cells[i][j];
        // The TA may *inspect* the grade inside the region (e.g. to
        // verify grading), but cannot declassify it out; we return a
        // sanitised presence check instead of the raw mark.
        let seen = self.tas[ta]
            .secure(params, |g| cell.read(g, |c| *c >= 0), |_| {})?
            .ok_or(LaminarError::App("ta read suppressed".into()))?;
        Ok(i64::from(seen))
    }

    /// Student `i` reads their own mark on project `j`, declassifying it
    /// with their `s_i-` capability (the value legitimately leaves the
    /// region as an explicit declassification).
    ///
    /// # Errors
    /// Region failures; students other than `i` cannot perform this.
    pub fn student_read(&self, i: usize, j: usize) -> LaminarResult<i64> {
        let params = &self.student_params[i];
        let cell = &self.cells[i][j];
        // Declassify only the secrecy half with s_i-; the p_j integrity
        // endorsement stays on the copy (students hold no p_j-, and a
        // reader is free to keep trusting the endorsement).
        let target = self.project_integrity[j].clone();
        self.student_threads[i]
            .secure(
                params,
                |g| {
                    let public = g.copy_and_label(cell, target.clone())?;
                    public.read(g, |v| *v)
                },
                |_| {},
            )?
            .ok_or(LaminarError::App("student read suppressed".into()))
    }

    /// Student `who` attempts to read student `victim`'s grade. Always
    /// fails: the region cannot even be entered without `s_victim+`.
    ///
    /// # Errors
    /// Always [`LaminarError::RegionEntry`] (for `who != victim`).
    pub fn student_read_other(
        &self,
        who: usize,
        victim: usize,
        j: usize,
    ) -> LaminarResult<i64> {
        let params = RegionParams::new()
            .secrecy(Label::singleton(self.students[victim]))
            .grant(Capability::plus(self.students[victim]));
        let cell = &self.cells[victim][j];
        match self.student_threads[who].secure(
            &params,
            |g| cell.read(g, |v| *v),
            |_| {},
        )? {
            Some(v) => Ok(v),
            None => Err(LaminarError::App("read suppressed".into())),
        }
    }

    /// The professor computes and declassifies the class average on
    /// project `j` — the operation Laminar's retrofit restricted to the
    /// professor, because the original policy leaked information about
    /// other students' marks through the average.
    ///
    /// # Errors
    /// Propagates region failures.
    pub fn professor_average(&self, j: usize) -> LaminarResult<i64> {
        // Region labeled with every student's tag (the average derives
        // from all of them), entered with all s_i± capabilities.
        let params = &self.avg_params;
        let cells: Vec<Arc<Labeled<i64>>> =
            (0..self.students.len()).map(|i| Arc::clone(&self.cells[i][j])).collect();
        let n = self.students.len() as i64;
        self.professor
            .secure(
                params,
                |g| {
                    let mut sum = 0i64;
                    for c in &cells {
                        sum += c.read(g, |v| *v)?;
                    }
                    let avg = g.new_labeled(sum / n.max(1));
                    // Declassify the aggregate with every s_i-.
                    let public = g.copy_and_label(&avg, SecPair::unlabeled())?;
                    public.read(g, |v| *v)
                },
                |_| {},
            )?
            .ok_or(LaminarError::App("average suppressed".into()))
    }

    /// Renders the Table 4 policy for the current sizes.
    #[must_use]
    pub fn policy_table(&self) -> String {
        let n = self.students.len();
        let m = self.projects.len();
        let mut out = String::new();
        out.push_str("Name          Security Set\n");
        out.push_str("GradeCell(i,j)  {S(s_i)}, {I(p_j)}\n");
        out.push_str("Student(i)      C(s_i+, s_i-)\n");
        out.push_str(&format!("TA(j)           C(s_1+..s_{n}+, p_j+, p_j-)\n"));
        out.push_str(&format!(
            "Professor       C(s_i+, s_i-, p_j+, p_j-)  for i in 1..{n}, j in 1..{m}\n"
        ));
        out
    }

    /// Aggregated runtime statistics across every principal.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = self.professor.stats();
        for p in self.tas.iter().chain(&self.student_threads) {
            stats.merge(&p.stats());
        }
        stats
    }

    /// Resets every principal's statistics.
    pub fn reset_stats(&self) {
        self.professor.reset_stats();
        for p in self.tas.iter().chain(&self.student_threads) {
            p.reset_stats();
        }
    }

    /// A mixed query workload: `q` operations round-robinning student
    /// reads, TA updates and professor averages, each wrapped in the
    /// request parsing/rendering the grade *server* performs around the
    /// data access ([`crate::workload::request_work`]). Returns a
    /// checksum so the optimizer cannot elide work; the same workload
    /// runs on the baseline for overhead comparison.
    ///
    /// # Errors
    /// Propagates the first runtime error.
    pub fn run_workload(&self, q: usize) -> LaminarResult<i64> {
        let n = self.students.len();
        let m = self.projects.len();
        let mut check = 0i64;
        for k in 0..q {
            let i = k % n;
            let j = k % m;
            check = check.wrapping_add(
                crate::workload::request_work(
                    &["query", "student", "project"],
                    REQUEST_UNITS,
                ) as i64
                    & 0xff,
            );
            match k % 4 {
                0 => self.professor_set(i, j, (k % 100) as i64)?,
                1 => self.ta_set(j, i, j, (k % 100) as i64)?,
                2 => check += self.student_read(i, j)?,
                _ => check += self.professor_average(j)?,
            }
        }
        Ok(check)
    }
}

/// Per-request server work units (sized so the measured time inside
/// security regions matches Table 3's ~6% for GradeSheet).
const REQUEST_UNITS: u32 = 640;

/// The unsecured baseline: the original ad-hoc `if role == ...` checks.
#[derive(Debug)]
pub struct BaselineGradeSheet {
    cells: Vec<Vec<i64>>,
}

/// Roles in the baseline's ad-hoc authorization.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Role {
    /// Full access.
    Professor,
    /// TA for a given project.
    Ta(usize),
    /// A student.
    Student(usize),
}

impl BaselineGradeSheet {
    /// An `n × m` grade matrix.
    #[must_use]
    pub fn new(n: usize, m: usize) -> Self {
        BaselineGradeSheet { cells: vec![vec![0; m]; n] }
    }

    /// Ad-hoc checked write.
    ///
    /// # Errors
    /// Returns a string error when the role may not write the cell.
    pub fn set(&mut self, role: Role, i: usize, j: usize, v: i64) -> Result<(), String> {
        match role {
            Role::Professor => {}
            Role::Ta(tj) if tj == j => {}
            _ => return Err("permission denied".into()),
        }
        self.cells[i][j] = v;
        Ok(())
    }

    /// Ad-hoc checked read.
    ///
    /// # Errors
    /// Returns a string error when the role may not read the cell.
    pub fn get(&self, role: Role, i: usize, j: usize) -> Result<i64, String> {
        match role {
            Role::Professor | Role::Ta(_) => {}
            Role::Student(si) if si == i => {}
            _ => return Err("permission denied".into()),
        }
        Ok(self.cells[i][j])
    }

    /// The (leaky, pre-Laminar) average — any student could call this in
    /// the original policy.
    #[must_use]
    pub fn average(&self, j: usize) -> i64 {
        let n = self.cells.len() as i64;
        let sum: i64 = self.cells.iter().map(|r| r[j]).sum();
        sum / n.max(1)
    }

    /// Same workload shape as [`GradeSheet::run_workload`], including
    /// the identical per-request server work.
    ///
    /// # Errors
    /// Never for in-range sizes; kept fallible for signature parity.
    pub fn run_workload(&mut self, q: usize) -> Result<i64, String> {
        let n = self.cells.len();
        let m = self.cells[0].len();
        let mut check = 0i64;
        for k in 0..q {
            let i = k % n;
            let j = k % m;
            check = check.wrapping_add(
                crate::workload::request_work(
                    &["query", "student", "project"],
                    REQUEST_UNITS,
                ) as i64
                    & 0xff,
            );
            match k % 4 {
                0 => self.set(Role::Professor, i, j, (k % 100) as i64)?,
                1 => self.set(Role::Ta(j), i, j, (k % 100) as i64)?,
                2 => check += self.get(Role::Student(i), i, j)?,
                _ => check += self.average(j),
            }
        }
        Ok(check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sheet() -> (Arc<Laminar>, GradeSheet) {
        let sys = Laminar::boot();
        let gs = GradeSheet::new(&sys, 4, 2).unwrap();
        (sys, gs)
    }

    #[test]
    fn professor_can_set_and_student_can_read_own() {
        let (_sys, gs) = sheet();
        gs.professor_set(1, 0, 88).unwrap();
        assert_eq!(gs.student_read(1, 0).unwrap(), 88);
    }

    #[test]
    fn student_cannot_read_others() {
        let (_sys, gs) = sheet();
        gs.professor_set(2, 0, 77).unwrap();
        let err = gs.student_read_other(1, 2, 0).unwrap_err();
        assert!(matches!(err, LaminarError::RegionEntry(_)), "{err}");
    }

    #[test]
    fn ta_updates_only_own_project() {
        let (_sys, gs) = sheet();
        gs.ta_set(0, 1, 0, 55).unwrap();
        assert_eq!(gs.student_read(1, 0).unwrap(), 55);
        // TA 0 cannot endorse project 1 writes.
        let err = gs.ta_set(0, 1, 1, 99).unwrap_err();
        assert!(matches!(err, LaminarError::RegionEntry(_)), "{err}");
        // And the grade is untouched.
        assert_eq!(gs.student_read(1, 1).unwrap(), 0);
    }

    #[test]
    fn ta_reads_any_student() {
        let (_sys, gs) = sheet();
        gs.professor_set(3, 1, 42).unwrap();
        assert_eq!(gs.ta_read(0, 3, 1).unwrap(), 1);
    }

    #[test]
    fn professor_average_declassifies() {
        let (_sys, gs) = sheet();
        for i in 0..4 {
            gs.professor_set(i, 0, 10 * (i as i64 + 1)).unwrap();
        }
        assert_eq!(gs.professor_average(0).unwrap(), 25);
    }

    #[test]
    fn workload_matches_baseline_semantics() {
        let (_sys, gs) = sheet();
        let secured = gs.run_workload(32).unwrap();
        let mut base = BaselineGradeSheet::new(4, 2);
        let baseline = base.run_workload(32).unwrap();
        assert_eq!(secured, baseline);
    }

    #[test]
    fn stats_observe_regions() {
        let (_sys, gs) = sheet();
        gs.reset_stats();
        gs.run_workload(16).unwrap();
        let stats = gs.stats();
        assert!(stats.regions_entered > 0);
        assert!(stats.labeled_reads + stats.labeled_writes > 0);
    }

    #[test]
    fn policy_table_mentions_all_principals() {
        let (_sys, gs) = sheet();
        let t = gs.policy_table();
        assert!(t.contains("GradeCell"));
        assert!(t.contains("Professor"));
        assert!(t.contains("TA(j)"));
    }
}
