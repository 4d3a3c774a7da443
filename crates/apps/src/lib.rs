//! # laminar-apps — the four case studies of Laminar §7
//!
//! Reimplementations of the applications the paper retrofitted with DIFC
//! policies, each in two variants — the Laminar-secured port and the
//! original-style unsecured baseline — so that the Table 3 / Figure 9
//! measurements can be regenerated:
//!
//! | Module | App | Protected data | Policy highlight |
//! |---|---|---|---|
//! | [`gradesheet`] | GradeSheet | student grades | per-cell `{S(s_i), I(p_j)}`; professor-only average declassification (Table 4) |
//! | [`battleship`] | Battleship | ship locations | per-player tags; opponents declassify only hit/miss |
//! | [`calendar`]   | Calendar (k5nCal) | schedules | per-user tags on files *and* structures; scheduler holds `a+, b+, b-` |
//! | [`freecs`]     | FreeCS chat server | membership properties | roles as integrity tags; `banList` guarded by VIP + superuser tags |
//!
//! All four exercise **heterogeneously labeled data within one address
//! space** — the workload that separates Laminar from OS-only DIFC
//! systems (§7.5).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod battleship;
pub mod calendar;
pub mod freecs;
pub mod gradesheet;
pub mod workload;
