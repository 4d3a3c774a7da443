//! `chat_sessions`: one FreeCS chat server plus Calendar scheduling.
//!
//! Each client owns a disjoint set of chat users and one group, one
//! FreeCS thread per user. Two client threads must not share a user's
//! `Principal`: a `join` then fails with `RegionEntry` when both enter a
//! region on it at once. Each client also owns a Calendar on a Laminar
//! system of its own, because `CalendarSystem` uses fixed user ids and
//! file paths. The command methods are called directly, without the
//! synthetic protocol work of `ChatServer::run_workload`.

use crate::counters::Sources;
use crate::harness::{deal, Baseline, Client, Sizing, Variant, Workload};
use crate::trace;
use laminar::{Laminar, LaminarResult};
use laminar_apps::calendar::{CalendarSystem, SLOTS};
use laminar_apps::freecs::{ChatServer, CmdOutcome};
use laminar_util::SplitMix64;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Clients (threads) driving the server.
pub const CLIENTS: usize = 2;
/// Chat users per client.
pub const USERS: usize = 64;
/// Busy slots generated per calendar owner.
const BUSY: usize = 12;
/// The busy slots `CalendarSystem::new` writes for Alice and Bob.
const BUILTIN_BUSY: [&[u8]; 2] = [&[10, 11, 30, 31, 75], &[10, 12, 30, 32, 90]];
/// Generated busy slots lie below `SLOTS - 40`, and requests ask for a
/// slot at or after one below this bound, so at least 40 free slots
/// always remain after any request.
const LAST_EARLIEST: u64 = 190;
const TEXTS: [&str; 4] = ["hi", "lunch?", "see the build", "ok"];
const THEMES: [&str; 4] = ["default", "retro", "dark", "solar"];

/// One chat or Calendar command; user fields index the client's users,
/// user 0 owns the client's group.
#[derive(Copy, Clone, Debug)]
pub enum ChatOp {
    /// `JOIN`.
    Join(u8),
    /// `SAY`; allowed only for members.
    Say(u8),
    /// `LEAVE`.
    Leave(u8),
    /// `THEME`; allowed only for the group owner.
    Theme(u8, u8),
    /// `WHOIS`.
    Whois(u8),
    /// `MSG` from, to, text.
    Msg(u8, u8, u8),
    /// `INBOX`.
    ReadInbox(u8),
    /// `BAN` by a non-VIP user; always denied.
    Ban(u8, u8),
    /// Calendar `schedule_meeting(earliest)`.
    Schedule(u8),
}

impl ChatOp {
    fn name(self) -> &'static str {
        match self {
            ChatOp::Join(_) => "app.join",
            ChatOp::Say(_) => "app.say",
            ChatOp::Leave(_) => "app.leave",
            ChatOp::Theme(..) => "app.theme",
            ChatOp::Whois(_) => "app.whois",
            ChatOp::Msg(..) => "app.msg",
            ChatOp::ReadInbox(_) => "app.read_inbox",
            ChatOp::Ban(..) => "app.ban",
            ChatOp::Schedule(_) => "app.schedule_meeting",
        }
    }
}

/// A command with its precomputed expected verdict or result.
#[derive(Copy, Clone, Debug)]
pub struct Step {
    op: ChatOp,
    /// Expected `CmdOutcome::Ok` (commands) or the expected slot
    /// (`Schedule`).
    expect: u8,
}

/// Generated inputs of `chat_sessions`.
#[derive(Debug)]
pub struct ChatSessions {
    steps: Vec<Arc<[Step]>>,
    busy: Vec<[Vec<u8>; 2]>,
}

fn earliest_free(busy: &[Vec<u8>; 2], earliest: u8) -> Option<u8> {
    let taken: BTreeSet<u8> = busy
        .iter()
        .zip(BUILTIN_BUSY)
        .flat_map(|(gen, builtin)| gen.iter().chain(builtin).copied())
        .collect();
    (earliest..SLOTS).find(|s| !taken.contains(s))
}

impl ChatSessions {
    /// Generates both clients' command lists and calendars from `seed`.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0003);
        let mut steps = Vec::new();
        let mut busy = Vec::new();
        for _ in 0..CLIENTS {
            let cal: [Vec<u8>; 2] = std::array::from_fn(|_| {
                (0..BUSY).map(|_| rng.below(u64::from(SLOTS) - 40) as u8).collect()
            });
            // The owner's `THEME` is allowed, another user's is denied.
            let deck = [
                (6, ChatOp::Join(0)),
                (8, ChatOp::Say(0)),
                (4, ChatOp::Leave(0)),
                (2, ChatOp::Theme(0, 0)),
                (1, ChatOp::Theme(1, 0)),
                (3, ChatOp::Whois(0)),
                (7, ChatOp::Msg(0, 0, 0)),
                (4, ChatOp::ReadInbox(0)),
                (1, ChatOp::Ban(0, 0)),
                (4, ChatOp::Schedule(0)),
            ];
            let mut members = [false; USERS];
            let mut list = Vec::new();
            for template in deal(&mut rng, &deck, 1000, |_, op| op) {
                let user = |r: &mut SplitMix64| r.below(USERS as u64) as u8;
                let u = user(&mut rng);
                let (op, expect) = match template {
                    ChatOp::Join(_) => {
                        members[usize::from(u)] = true;
                        (ChatOp::Join(u), 1)
                    }
                    ChatOp::Say(_) => (ChatOp::Say(u), u8::from(members[usize::from(u)])),
                    ChatOp::Leave(_) => {
                        members[usize::from(u)] = false;
                        (ChatOp::Leave(u), 1)
                    }
                    ChatOp::Theme(0, _) => {
                        (ChatOp::Theme(0, rng.below(THEMES.len() as u64) as u8), 1)
                    }
                    ChatOp::Theme(..) => (ChatOp::Theme(1 + u % (USERS as u8 - 1), 1), 0),
                    ChatOp::Whois(_) => (ChatOp::Whois(u), 1),
                    ChatOp::Msg(..) => {
                        let to = user(&mut rng);
                        (ChatOp::Msg(u, to, rng.below(TEXTS.len() as u64) as u8), 1)
                    }
                    ChatOp::ReadInbox(_) => (ChatOp::ReadInbox(u), 1),
                    ChatOp::Ban(..) => (ChatOp::Ban(u, user(&mut rng)), 0),
                    ChatOp::Schedule(_) => {
                        let earliest = rng.below(LAST_EARLIEST) as u8;
                        let slot = earliest_free(&cal, earliest)
                            .expect("busy slots leave a free slot after any request");
                        (ChatOp::Schedule(earliest), slot)
                    }
                };
                list.push(Step { op, expect });
            }
            // Leave the group as it started, so the list can wrap around.
            for (u, m) in members.iter().enumerate() {
                if *m {
                    list.push(Step { op: ChatOp::Leave(u as u8), expect: 1 });
                }
            }
            steps.push(list.into());
            busy.push(cal);
        }
        ChatSessions { steps, busy }
    }
}

/// A chat world: the shared server and each client's calendar system.
#[derive(Debug)]
pub struct ChatWorld {
    system: Arc<Laminar>,
    server: Arc<ChatServer>,
    calendars: Vec<(Arc<Laminar>, Arc<CalendarSystem>)>,
}

/// What a command returned.
#[derive(Debug)]
pub enum ChatOut {
    /// A command verdict.
    Cmd(LaminarResult<CmdOutcome>),
    /// `WHOIS` text.
    Text(LaminarResult<String>),
    /// Inbox contents.
    Inbox(LaminarResult<Vec<String>>),
    /// Scheduled slot.
    Slot(LaminarResult<u8>),
}

/// One client: its users, group and calendar.
#[derive(Debug)]
pub struct ChatClient {
    server: Arc<ChatServer>,
    calendar: Arc<CalendarSystem>,
    steps: Arc<[Step]>,
    users: Vec<String>,
    group: String,
    /// Messages in each user's inbox, and the last one's (from, text).
    inbox: Vec<(usize, Option<(u8, u8)>)>,
    /// `SAY`s that reached the group log.
    said: usize,
    /// Current theme index.
    theme: u8,
}

impl Client for ChatClient {
    type Out = ChatOut;

    fn input_len(&self) -> usize {
        self.steps.len()
    }

    fn exec<const T: bool>(&mut self, i: usize) -> ChatOut {
        let op = self.steps[i].op;
        let run = || {
            let s = &self.server;
            let g = self.group.as_str();
            let user = |u: u8| self.users[usize::from(u)].as_str();
            match op {
                ChatOp::Join(u) => ChatOut::Cmd(s.join(user(u), g)),
                ChatOp::Say(u) => ChatOut::Cmd(s.say(user(u), g, "hello")),
                ChatOp::Leave(u) => ChatOut::Cmd(s.leave(user(u), g)),
                ChatOp::Theme(u, t) => {
                    ChatOut::Cmd(s.set_theme(user(u), g, THEMES[usize::from(t)]))
                }
                ChatOp::Whois(u) => ChatOut::Text(s.whois(user(u))),
                ChatOp::Msg(f, to, t) => {
                    ChatOut::Cmd(s.msg(user(f), user(to), TEXTS[usize::from(t)]))
                }
                ChatOp::ReadInbox(u) => ChatOut::Inbox(s.read_inbox(user(u))),
                ChatOp::Ban(u, v) => ChatOut::Cmd(s.ban(user(u), g, user(v))),
                ChatOp::Schedule(e) => ChatOut::Slot(self.calendar.schedule_meeting(e)),
            }
        };
        if T {
            trace::span(op.name(), run)
        } else {
            run()
        }
    }

    fn check(&mut self, i: usize, out: ChatOut) -> bool {
        let Step { op, expect } = self.steps[i];
        let verdict = if expect == 1 { CmdOutcome::Ok } else { CmdOutcome::Denied };
        match (op, out) {
            (ChatOp::Whois(u), ChatOut::Text(Ok(s))) => {
                s == format!("{} vip=false", self.users[usize::from(u)])
            }
            (ChatOp::ReadInbox(u), ChatOut::Inbox(Ok(v))) => {
                let (n, last) = self.inbox[usize::from(u)];
                let want = last.map(|(f, t)| {
                    format!("{}: {}", self.users[usize::from(f)], TEXTS[usize::from(t)])
                });
                v.len() == n && v.last() == want.as_ref()
            }
            (ChatOp::Schedule(_), ChatOut::Slot(Ok(slot))) => slot == expect,
            (_, ChatOut::Cmd(Ok(got))) if got == verdict => {
                match op {
                    ChatOp::Say(_) => self.said += usize::from(got == CmdOutcome::Ok),
                    ChatOp::Theme(_, t) if got == CmdOutcome::Ok => self.theme = t,
                    ChatOp::Msg(f, to, t) => {
                        let slot = &mut self.inbox[usize::from(to)];
                        *slot = (slot.0 + 1, Some((f, t)));
                    }
                    _ => {}
                }
                true
            }
            _ => false,
        }
    }
}

impl Workload for ChatSessions {
    type World = ChatWorld;
    type Client = ChatClient;

    fn build(&self, _variant: Variant) -> (ChatWorld, Vec<ChatClient>) {
        let system = Laminar::boot();
        let server = Arc::new(ChatServer::new(&system).expect("chat server"));
        let mut calendars = Vec::new();
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let users: Vec<String> = (0..USERS).map(|u| format!("c{c}u{u}")).collect();
            for u in &users {
                server.login_user(u, false).expect("login user");
            }
            let group = format!("g{c}");
            server.create_group(&group, &users[0]).expect("create group");
            let cal_system = Laminar::boot();
            let calendar = Arc::new(CalendarSystem::new(&cal_system).expect("calendar"));
            for (owner, slots) in self.busy[c].iter().enumerate() {
                for &s in slots {
                    calendar.add_busy(owner, s).expect("add busy slot");
                }
            }
            calendars.push((cal_system, Arc::clone(&calendar)));
            clients.push(ChatClient {
                server: Arc::clone(&server),
                calendar,
                steps: Arc::clone(&self.steps[c]),
                users,
                group,
                inbox: vec![(0, None); USERS],
                said: 0,
                theme: 0,
            });
        }
        (ChatWorld { system, server, calendars }, clients)
    }

    fn sources<'a>(&self, w: &'a ChatWorld, _clients: &'a [ChatClient]) -> Sources<'a> {
        let mut kernels = vec![&**w.system.kernel()];
        kernels.extend(w.calendars.iter().map(|(s, _)| &**s.kernel()));
        Sources {
            kernels,
            chats: vec![&*w.server],
            calendars: w.calendars.iter().map(|(_, c)| &**c).collect(),
            ..Sources::default()
        }
    }

    fn finish(&self, w: &ChatWorld, clients: &[ChatClient]) -> u64 {
        clients
            .iter()
            .filter(|c| {
                let log_ok = w.server.log_len(&c.group).ok() == Some(c.said);
                let theme = w.server.theme(&c.group).ok();
                let theme_ok = theme.as_deref() == Some(THEMES[usize::from(c.theme)]);
                !(log_ok && theme_ok)
            })
            .count() as u64
    }

    fn sizing(&self) -> Sizing {
        Sizing { warmup: 200, epoch: 100_000, trace: 20_000 }
    }

    fn baseline(&self) -> Baseline {
        Baseline::Nothing
    }
}
