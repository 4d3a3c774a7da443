//! FreeCS chat server (§7.4): roles as integrity labels.
//!
//! The original FreeCS authorization framework is a pile of ad-hoc
//! `if..then` role checks. The Laminar retrofit localizes all security
//! into labels on the `Group` and `User` data structures: the
//! role-abstraction maps onto integrity tags. The paper's flagship
//! example: the `banList` is protected by *two* integrity tags — one for
//! the VIP role and one for the group's superuser — so "only users who
//! have the add capability for these two tags can use the ban command".
//! The authentication module grants capabilities at login.
//!
//! All user principals are threads of the one server process with
//! heterogeneous labels — precisely the multithreaded labeled workload
//! prior OS DIFC systems cannot express (§7.5).
//!
//! This port implements a representative 12 of FreeCS's 47 commands.

use laminar::{
    Labeled, Laminar, LaminarError, LaminarResult, Principal, RegionParams, RuntimeStats,
};
use laminar_difc::{Capability, Label, SecPair, Tag};
use laminar_os::UserId;
use laminar_util::sync::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A chat group: membership, ban list and theme are integrity-labeled;
/// the message log is unlabeled (public), accessed through *dynamic*
/// barriers because the same logging code runs both inside command
/// regions and outside (server maintenance) — the situation that forces
/// dynamic barriers in §7.
#[derive(Debug)]
pub struct Group {
    su_tag: Tag,
    members: Arc<Labeled<BTreeSet<String>>>,
    banlist: Arc<Labeled<BTreeSet<String>>>,
    theme: Arc<Labeled<String>>,
    log: Arc<Labeled<Vec<String>>>,
}

/// A connected user: principal, secrecy tag and private inbox `{S(u)}`.
#[derive(Debug)]
pub struct User {
    principal: Principal,
    tag: Tag,
    inbox: Arc<Labeled<Vec<String>>>,
    vip: bool,
}

/// The Laminar-secured chat server.
#[derive(Debug)]
pub struct ChatServer {
    /// The server's own principal. It is one kernel thread whose region
    /// stack belongs to one OS thread at a time, so the calls that run on
    /// it (logins, group creation, the read-only queries) take turns and
    /// may come from any number of threads at once.
    server: Mutex<Principal>,
    /// Integrity tag of the "registered user" role (membership writes).
    member_tag: Tag,
    /// Integrity tag of the VIP role.
    vip_tag: Tag,
    users: Mutex<BTreeMap<String, Arc<User>>>,
    groups: Mutex<BTreeMap<String, Arc<Group>>>,
}

/// Result of one command: did the authorization framework permit it?
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CmdOutcome {
    /// Executed.
    Ok,
    /// Refused (role/label failure) — confined, server keeps running.
    Denied,
}

impl ChatServer {
    /// Boots the server and mints the role tags.
    ///
    /// # Errors
    /// Propagates setup failures.
    pub fn new(system: &Arc<Laminar>) -> LaminarResult<Self> {
        system.add_user(UserId(4000), "freecs");
        let server = system.login(UserId(4000))?;
        let member_tag = server.create_tag()?;
        let vip_tag = server.create_tag()?;
        Ok(ChatServer {
            server: Mutex::new(server),
            member_tag,
            vip_tag,
            users: Mutex::new(BTreeMap::new()),
            groups: Mutex::new(BTreeMap::new()),
        })
    }

    /// The authentication module: admits a user and grants the
    /// capabilities their roles warrant (`m+` for every registered user;
    /// `vip+` for VIPs).
    ///
    /// # Errors
    /// Propagates kernel failures.
    pub fn login_user(&self, name: &str, vip: bool) -> LaminarResult<()> {
        // Grant via kernel-mediated capability transfer (Fig. 3): the
        // server writes the role capabilities into a pipe the user reads.
        let server = self.server.lock();
        let (rx, tx) = server.task()?.pipe()?;
        server.task()?.write_capability(Capability::plus(self.member_tag), tx)?;
        if vip {
            server.task()?.write_capability(Capability::plus(self.vip_tag), tx)?;
        }
        let principal = server.spawn_thread(Some(laminar_difc::CapSet::new()))?;
        principal.receive_capability(rx)?;
        if vip {
            principal.receive_capability(rx)?;
        }
        let tag = principal.create_tag()?;
        let inbox = self.make_inbox(&principal, tag)?;
        server.task()?.close(rx)?;
        server.task()?.close(tx)?;
        self.users
            .lock()
            .insert(name.to_string(), Arc::new(User { principal, tag, inbox, vip }));
        Ok(())
    }

    fn make_inbox(
        &self,
        p: &Principal,
        tag: Tag,
    ) -> LaminarResult<Arc<Labeled<Vec<String>>>> {
        let params = RegionParams::new()
            .secrecy(Label::singleton(tag))
            .grant(Capability::plus(tag));
        p.secure(&params, |g| Ok(Arc::new(g.new_labeled(Vec::new()))), |_| {})?
            .ok_or(LaminarError::App("inbox allocation failed".into()))
    }

    /// Creates a group whose superuser is `owner` (granted `su_g+`).
    ///
    /// # Errors
    /// Fails for unknown owners.
    pub fn create_group(&self, name: &str, owner: &str) -> LaminarResult<()> {
        let server = self.server.lock();
        let su_tag = server.create_tag()?;
        let owner_user = self
            .users
            .lock()
            .get(owner)
            .cloned()
            .ok_or(LaminarError::App("unknown owner".into()))?;
        let (rx, tx) = server.task()?.pipe()?;
        server.task()?.write_capability(Capability::plus(su_tag), tx)?;
        owner_user.principal.receive_capability(rx)?;
        server.task()?.close(rx)?;
        server.task()?.close(tx)?;

        // The server endorses the initial structures: banlist carries
        // BOTH the VIP and superuser integrity tags (the §7.4 policy).
        let ban_integrity = Label::from_tags([self.vip_tag, su_tag]);
        let su_integrity = Label::singleton(su_tag);
        let member_integrity = Label::singleton(self.member_tag);
        let params = RegionParams::new()
            .integrity(Label::from_tags([self.vip_tag, su_tag, self.member_tag]))
            .grant(Capability::plus(self.vip_tag))
            .grant(Capability::plus(su_tag))
            .grant(Capability::plus(self.member_tag));
        let group = server
            .secure(
                &params,
                |g| {
                    let members = Arc::new(g.new_labeled_with(
                        BTreeSet::new(),
                        SecPair::integrity_only(member_integrity.clone()),
                    )?);
                    let banlist = Arc::new(g.new_labeled_with(
                        BTreeSet::new(),
                        SecPair::integrity_only(ban_integrity.clone()),
                    )?);
                    let theme = Arc::new(g.new_labeled_with(
                        String::from("default"),
                        SecPair::integrity_only(su_integrity.clone()),
                    )?);
                    Ok(Arc::new(Group {
                        su_tag,
                        members,
                        banlist,
                        theme,
                        log: Arc::new(Labeled::unlabeled(Vec::new())),
                    }))
                },
                |_| {},
            )?
            .ok_or(LaminarError::App("group creation failed".into()))?;
        self.groups.lock().insert(name.to_string(), group);
        Ok(())
    }

    fn user(&self, name: &str) -> LaminarResult<Arc<User>> {
        self.users
            .lock()
            .get(name)
            .cloned()
            .ok_or(LaminarError::App("unknown user".into()))
    }

    fn group(&self, name: &str) -> LaminarResult<Arc<Group>> {
        self.groups
            .lock()
            .get(name)
            .cloned()
            .ok_or(LaminarError::App("unknown group".into()))
    }

    /// `JOIN`: a registered user adds themself to the member list, after
    /// a ban check. Two regions: an unlabeled one to read the ban list,
    /// then one carrying the `m` endorsement to write membership.
    ///
    /// # Errors
    /// Propagates lookup failures; label denials return
    /// [`CmdOutcome::Denied`].
    pub fn join(&self, who: &str, group: &str) -> LaminarResult<CmdOutcome> {
        let user = self.user(who)?;
        let g = self.group(group)?;
        let banned = user
            .principal
            .secure(
                &RegionParams::new(),
                |guard| g.banlist.read(guard, |b| b.contains(who)),
                |_| {},
            )?
            .unwrap_or(true);
        if banned {
            return Ok(CmdOutcome::Denied);
        }
        let params = RegionParams::new()
            .integrity(Label::singleton(self.member_tag))
            .grant(Capability::plus(self.member_tag));
        let who_owned = who.to_string();
        let members = Arc::clone(&g.members);
        match user.principal.secure(
            &params,
            move |guard| {
                members.write(guard, |m| {
                    m.insert(who_owned.clone());
                })
            },
            |_| {},
        )? {
            Some(()) => Ok(CmdOutcome::Ok),
            None => Ok(CmdOutcome::Denied),
        }
    }

    /// `LEAVE`.
    ///
    /// # Errors
    /// Propagates lookup failures.
    pub fn leave(&self, who: &str, group: &str) -> LaminarResult<CmdOutcome> {
        let user = self.user(who)?;
        let g = self.group(group)?;
        let params = RegionParams::new()
            .integrity(Label::singleton(self.member_tag))
            .grant(Capability::plus(self.member_tag));
        let who_owned = who.to_string();
        let members = Arc::clone(&g.members);
        match user.principal.secure(
            &params,
            move |guard| {
                members.write(guard, |m| {
                    m.remove(&who_owned);
                })
            },
            |_| {},
        )? {
            Some(()) => Ok(CmdOutcome::Ok),
            None => Ok(CmdOutcome::Denied),
        }
    }

    /// `SAY`: members post to the public group log. The log itself is
    /// unlabeled; the append runs through a *dynamic* barrier because the
    /// same code path also runs outside regions (server maintenance).
    ///
    /// # Errors
    /// Propagates lookup failures.
    pub fn say(&self, who: &str, group: &str, msg: &str) -> LaminarResult<CmdOutcome> {
        let user = self.user(who)?;
        let g = self.group(group)?;
        let line = format!("{who}: {msg}");
        let members = Arc::clone(&g.members);
        let log = Arc::clone(&g.log);
        let who_owned = who.to_string();
        let allowed = user
            .principal
            .secure(
                &RegionParams::new(),
                move |guard| {
                    let is_member = members.read(guard, |m| m.contains(&who_owned))?;
                    if is_member {
                        // Dynamic barrier: context discovered at run time.
                        log.write_dyn(|l| l.push(line.clone()))?;
                    }
                    Ok(is_member)
                },
                |_| {},
            )?
            .unwrap_or(false);
        Ok(if allowed { CmdOutcome::Ok } else { CmdOutcome::Denied })
    }

    /// `BAN`: requires the VIP *and* group-superuser endorsements — the
    /// flagship policy of §7.4. A non-VIP or non-superuser cannot even
    /// enter the region (missing `+` capability), and the denial is
    /// confined.
    ///
    /// # Errors
    /// Propagates lookup failures.
    pub fn ban(&self, who: &str, group: &str, victim: &str) -> LaminarResult<CmdOutcome> {
        let user = self.user(who)?;
        let g = self.group(group)?;
        let params = RegionParams::new()
            .integrity(Label::from_tags([self.vip_tag, g.su_tag]))
            .grant(Capability::plus(self.vip_tag))
            .grant(Capability::plus(g.su_tag));
        let banlist = Arc::clone(&g.banlist);
        let victim_owned = victim.to_string();
        match user.principal.secure(
            &params,
            move |guard| {
                banlist.write(guard, |b| {
                    b.insert(victim_owned.clone());
                })
            },
            |_| {},
        ) {
            Ok(Some(())) => Ok(CmdOutcome::Ok),
            Ok(None) => Ok(CmdOutcome::Denied),
            Err(LaminarError::RegionEntry(_)) => Ok(CmdOutcome::Denied),
            Err(e) => Err(e),
        }
    }

    /// `UNBAN`: same protection as `BAN`.
    ///
    /// # Errors
    /// Propagates lookup failures.
    pub fn unban(
        &self,
        who: &str,
        group: &str,
        victim: &str,
    ) -> LaminarResult<CmdOutcome> {
        let user = self.user(who)?;
        let g = self.group(group)?;
        let params = RegionParams::new()
            .integrity(Label::from_tags([self.vip_tag, g.su_tag]))
            .grant(Capability::plus(self.vip_tag))
            .grant(Capability::plus(g.su_tag));
        let banlist = Arc::clone(&g.banlist);
        let victim_owned = victim.to_string();
        match user.principal.secure(
            &params,
            move |guard| {
                banlist.write(guard, |b| {
                    b.remove(&victim_owned);
                })
            },
            |_| {},
        ) {
            Ok(Some(())) => Ok(CmdOutcome::Ok),
            Ok(None) => Ok(CmdOutcome::Denied),
            Err(LaminarError::RegionEntry(_)) => Ok(CmdOutcome::Denied),
            Err(e) => Err(e),
        }
    }

    /// `KICK`: superuser-only membership removal.
    ///
    /// # Errors
    /// Propagates lookup failures.
    pub fn kick(
        &self,
        who: &str,
        group: &str,
        victim: &str,
    ) -> LaminarResult<CmdOutcome> {
        let user = self.user(who)?;
        let g = self.group(group)?;
        let params = RegionParams::new()
            .integrity(Label::from_tags([self.member_tag, g.su_tag]))
            .grant(Capability::plus(self.member_tag))
            .grant(Capability::plus(g.su_tag));
        let members = Arc::clone(&g.members);
        let victim_owned = victim.to_string();
        match user.principal.secure(
            &params,
            move |guard| {
                members.write(guard, |m| {
                    m.remove(&victim_owned);
                })
            },
            |_| {},
        ) {
            Ok(Some(())) => Ok(CmdOutcome::Ok),
            Ok(None) => Ok(CmdOutcome::Denied),
            Err(LaminarError::RegionEntry(_)) => Ok(CmdOutcome::Denied),
            Err(e) => Err(e),
        }
    }

    /// `THEME`: superuser-only.
    ///
    /// # Errors
    /// Propagates lookup failures.
    pub fn set_theme(
        &self,
        who: &str,
        group: &str,
        theme: &str,
    ) -> LaminarResult<CmdOutcome> {
        let user = self.user(who)?;
        let g = self.group(group)?;
        let params = RegionParams::new()
            .integrity(Label::singleton(g.su_tag))
            .grant(Capability::plus(g.su_tag));
        let cell = Arc::clone(&g.theme);
        let theme_owned = theme.to_string();
        match user.principal.secure(
            &params,
            move |guard| cell.write(guard, |t| *t = theme_owned.clone()),
            |_| {},
        ) {
            Ok(Some(())) => Ok(CmdOutcome::Ok),
            Ok(None) => Ok(CmdOutcome::Denied),
            Err(LaminarError::RegionEntry(_)) => Ok(CmdOutcome::Denied),
            Err(e) => Err(e),
        }
    }

    /// `WHOIS`: public role info.
    ///
    /// # Errors
    /// Fails for unknown users.
    pub fn whois(&self, name: &str) -> LaminarResult<String> {
        let user = self.user(name)?;
        Ok(format!("{name} vip={}", user.vip))
    }

    /// `GROUPS`: lists groups and membership counts (reads run in an
    /// unlabeled region).
    ///
    /// # Errors
    /// Propagates region failures.
    pub fn list_groups(&self) -> LaminarResult<Vec<(String, usize)>> {
        let groups: Vec<(String, Arc<Group>)> =
            self.groups.lock().iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect();
        let mut out = Vec::new();
        for (name, g) in groups {
            let count = self
                .server
                .lock()
                .secure(
                    &RegionParams::new(),
                    |guard| g.members.read(guard, BTreeSet::len),
                    |_| {},
                )?
                .unwrap_or(0);
            out.push((name, count));
        }
        Ok(out)
    }

    /// `THEME?`: anyone may read the theme.
    ///
    /// # Errors
    /// Propagates lookup/region failures.
    pub fn theme(&self, group: &str) -> LaminarResult<String> {
        let g = self.group(group)?;
        self.server
            .lock()
            .secure(
                &RegionParams::new(),
                |guard| g.theme.read(guard, Clone::clone),
                |_| {},
            )?
            .ok_or(LaminarError::App("theme read suppressed".into()))
    }

    /// `MSG`: a private message — written *up* into the recipient's
    /// `{S(u)}` inbox (classification needs no capability).
    ///
    /// # Errors
    /// Propagates lookup failures.
    pub fn msg(&self, from: &str, to: &str, text: &str) -> LaminarResult<CmdOutcome> {
        let sender = self.user(from)?;
        let recipient = self.user(to)?;
        let inbox = Arc::clone(&recipient.inbox);
        let line = format!("{from}: {text}");
        match sender.principal.secure(
            &RegionParams::new(),
            move |guard| inbox.write(guard, |i| i.push(line.clone())),
            |_| {},
        )? {
            Some(()) => Ok(CmdOutcome::Ok),
            None => Ok(CmdOutcome::Denied),
        }
    }

    /// `INBOX`: the recipient reads (and thereby declassifies for their
    /// own eyes) their private messages.
    ///
    /// # Errors
    /// Propagates lookup/region failures.
    pub fn read_inbox(&self, who: &str) -> LaminarResult<Vec<String>> {
        let user = self.user(who)?;
        let params = RegionParams::new()
            .secrecy(Label::singleton(user.tag))
            .grant(Capability::plus(user.tag))
            .grant(Capability::minus(user.tag));
        let inbox = Arc::clone(&user.inbox);
        user.principal
            .secure(&params, move |g| inbox.read(g, Clone::clone), |_| {})?
            .ok_or(LaminarError::App("inbox read suppressed".into()))
    }

    /// Server maintenance: log length, read *outside* any region via the
    /// dynamic barrier (legal because the log is unlabeled) — this is the
    /// "same method called from both contexts" pattern that forces
    /// dynamic barriers for FreeCS in §7.
    ///
    /// # Errors
    /// Propagates lookup failures.
    pub fn log_len(&self, group: &str) -> LaminarResult<usize> {
        let g = self.group(group)?;
        g.log.read_dyn(Vec::len)
    }

    /// Aggregated statistics across the server and every user principal.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        let mut s = self.server.lock().stats();
        for u in self.users.lock().values() {
            s.merge(&u.principal.stats());
        }
        s
    }

    /// Resets all statistics.
    pub fn reset_stats(&self) {
        self.server.lock().reset_stats();
        for u in self.users.lock().values() {
            u.principal.reset_stats();
        }
    }

    /// The paper's experiment: `users` users, three commands each
    /// (join, say, theme-read), each surrounded by the network/protocol
    /// handling a chat server performs per command. Returns the number
    /// of successful commands as a checksum.
    ///
    /// # Errors
    /// Propagates the first failure.
    pub fn run_workload(&self, users: usize, group: &str) -> LaminarResult<u64> {
        let names: Vec<String> = (0..users).map(|i| format!("u{i}")).collect();
        let mut ok = 0u64;
        for n in &names {
            let _ = crate::workload::request_work(&["JOIN", group, n], REQUEST_UNITS);
            if self.join(n, group)? == CmdOutcome::Ok {
                ok += 1;
            }
            let _ = crate::workload::request_work(&["SAY", group, n], REQUEST_UNITS);
            if self.say(n, group, "hello")? == CmdOutcome::Ok {
                ok += 1;
            }
            let _ = crate::workload::request_work(&["THEME?", group], REQUEST_UNITS);
            self.theme(group)?;
            ok += 1;
        }
        Ok(ok)
    }
}

/// Per-command protocol work units (FreeCS is a 22k-LOC server whose
/// command dispatch dwarfs the label checks — Table 3 reports <1% of
/// time in security regions).
const REQUEST_UNITS: u32 = 1280;

// ---------------------------------------------------------------------------

/// The unsecured baseline: original-style ad-hoc role checks.
#[derive(Debug, Default)]
pub struct BaselineChatServer {
    users: BTreeMap<String, (bool, BTreeSet<String>)>, // vip, su-of
    groups: BTreeMap<String, BaselineGroup>,
}

#[derive(Debug, Default)]
struct BaselineGroup {
    members: BTreeSet<String>,
    banlist: BTreeSet<String>,
    theme: String,
    log: Vec<String>,
}

impl BaselineChatServer {
    /// An empty server.
    #[must_use]
    pub fn new() -> Self {
        BaselineChatServer::default()
    }

    /// Registers a user.
    pub fn login_user(&mut self, name: &str, vip: bool) {
        self.users.insert(name.to_string(), (vip, BTreeSet::new()));
    }

    /// Creates a group with a superuser.
    pub fn create_group(&mut self, name: &str, owner: &str) {
        self.groups.insert(
            name.to_string(),
            BaselineGroup { theme: "default".into(), ..Default::default() },
        );
        if let Some((_, su)) = self.users.get_mut(owner) {
            su.insert(name.to_string());
        }
    }

    /// `JOIN` with an if-check.
    pub fn join(&mut self, who: &str, group: &str) -> CmdOutcome {
        let Some(g) = self.groups.get_mut(group) else { return CmdOutcome::Denied };
        if g.banlist.contains(who) || !self.users.contains_key(who) {
            return CmdOutcome::Denied;
        }
        g.members.insert(who.to_string());
        CmdOutcome::Ok
    }

    /// `SAY` with an if-check.
    pub fn say(&mut self, who: &str, group: &str, msg: &str) -> CmdOutcome {
        let Some(g) = self.groups.get_mut(group) else { return CmdOutcome::Denied };
        if !g.members.contains(who) {
            return CmdOutcome::Denied;
        }
        g.log.push(format!("{who}: {msg}"));
        CmdOutcome::Ok
    }

    /// `BAN`: the original `if (vip && superuser)` check.
    pub fn ban(&mut self, who: &str, group: &str, victim: &str) -> CmdOutcome {
        let allowed = self
            .users
            .get(who)
            .map(|(vip, su)| *vip && su.contains(group))
            .unwrap_or(false);
        if !allowed {
            return CmdOutcome::Denied;
        }
        if let Some(g) = self.groups.get_mut(group) {
            g.banlist.insert(victim.to_string());
        }
        CmdOutcome::Ok
    }

    /// `THEME?`.
    #[must_use]
    pub fn theme(&self, group: &str) -> String {
        self.groups.get(group).map(|g| g.theme.clone()).unwrap_or_default()
    }

    /// Same workload shape as [`ChatServer::run_workload`], including
    /// the identical per-command protocol work. Users must be logged in
    /// beforehand (as in the secured variant).
    pub fn run_workload(&mut self, users: usize, group: &str) -> u64 {
        let names: Vec<String> = (0..users).map(|i| format!("u{i}")).collect();
        let mut ok = 0u64;
        for n in &names {
            let _ = crate::workload::request_work(&["JOIN", group, n], REQUEST_UNITS);
            if self.join(n, group) == CmdOutcome::Ok {
                ok += 1;
            }
            let _ = crate::workload::request_work(&["SAY", group, n], REQUEST_UNITS);
            if self.say(n, group, "hello") == CmdOutcome::Ok {
                ok += 1;
            }
            let _ = crate::workload::request_work(&["THEME?", group], REQUEST_UNITS);
            let _ = self.theme(group);
            ok += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with_group() -> (Arc<Laminar>, ChatServer) {
        let sys = Laminar::boot();
        let srv = ChatServer::new(&sys).unwrap();
        srv.login_user("queen", true).unwrap(); // VIP
        srv.login_user("owner", false).unwrap();
        srv.login_user("pleb", false).unwrap();
        srv.create_group("lobby", "owner").unwrap();
        (sys, srv)
    }

    #[test]
    fn members_can_say_nonmembers_cannot() {
        let (_sys, srv) = server_with_group();
        srv.join("pleb", "lobby").unwrap();
        assert_eq!(srv.say("pleb", "lobby", "hi").unwrap(), CmdOutcome::Ok);
        assert_eq!(srv.say("queen", "lobby", "hi").unwrap(), CmdOutcome::Denied);
        assert_eq!(srv.log_len("lobby").unwrap(), 1);
    }

    #[test]
    fn ban_requires_vip_and_superuser() {
        let (_sys, srv) = server_with_group();
        // owner is superuser but not VIP; queen is VIP but not superuser;
        // pleb is neither. None can ban…
        assert_eq!(srv.ban("owner", "lobby", "pleb").unwrap(), CmdOutcome::Denied);
        assert_eq!(srv.ban("queen", "lobby", "pleb").unwrap(), CmdOutcome::Denied);
        assert_eq!(srv.ban("pleb", "lobby", "pleb").unwrap(), CmdOutcome::Denied);
        // …until someone holds both roles.
        srv.login_user("boss", true).unwrap();
        srv.create_group("vault", "boss").unwrap();
        assert_eq!(srv.ban("boss", "vault", "pleb").unwrap(), CmdOutcome::Ok);
        // And the ban takes effect.
        assert_eq!(srv.join("pleb", "vault").unwrap(), CmdOutcome::Denied);
        assert_eq!(srv.unban("boss", "vault", "pleb").unwrap(), CmdOutcome::Ok);
        assert_eq!(srv.join("pleb", "vault").unwrap(), CmdOutcome::Ok);
    }

    #[test]
    fn theme_is_superuser_only() {
        let (_sys, srv) = server_with_group();
        assert_eq!(srv.set_theme("owner", "lobby", "retro").unwrap(), CmdOutcome::Ok);
        assert_eq!(srv.set_theme("pleb", "lobby", "hax").unwrap(), CmdOutcome::Denied);
        assert_eq!(srv.theme("lobby").unwrap(), "retro");
    }

    #[test]
    fn kick_removes_members() {
        let (_sys, srv) = server_with_group();
        srv.join("pleb", "lobby").unwrap();
        assert_eq!(srv.kick("owner", "lobby", "pleb").unwrap(), CmdOutcome::Ok);
        assert_eq!(srv.say("pleb", "lobby", "still here?").unwrap(), CmdOutcome::Denied);
        // Non-superusers cannot kick.
        srv.join("pleb", "lobby").unwrap();
        assert_eq!(srv.kick("pleb", "lobby", "owner").unwrap(), CmdOutcome::Denied);
    }

    #[test]
    fn private_messages_reach_only_the_recipient() {
        let (_sys, srv) = server_with_group();
        srv.msg("queen", "pleb", "psst").unwrap();
        let inbox = srv.read_inbox("pleb").unwrap();
        assert_eq!(inbox, vec!["queen: psst".to_string()]);
        assert!(srv.read_inbox("owner").unwrap().is_empty());
    }

    #[test]
    fn workload_matches_baseline() {
        let (_sys, srv) = server_with_group();
        for i in 0..8 {
            srv.login_user(&format!("u{i}"), false).unwrap();
        }
        let secured = srv.run_workload(8, "lobby").unwrap();
        let mut base = BaselineChatServer::new();
        base.create_group("lobby", "owner");
        for i in 0..8 {
            base.login_user(&format!("u{i}"), false);
        }
        let baseline = base.run_workload(8, "lobby");
        assert_eq!(secured, baseline);
    }

    #[test]
    fn stats_capture_dynamic_dispatches() {
        let (_sys, srv) = server_with_group();
        srv.join("pleb", "lobby").unwrap();
        srv.reset_stats();
        srv.say("pleb", "lobby", "x").unwrap();
        srv.log_len("lobby").unwrap();
        let stats = srv.stats();
        assert!(stats.dynamic_dispatches > 0, "say/log_len use dynamic barriers");
    }

    #[test]
    fn whois_and_groups() {
        let (_sys, srv) = server_with_group();
        assert!(srv.whois("queen").unwrap().contains("vip=true"));
        srv.join("pleb", "lobby").unwrap();
        let groups = srv.list_groups().unwrap();
        assert_eq!(groups, vec![("lobby".to_string(), 1)]);
    }
}
