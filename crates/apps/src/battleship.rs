//! Battleship (§7.2): two mutually distrusting players.
//!
//! Each player allocates a tag `p_i` and labels her board and ships with
//! it; the `p_i-` declassification capability is never shared. Under
//! Laminar a player cannot inspect the opponent's board: she sends her
//! guess over an (unlabeled) pipe, the opponent updates his board inside
//! a security region `{S(p_opp)}`, *declassifies* only the hit/miss bit
//! with `p_opp-`, and sends that back. In the original JavaBattle,
//! players directly inspected each other's ship coordinates — the
//! baseline here preserves that structure.
//!
//! The two players run in separate kernel processes (forked, inheriting
//! the pipe fds), exercising the OS half of Laminar as well.

use laminar::{
    Labeled, Laminar, LaminarError, LaminarResult, Principal, RegionParams, RuntimeStats,
};
use laminar_difc::{Capability, Label, SecPair, Tag};
use laminar_os::{Fd, UserId};
use laminar_util::SplitMix64;
use std::sync::Arc;

/// Board side length (the paper's experiments use a 15×15 grid).
pub const GRID: usize = 15;

/// Fleet: classic ship lengths.
pub const FLEET: [usize; 5] = [5, 4, 3, 3, 2];

/// One player's board: ship cells and hits taken.
#[derive(Clone, Debug)]
pub struct Board {
    /// `true` where a ship segment lies.
    ship: Vec<bool>,
    /// `true` where a shot already landed.
    hit: Vec<bool>,
    remaining: usize,
}

impl Board {
    /// Places the fleet deterministically from a seed.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut ship = vec![false; GRID * GRID];
        let mut remaining = 0;
        for &len in &FLEET {
            loop {
                let horizontal = rng.gen_bool();
                let (maxx, maxy) =
                    if horizontal { (GRID - len, GRID) } else { (GRID, GRID - len) };
                let x = rng.gen_range(0..maxx);
                let y = rng.gen_range(0..maxy);
                let cells: Vec<usize> =
                    (0..len)
                        .map(|k| {
                            if horizontal {
                                y * GRID + x + k
                            } else {
                                (y + k) * GRID + x
                            }
                        })
                        .collect();
                if cells.iter().all(|&c| !ship[c]) {
                    for &c in &cells {
                        ship[c] = true;
                    }
                    remaining += len;
                    break;
                }
            }
        }
        Board { ship, hit: vec![false; GRID * GRID], remaining }
    }

    /// Applies a shot; returns `(hit, all_sunk)`.
    pub fn shoot(&mut self, x: usize, y: usize) -> (bool, bool) {
        let c = y * GRID + x;
        let mut hit = false;
        if self.ship[c] && !self.hit[c] {
            self.hit[c] = true;
            self.remaining -= 1;
            hit = true;
        }
        (hit, self.remaining == 0)
    }

    /// Renders the public view (hits only) — the per-move display used by
    /// the paper's low-overhead variant of the experiment.
    #[must_use]
    pub fn render_public(&self) -> String {
        let mut s = String::with_capacity(GRID * (GRID + 1));
        for y in 0..GRID {
            for x in 0..GRID {
                s.push(if self.hit[y * GRID + x] { 'X' } else { '.' });
            }
            s.push('\n');
        }
        s
    }
}

struct Player {
    principal: Principal,
    tag: Tag,
    board: Arc<Labeled<Board>>,
    /// Read end of the pipe carrying incoming guesses; write end for
    /// outgoing results (and vice versa on the opponent's side).
    rx: Fd,
    tx: Fd,
}

impl Player {
    fn region(&self) -> RegionParams {
        RegionParams::new()
            .secrecy(Label::singleton(self.tag))
            .grant(Capability::plus(self.tag))
            .grant(Capability::minus(self.tag))
    }
}

/// Per-shot protocol work units (turn bookkeeping / message handling the
/// original game performs; Table 3 reports 54% of Battleship's time in
/// security regions, so the shared work is deliberately small).
const SHOT_UNITS: u32 = 192;

/// Per-frame display work (the paper's display run drops Laminar's
/// overhead to ~1% because redrawing the board dominates each move).
const DISPLAY_UNITS: u32 = 3584;

/// Outcome of a full game.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GameResult {
    /// 0 or 1.
    pub winner: usize,
    /// Total shots fired by both players.
    pub shots: u64,
    /// Total hits scored by both players.
    pub hits: u64,
}

/// The Laminar-secured Battleship game.
pub struct Battleship {
    players: [Player; 2],
    placement_seed: u64,
    /// Public knowledge per player: which cells were hit. Derived purely
    /// from already-declassified shot outcomes, so the display path
    /// needs no security region at all.
    public_hits: [laminar_util::sync::Mutex<Vec<bool>>; 2],
    /// Emit the public board after each move (the "deployed" variant in
    /// which Laminar overhead drops to ~1%).
    pub display: bool,
    display_sink: Option<Fd>,
}

impl std::fmt::Debug for Battleship {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Battleship").field("display", &self.display).finish()
    }
}

impl Battleship {
    /// Sets up two player processes (the second forked from the first),
    /// two unlabeled pipes between them, and each player's labeled board.
    ///
    /// # Errors
    /// Propagates runtime/OS errors from setup.
    pub fn new(system: &Arc<Laminar>, seed: u64, display: bool) -> LaminarResult<Self> {
        system.add_user(UserId(2000), "player0");
        let p0 = system.login(UserId(2000))?;

        // Pipes created before the fork so both processes share them.
        let (g0_r, g0_w) = p0.task()?.pipe()?; // guesses for player0's board
        let (g1_r, g1_w) = p0.task()?.pipe()?; // guesses for player1's board
        let p1_task = p0.task()?.fork(None)?;
        let p1 = system.adopt(p1_task)?;

        let t0 = p0.create_tag()?;
        let t1 = p1.create_tag()?;

        let board0 = Self::make_board(&p0, t0, seed)?;
        let board1 = Self::make_board(&p1, t1, seed.wrapping_add(1))?;

        let display_sink = if display {
            Some(p0.task()?.open("/dev/null", laminar_os::OpenMode::Write)?)
        } else {
            None
        };

        Ok(Battleship {
            players: [
                Player { principal: p0, tag: t0, board: board0, rx: g0_r, tx: g1_w },
                Player { principal: p1, tag: t1, board: board1, rx: g1_r, tx: g0_w },
            ],
            placement_seed: seed,
            public_hits: [
                laminar_util::sync::Mutex::new(vec![false; GRID * GRID]),
                laminar_util::sync::Mutex::new(vec![false; GRID * GRID]),
            ],
            display,
            display_sink,
        })
    }

    fn make_board(
        p: &Principal,
        tag: Tag,
        seed: u64,
    ) -> LaminarResult<Arc<Labeled<Board>>> {
        let params = RegionParams::new()
            .secrecy(Label::singleton(tag))
            .grant(Capability::plus(tag));
        p.secure(&params, |g| Ok(Arc::new(g.new_labeled(Board::generate(seed)))), |_| {})?
            .ok_or(LaminarError::App("board setup failed".into()))
    }

    /// Resets both boards to their initial placement (each owner does it
    /// inside their own region), so repeated games are independent.
    ///
    /// # Errors
    /// Propagates runtime errors.
    pub fn reset(&self) -> LaminarResult<()> {
        for (k, p) in self.players.iter().enumerate() {
            let seed = self.placement_seed.wrapping_add(k as u64);
            let board = Arc::clone(&p.board);
            p.principal
                .secure(
                    &p.region(),
                    move |g| board.write(g, |b| *b = Board::generate(seed)),
                    |_| {},
                )?
                .ok_or(LaminarError::App("board reset suppressed".into()))?;
            *self.public_hits[k].lock() = vec![false; GRID * GRID];
        }
        Ok(())
    }

    /// Plays a full game (resetting the boards first); both players
    /// shoot deterministic pseudo-random permutations so the secured and
    /// baseline games are identical.
    ///
    /// # Errors
    /// Propagates runtime/OS errors.
    pub fn play(&self, seed: u64) -> LaminarResult<GameResult> {
        self.reset()?;
        let mut orders: Vec<Vec<(usize, usize)>> = Vec::new();
        for k in 0..2u64 {
            let mut cells: Vec<(usize, usize)> =
                (0..GRID * GRID).map(|c| (c % GRID, c / GRID)).collect();
            SplitMix64::new(seed.wrapping_add(k)).shuffle(&mut cells);
            orders.push(cells);
        }
        let mut shots = 0u64;
        let mut hits = 0u64;
        #[allow(clippy::needless_range_loop)] // round/attacker index two
        // parallel shot orders and pick the defender as `1 - attacker`
        for round in 0..GRID * GRID {
            for attacker in 0..2 {
                let defender = 1 - attacker;
                let (x, y) = orders[attacker][round];
                shots += 1;
                // Per-move protocol handling (turn bookkeeping, message
                // serialisation) shared with the baseline.
                let _ = crate::workload::request_work(&["shot"], SHOT_UNITS);
                // Attacker sends the guess over the unlabeled pipe.
                let att = &self.players[attacker];
                att.principal.task()?.write(att.tx, &[x as u8, y as u8])?;
                // Defender receives and resolves it inside his region.
                let (hit, sunk) = self.resolve_shot(defender)?;
                if hit {
                    hits += 1;
                    // Public knowledge: the outcome was declassified.
                    self.public_hits[defender].lock()[y * GRID + x] = true;
                }
                if self.display {
                    self.display_board(defender)?;
                }
                if sunk {
                    return Ok(GameResult { winner: attacker, shots, hits });
                }
            }
        }
        Ok(GameResult { winner: 0, shots, hits })
    }

    /// The defender reads the guess from his pipe, updates the labeled
    /// board inside `{S(p_def)}`, and declassifies exactly two bits.
    fn resolve_shot(&self, defender: usize) -> LaminarResult<(bool, bool)> {
        let def = &self.players[defender];
        let guess = def.principal.task()?.read(def.rx, 2)?;
        if guess.len() != 2 {
            return Err(LaminarError::App("lost guess".into()));
        }
        let (x, y) = (guess[0] as usize, guess[1] as usize);
        let board = Arc::clone(&def.board);
        def.principal
            .secure(
                &def.region(),
                move |g| {
                    let outcome = board.write(g, |b| b.shoot(x, y))?;
                    let labeled = g.new_labeled(outcome);
                    // Declassification: only (hit, sunk) leaves the region.
                    let public = g.copy_and_label(&labeled, SecPair::unlabeled())?;
                    public.read(g, |v| *v)
                },
                |_| {},
            )?
            .ok_or(LaminarError::App("shot resolution suppressed".into()))
    }

    fn display_board(&self, defender: usize) -> LaminarResult<()> {
        // The public view derives only from already-declassified shot
        // outcomes, so no security region is needed: exactly why the
        // paper's display variant dilutes Laminar's overhead to ~1%.
        // The terminal redraw itself is the expensive part.
        let _ = crate::workload::request_work(&["frame", "redraw"], DISPLAY_UNITS);
        let mask = self.public_hits[defender].lock();
        let mut rendered = String::with_capacity(GRID * (GRID + 1));
        for y in 0..GRID {
            for x in 0..GRID {
                rendered.push(if mask[y * GRID + x] { 'X' } else { '.' });
            }
            rendered.push('\n');
        }
        drop(mask);
        if let Some(fd) = self.display_sink {
            self.players[0].principal.task()?.write(fd, rendered.as_bytes())?;
        }
        Ok(())
    }

    /// Aggregated statistics from both players.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        let mut s = self.players[0].principal.stats();
        s.merge(&self.players[1].principal.stats());
        s
    }

    /// Resets both players' statistics.
    pub fn reset_stats(&self) {
        self.players[0].principal.reset_stats();
        self.players[1].principal.reset_stats();
    }
}

/// The unsecured baseline: the same two player processes exchanging
/// guesses and results over the same kernel pipes — the original
/// JavaBattle is a networked game too — but with *plain* boards each
/// player inspects directly, no regions, no labels, no declassification.
pub struct BaselineBattleship {
    boards: [Board; 2],
    tasks: [laminar_os::TaskHandle; 2],
    pipes: [(Fd, Fd); 2], // (rx of incoming guesses, tx toward opponent)
    placement_seed: u64,
    /// Render the public board each move.
    pub display: bool,
    display_sink: Option<Fd>,
}

impl std::fmt::Debug for BaselineBattleship {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineBattleship").field("display", &self.display).finish()
    }
}

impl BaselineBattleship {
    /// Boards placed with the same seeds as the secured game; the same
    /// process/pipe topology is set up so only the DIFC machinery
    /// differs between the variants.
    ///
    /// # Errors
    /// Propagates OS setup failures.
    pub fn new(
        system: &std::sync::Arc<Laminar>,
        seed: u64,
        display: bool,
    ) -> LaminarResult<Self> {
        system.add_user(UserId(2100), "plainplayer");
        let p0 = system.login_raw(UserId(2100))?;
        let (g0_r, g0_w) = p0.pipe()?;
        let (g1_r, g1_w) = p0.pipe()?;
        let p1 = p0.fork(None)?;
        let display_sink = if display {
            Some(p0.open("/dev/null", laminar_os::OpenMode::Write)?)
        } else {
            None
        };
        Ok(BaselineBattleship {
            boards: [Board::generate(seed), Board::generate(seed.wrapping_add(1))],
            tasks: [p0, p1],
            pipes: [(g0_r, g1_w), (g1_r, g0_w)],
            placement_seed: seed,
            display,
            display_sink,
        })
    }

    /// Same deterministic game as [`Battleship::play`] (boards reset).
    ///
    /// # Errors
    /// Propagates OS failures on the pipe traffic.
    pub fn play(&mut self, seed: u64) -> LaminarResult<GameResult> {
        self.boards = [
            Board::generate(self.placement_seed),
            Board::generate(self.placement_seed.wrapping_add(1)),
        ];
        let mut orders: Vec<Vec<(usize, usize)>> = Vec::new();
        for k in 0..2u64 {
            let mut cells: Vec<(usize, usize)> =
                (0..GRID * GRID).map(|c| (c % GRID, c / GRID)).collect();
            SplitMix64::new(seed.wrapping_add(k)).shuffle(&mut cells);
            orders.push(cells);
        }
        let mut shots = 0u64;
        let mut hits = 0u64;
        #[allow(clippy::needless_range_loop)] // round/attacker index two
        // parallel shot orders and pick the defender as `1 - attacker`
        for round in 0..GRID * GRID {
            for attacker in 0..2 {
                let defender = 1 - attacker;
                let (x, y) = orders[attacker][round];
                shots += 1;
                let _ = crate::workload::request_work(&["shot"], SHOT_UNITS);
                // Same message exchange as the secured game...
                self.tasks[attacker]
                    .write(self.pipes[attacker].1, &[x as u8, y as u8])?;
                let guess = self.tasks[defender].read(self.pipes[defender].0, 2)?;
                // ...but the defender inspects his plain board directly.
                let (hit, sunk) =
                    self.boards[defender].shoot(guess[0] as usize, guess[1] as usize);
                if hit {
                    hits += 1;
                }
                if self.display {
                    let _ = crate::workload::request_work(
                        &["frame", "redraw"],
                        DISPLAY_UNITS,
                    );
                    let rendered = self.boards[defender].render_public();
                    if let Some(fd) = self.display_sink {
                        self.tasks[0].write(fd, rendered.as_bytes())?;
                    }
                }
                if sunk {
                    return Ok(GameResult { winner: attacker, shots, hits });
                }
            }
        }
        Ok(GameResult { winner: 0, shots, hits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_generation_places_full_fleet() {
        let b = Board::generate(7);
        let cells: usize = b.ship.iter().filter(|&&s| s).count();
        assert_eq!(cells, FLEET.iter().sum::<usize>());
        assert_eq!(b.remaining, cells);
    }

    #[test]
    fn shooting_every_cell_sinks_everything() {
        let mut b = Board::generate(3);
        let mut sunk = false;
        for y in 0..GRID {
            for x in 0..GRID {
                let (_, s) = b.shoot(x, y);
                sunk |= s;
            }
        }
        assert!(sunk);
        assert_eq!(b.remaining, 0);
    }

    #[test]
    fn repeated_shot_does_not_double_count() {
        let mut b = Board::generate(3);
        // Find a ship cell.
        let c = b.ship.iter().position(|&s| s).unwrap();
        let (x, y) = (c % GRID, c / GRID);
        assert!(b.shoot(x, y).0);
        assert!(!b.shoot(x, y).0);
    }

    #[test]
    fn secured_game_matches_baseline() {
        let sys = Laminar::boot();
        let game = Battleship::new(&sys, 11, false).unwrap();
        let secured = game.play(99).unwrap();
        let mut base = BaselineBattleship::new(&sys, 11, false).unwrap();
        let baseline = base.play(99).unwrap();
        assert_eq!(secured, baseline);
        assert!(secured.shots > 0 && secured.hits > 0);
    }

    #[test]
    fn stats_show_time_in_regions() {
        let sys = Laminar::boot();
        let game = Battleship::new(&sys, 5, false).unwrap();
        game.reset_stats();
        game.play(42).unwrap();
        let stats = game.stats();
        assert!(stats.regions_entered > 0);
        assert!(stats.copies > 0, "each shot declassifies");
        assert!(stats.region_ns > 0);
    }

    #[test]
    fn display_variant_renders() {
        let sys = Laminar::boot();
        let game = Battleship::new(&sys, 5, true).unwrap();
        let r = game.play(42).unwrap();
        assert!(r.shots > 0);
    }
}
