//! Typed findings produced by the verifier.

use std::error::Error as StdError;
use std::fmt;

use hw::{BufferId, Rank};
use mscclpp::Site;

/// Which checks to run: every check ([`Checks::all`]) or every check
/// but orphan signals ([`Checks::transport`]).
///
/// Bounds, sync (signal/wait imbalances and happens-before cycles),
/// races and unflushed port puts always run. The semantic dataflow pass
/// runs whenever the caller supplies a [`crate::CollectiveSpec`] (see
/// [`crate::analyze_collective`]) and the plan is race-free (provenance
/// is only well-defined then).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checks {
    /// Report explicit signals whose semaphore is never waited on.
    pub(crate) orphan_signals: bool,
}

impl Checks {
    /// Every check.
    pub fn all() -> Checks {
        Checks {
            orphan_signals: true,
        }
    }

    /// Preset for NCCL-style transports (`ncclsim`, `msccl`): every check
    /// but orphan signals. Those are expected there, because rendezvous
    /// *credit* semaphores are signalled on every receive but only waited
    /// on once the sender wraps the staging FIFO — a short transfer
    /// legitimately leaves them dangling.
    pub fn transport() -> Checks {
        Checks {
            orphan_signals: false,
        }
    }
}

/// One finding of the static verifier.
///
/// Every variant names the offending instruction site(s); range-carrying
/// variants use half-open byte ranges `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Two instructions on different thread blocks access overlapping
    /// byte ranges of the same buffer, at least one writes, and no
    /// happens-before path orders them. Sites are ordered by
    /// (rank, tb, pc).
    Race {
        /// The lower-ordered offending site.
        first: Site,
        /// Byte range accessed by `first`.
        first_range: (usize, usize),
        /// Whether `first` writes.
        first_write: bool,
        /// The higher-ordered offending site.
        second: Site,
        /// Byte range accessed by `second`.
        second_range: (usize, usize),
        /// Whether `second` writes.
        second_write: bool,
        /// The buffer both ranges index into.
        buf: BufferId,
    },
    /// The happens-before graph contains a cycle: every site on `path`
    /// waits (directly or transitively) for the next, and the last for
    /// the first — a guaranteed deadlock in any execution.
    DeadlockCycle {
        /// The cycle, one site per hop, in happens-before order.
        path: Vec<Site>,
    },
    /// A wait needs more increments of its cell than the whole batch can
    /// ever produce — it blocks forever.
    SignalWaitImbalance {
        /// The starved wait.
        wait: Site,
        /// Human-readable name of the cell being waited on.
        cell: String,
        /// Increments the wait requires.
        needed: u64,
        /// Increments the batch produces in total.
        available: u64,
    },
    /// An access extends past the registered size of its buffer.
    OutOfBounds {
        /// The offending instruction.
        site: Site,
        /// The buffer accessed.
        buf: BufferId,
        /// The attempted byte range.
        range: (usize, usize),
        /// The buffer's registered size.
        len: usize,
    },
    /// An explicit signal targets a semaphore no instruction ever waits
    /// on — either dead code or a missing wait on the peer.
    OrphanSignal {
        /// The signalling instruction.
        site: Site,
        /// Human-readable name of the signalled cell.
        cell: String,
    },
    /// A port put without `with_signal` is never followed by a flush,
    /// port signal, or signalling put on the same channel: the kernel can
    /// exit with the transfer still queued and no way to observe its
    /// completion.
    UnflushedPortPut {
        /// The dangling put.
        site: Site,
    },
    /// Semantic dataflow: a live rank's contribution never reaches an
    /// output byte range the spec says must carry it.
    MissingContribution {
        /// Rank whose output diverges.
        rank: Rank,
        /// The output buffer.
        buf: BufferId,
        /// First divergent byte range.
        range: (usize, usize),
        /// The live rank whose contribution is absent.
        missing: Rank,
        /// Instruction that last wrote the range (`None`: the range still
        /// holds its initial in-place value).
        writer: Option<Site>,
        /// Instruction that delivered one contribution that *is* present
        /// (`None`: only the initial in-place value is present).
        present: Option<Site>,
    },
    /// Semantic dataflow: one rank's contribution lands in an output byte
    /// range more than the spec allows (double-reduce / double-gather).
    DuplicateContribution {
        /// Rank whose output diverges.
        rank: Rank,
        /// The output buffer.
        buf: BufferId,
        /// First divergent byte range.
        range: (usize, usize),
        /// The rank contributed more than once.
        dup: Rank,
        /// Instruction that delivered the first copy (`None`: it is the
        /// range's initial in-place value).
        first: Option<Site>,
        /// Instruction that delivered the second copy.
        second: Option<Site>,
    },
    /// Semantic dataflow: an output byte range holds data from the wrong
    /// source rank or the wrong source offset (a misrouted gather slot,
    /// shard, or broadcast).
    WrongPlacement {
        /// Rank whose output diverges.
        rank: Rank,
        /// The output buffer.
        buf: BufferId,
        /// First divergent byte range.
        range: (usize, usize),
        /// `(rank, source byte offset)` the spec expects at `range.0`.
        want: (Rank, usize),
        /// `(rank, source byte offset)` actually found there.
        got: (Rank, usize),
        /// Instruction that last wrote the range (`None`: initial value).
        writer: Option<Site>,
        /// Instruction that introduced the misplaced data (`None`: it is
        /// the range's initial in-place value).
        origin: Option<Site>,
    },
    /// Semantic dataflow: an output byte range ends the plan holding
    /// stale/uninitialized data — never written, or written from memory
    /// that was itself never initialized.
    StaleOutput {
        /// Rank whose output diverges.
        rank: Rank,
        /// The output buffer.
        buf: BufferId,
        /// First divergent byte range.
        range: (usize, usize),
        /// Instruction that last wrote the range (`None`: never written).
        writer: Option<Site>,
        /// Instruction where the staleness originated — the first op that
        /// read uninitialized memory (`None`: the range was never written,
        /// so there is no originating instruction).
        origin: Option<Site>,
    },
}

impl VerifyError {
    /// Ordering class used to sort a report: cheapest/most-fundamental
    /// findings first.
    pub(crate) fn class(&self) -> u8 {
        match self {
            VerifyError::OutOfBounds { .. } => 0,
            VerifyError::SignalWaitImbalance { .. } => 1,
            VerifyError::DeadlockCycle { .. } => 2,
            VerifyError::Race { .. } => 3,
            VerifyError::OrphanSignal { .. } => 4,
            VerifyError::UnflushedPortPut { .. } => 5,
            VerifyError::MissingContribution { .. } => 6,
            VerifyError::DuplicateContribution { .. } => 7,
            VerifyError::WrongPlacement { .. } => 8,
            VerifyError::StaleOutput { .. } => 9,
        }
    }

    /// A site to sort by within a class.
    pub(crate) fn anchor(&self) -> Site {
        let fallback = |rank: Rank| Site { rank, tb: 0, pc: 0 };
        match self {
            VerifyError::Race { first, .. } => *first,
            VerifyError::DeadlockCycle { path } => {
                path.iter().copied().min().unwrap_or(fallback(Rank(0)))
            }
            VerifyError::SignalWaitImbalance { wait, .. } => *wait,
            VerifyError::OutOfBounds { site, .. }
            | VerifyError::OrphanSignal { site, .. }
            | VerifyError::UnflushedPortPut { site } => *site,
            VerifyError::MissingContribution { rank, writer, .. } => {
                writer.unwrap_or(fallback(*rank))
            }
            VerifyError::DuplicateContribution {
                rank,
                first,
                second,
                ..
            } => first.or(*second).unwrap_or(fallback(*rank)),
            VerifyError::WrongPlacement { rank, writer, .. } => writer.unwrap_or(fallback(*rank)),
            VerifyError::StaleOutput {
                rank,
                writer,
                origin,
                ..
            } => writer.or(*origin).unwrap_or(fallback(*rank)),
        }
    }
}

/// Renders an optional site, with `none` standing in for "no
/// instruction" (an initial in-place value or never-written memory).
fn opt_site(s: &Option<Site>, none: &'static str) -> String {
    s.map_or_else(|| none.to_owned(), |s| s.to_string())
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Race {
                first,
                first_range,
                first_write,
                second,
                second_range,
                second_write,
                buf,
            } => write!(
                f,
                "unsynchronized {} at {} [{}, {}) races with {} at {} [{}, {}) on {:?}",
                if *first_write { "write" } else { "read" },
                first,
                first_range.0,
                first_range.1,
                if *second_write { "write" } else { "read" },
                second,
                second_range.0,
                second_range.1,
                buf,
            ),
            VerifyError::DeadlockCycle { path } => {
                write!(f, "deadlock: happens-before cycle ")?;
                for (i, s) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{s}")?;
                }
                if let Some(s) = path.first() {
                    write!(f, " -> {s}")?;
                }
                Ok(())
            }
            VerifyError::SignalWaitImbalance {
                wait,
                cell,
                needed,
                available,
            } => write!(
                f,
                "wait at {wait} on {cell} needs {needed} signal(s) but the batch produces {available}"
            ),
            VerifyError::OutOfBounds {
                site,
                buf,
                range,
                len,
            } => write!(
                f,
                "access at {site} touches {:?} [{}, {}) past its registered size {len}",
                buf, range.0, range.1
            ),
            VerifyError::OrphanSignal { site, cell } => {
                write!(f, "signal at {site} targets {cell}, which is never waited on")
            }
            VerifyError::UnflushedPortPut { site } => write!(
                f,
                "port put at {site} is never flushed or signalled before kernel exit"
            ),
            VerifyError::MissingContribution {
                rank,
                buf,
                range,
                missing,
                writer,
                present,
            } => write!(
                f,
                "semantic: {rank} output {:?} [{}, {}) is missing {missing}'s contribution \
                 (last write {}, a present contribution arrived via {})",
                buf,
                range.0,
                range.1,
                opt_site(writer, "never (initial value)"),
                opt_site(present, "the initial value"),
            ),
            VerifyError::DuplicateContribution {
                rank,
                buf,
                range,
                dup,
                first,
                second,
            } => write!(
                f,
                "semantic: {rank} output {:?} [{}, {}) counts {dup}'s contribution twice \
                 (first via {}, again via {})",
                buf,
                range.0,
                range.1,
                opt_site(first, "the initial value"),
                opt_site(second, "the initial value"),
            ),
            VerifyError::WrongPlacement {
                rank,
                buf,
                range,
                want,
                got,
                writer,
                origin,
            } => write!(
                f,
                "semantic: {rank} output {:?} [{}, {}) expects bytes of {} @ {}, holds {} @ {} \
                 (last write {}, misplaced data introduced at {})",
                buf,
                range.0,
                range.1,
                want.0,
                want.1,
                got.0,
                got.1,
                opt_site(writer, "never (initial value)"),
                opt_site(origin, "the initial value"),
            ),
            VerifyError::StaleOutput {
                rank,
                buf,
                range,
                writer,
                origin,
            } => write!(
                f,
                "semantic: {rank} output {:?} [{}, {}) ends the plan stale \
                 (last write {}, staleness originated at {})",
                buf,
                range.0,
                range.1,
                opt_site(writer, "never"),
                opt_site(origin, "uninitialized memory"),
            ),
        }
    }
}

impl StdError for VerifyError {}

impl From<VerifyError> for mscclpp::Error {
    fn from(e: VerifyError) -> mscclpp::Error {
        mscclpp::Error::Verification(e.to_string())
    }
}

/// Everything the verifier found in one kernel batch, sorted by class
/// (bounds, imbalance, deadlock, race, orphan, unflushed, then the
/// semantic classes: missing, duplicate, misplaced, stale) and then by
/// instruction site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings; empty for a clean plan.
    pub findings: Vec<VerifyError>,
}

impl Report {
    /// Whether no check fired. A clean report always covers bounds,
    /// sync (imbalance + deadlock cycles), races and unflushed port puts;
    /// orphan signals under [`Checks::all`] only; and semantic dataflow
    /// (missing/duplicate/misplaced/stale output ranges) only when a
    /// [`crate::CollectiveSpec`] was supplied. A clean report from a
    /// spec-less analysis says nothing about semantic correctness.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub(crate) fn sort(&mut self) {
        self.findings
            .sort_by_key(|f| (f.class(), f.anchor(), format!("{f}")));
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "clean");
        }
        for (i, e) in self.findings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}
