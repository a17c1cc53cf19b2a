//! Semantic dataflow pass: proves a compiled plan *computes its
//! collective*, not merely that it is race- and deadlock-free.
//!
//! The pass replays the extracted events in one happens-before-consistent
//! linearization, tracking **symbolic provenance** per byte range: every
//! range of every touched buffer holds an abstract multiset of
//! `(source member, source byte offset)` contribution terms. Data-moving
//! ops ([`mscclpp::Instr::dataflow`]) transform the state —
//!
//! * `Move` (Copy/MemPut/PortPut/RawPut) overwrites the destination with
//!   the source's terms, shifted to the new offset;
//! * `Accum` (Reduce/MemReadReduce) unions the source's terms into the
//!   destination;
//! * `Reduce2` (ReduceInto/RawReducePut) overwrites the destination with
//!   the union of both operands;
//! * `ReduceAll` (SwitchReduce) overwrites with the union over every
//!   switch member;
//! * `Replicate` (SwitchBroadcast) moves into every member.
//!
//! Because the race check runs first and the pass only executes on
//! race-free plans, every happens-before-consistent linearization yields
//! the same final state on every byte that any single linearization
//! defines — conflicting accesses are ordered, and non-conflicting ops
//! commute. The final state of each member's output range is then checked
//! against the declared [`CollectiveSpec`]; the first divergent byte
//! range per member becomes a typed finding
//! ([`VerifyError::MissingContribution`] /
//! [`VerifyError::DuplicateContribution`] /
//! [`VerifyError::WrongPlacement`] / [`VerifyError::StaleOutput`]).
//!
//! Reads of bytes no member input covers produce *stale* values, which
//! are absorbing under reduction — a plan that folds uninitialized
//! scratch into an output surfaces as [`VerifyError::StaleOutput`] with
//! the site where the staleness originated.

use std::collections::HashMap;
use std::rc::Rc;

use hw::{BufferId, Rank};
use mscclpp::{Dataflow, Site};

use crate::error::VerifyError;
use crate::model::Model;

/// One participating rank of a [`CollectiveSpec`]: its rank id and the
/// buffers the collective's contract is stated over. Member *position*
/// (index in the spec's sorted member list) is the unit shard/slot
/// numbering is expressed in, which is what makes the same spec type
/// cover full worlds and shrunken position-renumbered survivor groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecMember {
    /// The member's global rank.
    pub rank: Rank,
    /// Buffer holding this member's contribution.
    pub input: BufferId,
    /// Buffer the collective's result contract is checked on.
    pub output: BufferId,
}

/// Which collective the plan claims to compute, with the byte-level
/// layout contract for each member's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Every member's output `[0, bytes)` carries **exactly one**
    /// contribution from **every** member, byte-aligned (output byte `i`
    /// reduces the members' input bytes `i`).
    AllReduce {
        /// Per-member contribution size.
        bytes: usize,
    },
    /// Member `s`'s input `[0, bytes)` lands verbatim at every member's
    /// output slot `[s*bytes, (s+1)*bytes)`.
    AllGather {
        /// Per-member contribution size.
        bytes: usize,
    },
    /// Member `j`'s output `[0, shards[j].1)` carries exactly one
    /// contribution from every member, drawn from input bytes
    /// `[shards[j].0, shards[j].0 + shards[j].1)`.
    ReduceScatter {
        /// Bytes of every member's (full) input contribution.
        input_bytes: usize,
        /// `(input byte offset, length)` of each member position's shard.
        shards: Vec<(usize, usize)>,
    },
    /// The root member's input `[0, bytes)` lands verbatim at every
    /// member's output `[0, bytes)`.
    Broadcast {
        /// Message size.
        bytes: usize,
        /// Root's *position* in the member list.
        root: usize,
    },
    /// Member `i`'s input chunk `j` (`[j*bytes, (j+1)*bytes)`) lands at
    /// member `j`'s output chunk `i`.
    AllToAll {
        /// Per-pair chunk size.
        bytes: usize,
    },
}

/// What a kernel batch is supposed to compute: the participating members
/// (in position order) and the collective's byte-level output contract.
///
/// Passed to [`crate::analyze_collective`] / [`crate::verify_collective`];
/// the semantic pass initializes each member's input range with a fresh
/// provenance term and checks each member's output range against the
/// declared layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveSpec {
    /// Participants in position order (shrunken groups: sorted survivors).
    pub members: Vec<SpecMember>,
    /// The declared collective and its layout parameters.
    pub kind: CollectiveKind,
}

impl CollectiveSpec {
    /// AllReduce of `bytes` per member.
    pub fn all_reduce(members: Vec<SpecMember>, bytes: usize) -> CollectiveSpec {
        CollectiveSpec {
            members,
            kind: CollectiveKind::AllReduce { bytes },
        }
    }

    /// AllGather of `bytes` per member into position-ordered output slots.
    pub fn all_gather(members: Vec<SpecMember>, bytes: usize) -> CollectiveSpec {
        CollectiveSpec {
            members,
            kind: CollectiveKind::AllGather { bytes },
        }
    }

    /// ReduceScatter of an `input_bytes` contribution per member, with an
    /// explicit `(input offset, length)` shard per member position.
    pub fn reduce_scatter(
        members: Vec<SpecMember>,
        input_bytes: usize,
        shards: Vec<(usize, usize)>,
    ) -> CollectiveSpec {
        CollectiveSpec {
            members,
            kind: CollectiveKind::ReduceScatter {
                input_bytes,
                shards,
            },
        }
    }

    /// Broadcast of `bytes` from the member at position `root`.
    pub fn broadcast(members: Vec<SpecMember>, bytes: usize, root: usize) -> CollectiveSpec {
        CollectiveSpec {
            members,
            kind: CollectiveKind::Broadcast { bytes, root },
        }
    }

    /// AllToAll with a `bytes` chunk per (source, destination) pair.
    pub fn all_to_all(members: Vec<SpecMember>, bytes: usize) -> CollectiveSpec {
        CollectiveSpec {
            members,
            kind: CollectiveKind::AllToAll { bytes },
        }
    }

    /// How many leading bytes of each member's input buffer carry live
    /// contribution data under this spec.
    fn input_bytes(&self) -> usize {
        match &self.kind {
            CollectiveKind::AllReduce { bytes }
            | CollectiveKind::AllGather { bytes }
            | CollectiveKind::Broadcast { bytes, .. } => *bytes,
            CollectiveKind::ReduceScatter { input_bytes, .. } => *input_bytes,
            CollectiveKind::AllToAll { bytes } => bytes * self.members.len(),
        }
    }
}

/// One provenance term: "source member `src`'s input byte `p + delta`",
/// for the byte at absolute buffer offset `p`. `site` is the instruction
/// that first moved the term out of its source input (`None` while it
/// still sits there untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Term {
    src: u32,
    delta: i64,
    site: Option<Site>,
}

/// An interned multiset of terms, sorted by `(src, delta, site)`.
#[derive(Debug, PartialEq, Eq)]
struct Value {
    terms: Vec<Term>,
}

impl Value {
    /// The terms as read under a pending `shift`; lowering every delta
    /// by one amount keeps them sorted.
    fn shifted(&self, shift: i64) -> impl Iterator<Item = Term> + '_ {
        self.terms.iter().map(move |t| Term {
            delta: t.delta - shift,
            ..*t
        })
    }
}

/// The value of one segment: live data with provenance, or stale
/// (uninitialized, or derived from uninitialized memory). `origin` is
/// the first instruction that read uninitialized bytes (`None`: the
/// range was simply never written). Live data reads as
/// `value.shifted(shift)`: a move of sited terms only adds its byte
/// shift, so the shared value is never copied to move it.
#[derive(Debug, Clone)]
enum SegVal {
    Stale { origin: Option<Site> },
    Data { value: Rc<Value>, shift: i64 },
}

/// One same-value byte range of a buffer, `[start, end)`.
#[derive(Debug, Clone)]
struct Seg {
    start: usize,
    end: usize,
    /// Last instruction that wrote the range (`None`: initial value).
    writer: Option<Site>,
    val: SegVal,
}

/// Per-buffer interval maps: disjoint segments sorted by start, split
/// at write boundaries and never re-merged.
struct State {
    bufs: HashMap<BufferId, Vec<Seg>>,
}

impl State {
    fn new(spec: &CollectiveSpec) -> State {
        let mut bufs: HashMap<BufferId, Vec<Seg>> = HashMap::with_capacity(spec.members.len() * 3);
        let fresh = spec.input_bytes();
        for (pos, m) in spec.members.iter().enumerate() {
            // In-place collectives alias input and output; a single fresh
            // segment covers both roles.
            bufs.entry(m.input).or_default().push(Seg {
                start: 0,
                end: fresh,
                writer: None,
                val: SegVal::Data {
                    value: Rc::new(Value {
                        terms: vec![Term {
                            src: pos as u32,
                            delta: 0,
                            site: None,
                        }],
                    }),
                    shift: 0,
                },
            });
        }
        State { bufs }
    }

    /// Copies the pieces covering `[off, off+len)` of `buf` into `out`,
    /// in *relative* coordinates `[0, len)`. Gaps surface as stale
    /// pieces with no writer and no origin.
    fn read_into(&self, buf: BufferId, off: usize, len: usize, out: &mut Vec<Seg>) {
        out.clear();
        let end = off + len;
        let mut cursor = off;
        if let Some(segs) = self.bufs.get(&buf) {
            // Disjoint and sorted, so ends are sorted too: bisect.
            let first = segs.partition_point(|s| s.end <= off);
            for s in segs[first..].iter().take_while(|s| s.start < end) {
                let lo = s.start.max(off);
                let hi = s.end.min(end);
                if lo > cursor {
                    out.push(Seg {
                        start: cursor - off,
                        end: lo - off,
                        writer: None,
                        val: SegVal::Stale { origin: None },
                    });
                }
                out.push(Seg {
                    start: lo - off,
                    end: hi - off,
                    writer: s.writer,
                    val: s.val.clone(),
                });
                cursor = hi;
            }
        }
        if cursor < end {
            out.push(Seg {
                start: cursor - off,
                end: end - off,
                writer: None,
                val: SegVal::Stale { origin: None },
            });
        }
    }

    /// Reads `[off, off+len)` of `buf` into `out` as pieces bound for
    /// offset `to`: shifted by `to - off` and stamped with `site` as
    /// their writer.
    fn read_moved(
        &self,
        (buf, off): (BufferId, usize),
        len: usize,
        to: usize,
        site: Site,
        scratch: &mut Vec<Seg>,
        out: &mut Vec<Seg>,
    ) {
        self.read_into(buf, off, len, scratch);
        let shift = to as i64 - off as i64;
        out.clear();
        out.extend(scratch.iter().map(|p| Seg {
            start: p.start,
            end: p.end,
            writer: Some(site),
            val: moved_piece(p, shift, site),
        }));
    }

    /// Replaces `[off, off+len)` of `buf` with `pieces` (relative
    /// coordinates), truncating whatever the range previously held. Only
    /// the overlapped run of segments is replaced, by its left flank, the
    /// pieces and its right flank; the list stays sorted by start.
    fn write(&mut self, buf: BufferId, off: usize, len: usize, pieces: &[Seg]) {
        let end = off + len;
        let segs = self.bufs.entry(buf).or_default();
        // `segs[lo..hi]` overlaps the range; a zero-length write at a
        // segment boundary lands before the segments starting there.
        let lo = segs.partition_point(|s| s.end <= off && s.start < end);
        let hi = segs.partition_point(|s| s.start < end);
        let run = &segs[lo..hi];
        let left = run.first().filter(|s| s.start < off).map(|s| Seg {
            end: off,
            ..s.clone()
        });
        let right = run.last().filter(|s| s.end > end).map(|s| Seg {
            start: end,
            ..s.clone()
        });
        let placed = pieces.iter().map(|p| Seg {
            start: p.start + off,
            end: p.end + off,
            writer: p.writer,
            val: p.val.clone(),
        });
        segs.splice(lo..hi, left.into_iter().chain(placed).chain(right));
    }
}

/// Propagates a read piece through a move of `shift = dst_off -
/// src_off` bytes: data shifts, staleness keeps (or acquires) its
/// origin. Fully-sited terms keep their shared value and only add to its
/// pending shift; unsited ones are stamped with the moving instruction.
fn moved_piece(p: &Seg, shift: i64, site: Site) -> SegVal {
    match &p.val {
        SegVal::Data {
            value,
            shift: pending,
        } => {
            let shift = pending + shift;
            if value.terms.iter().all(|t| t.site.is_some()) {
                return SegVal::Data {
                    value: Rc::clone(value),
                    shift,
                };
            }
            let mut terms: Vec<Term> = value
                .shifted(shift)
                .map(|t| Term {
                    site: t.site.or(Some(site)),
                    ..t
                })
                .collect();
            terms.sort_unstable();
            SegVal::Data {
                value: Rc::new(Value { terms }),
                shift: 0,
            }
        }
        SegVal::Stale { origin } => SegVal::Stale {
            origin: origin.or(Some(site)),
        },
    }
}

/// Multiset union of two piece values; stale absorbs.
fn union_val(a: &SegVal, b: &SegVal, site: Site) -> SegVal {
    match (a, b) {
        (SegVal::Stale { origin }, other) | (other, SegVal::Stale { origin }) => {
            let o2 = match other {
                SegVal::Stale { origin } => *origin,
                SegVal::Data { .. } => None,
            };
            SegVal::Stale {
                origin: origin.or(o2).or(Some(site)),
            }
        }
        (
            SegVal::Data {
                value: x,
                shift: sx,
            },
            SegVal::Data {
                value: y,
                shift: sy,
            },
        ) => {
            let mut terms: Vec<Term> = x
                .shifted(*sx)
                .chain(y.shifted(*sy))
                .map(|t| Term {
                    site: t.site.or(Some(site)),
                    ..t
                })
                .collect();
            // Two sorted runs, unless stamping a site moved a term: a
            // stable sort merges them and fixes that.
            terms.sort();
            SegVal::Data {
                value: Rc::new(Value { terms }),
                shift: 0,
            }
        }
    }
}

/// Piecewise union of two relative piece lists covering `[0, len)`,
/// written into `out`.
fn union_pieces(a: &[Seg], b: &[Seg], len: usize, site: Site, out: &mut Vec<Seg>) {
    out.clear();
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut cursor = 0usize;
    while cursor < len {
        let pa = &a[ia];
        let pb = &b[ib];
        let hi = pa.end.min(pb.end);
        out.push(Seg {
            start: cursor,
            end: hi,
            writer: Some(site),
            val: union_val(&pa.val, &pb.val, site),
        });
        cursor = hi;
        if pa.end == hi {
            ia += 1;
        }
        if pb.end == hi {
            ib += 1;
        }
    }
}

/// Runs the provenance machine over `order` (happens-before-consistent
/// `(thread, event)` pairs) and checks every member's output against the
/// spec, appending at most one finding per member.
pub(crate) fn check(
    model: &Model<'_>,
    order: &[(usize, usize)],
    spec: &CollectiveSpec,
    findings: &mut Vec<VerifyError>,
) {
    let mut st = State::new(spec);
    // Piece lists reused across every op: the raw read, one shifted
    // operand, the value being built and the union being merged into it.
    let (mut scratch, mut pieces, mut value, mut merged) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(t, i) in order {
        let ev = &model.threads[t].events[i];
        let Some(flow) = ev.flow() else { continue };
        let site = ev.site;
        let bytes = flow.bytes();
        // Every shape writes the union of its operands, each shifted to
        // the destination offset; an accumulator also folds in what its
        // destination already holds.
        let (to, accumulator) = match flow {
            Dataflow::Move { dst, .. }
            | Dataflow::Reduce2 { dst, .. }
            | Dataflow::ReduceAll { dst, .. } => (dst.1, None),
            Dataflow::Accum { dst, .. } => (dst.1, Some(dst)),
            Dataflow::Replicate { dst_off, .. } => (dst_off, None),
        };
        value.clear();
        for (k, operand) in flow.reads().enumerate() {
            if k == 0 {
                st.read_moved(operand, bytes, to, site, &mut scratch, &mut value);
            } else {
                st.read_moved(operand, bytes, to, site, &mut scratch, &mut pieces);
                union_pieces(&value, &pieces, bytes, site, &mut merged);
                std::mem::swap(&mut value, &mut merged);
            }
        }
        if let Some((buf, off)) = accumulator {
            st.read_into(buf, off, bytes, &mut scratch);
            union_pieces(&value, &scratch, bytes, site, &mut merged);
            std::mem::swap(&mut value, &mut merged);
        }
        for (buf, off) in flow.writes() {
            st.write(buf, off, bytes, &value);
        }
    }
    check_outputs(&st, spec, findings);
}

/// `(expected source position, expected source byte delta, multiset?)`
/// for each checked output range of one member.
struct Want {
    out_start: usize,
    out_len: usize,
    /// `Some(pos)` — exactly one term from member `pos`; `None` — one
    /// term from *every* member (reduction).
    single: Option<u32>,
    delta: i64,
}

fn check_outputs(st: &State, spec: &CollectiveSpec, findings: &mut Vec<VerifyError>) {
    let k = spec.members.len();
    let mut pieces: Vec<Seg> = Vec::new();
    for (pos, m) in spec.members.iter().enumerate() {
        let wants: Vec<Want> = match &spec.kind {
            CollectiveKind::AllReduce { bytes } => vec![Want {
                out_start: 0,
                out_len: *bytes,
                single: None,
                delta: 0,
            }],
            CollectiveKind::AllGather { bytes } => (0..k)
                .map(|s| Want {
                    out_start: s * bytes,
                    out_len: *bytes,
                    single: Some(s as u32),
                    delta: -((s * bytes) as i64),
                })
                .collect(),
            CollectiveKind::ReduceScatter { shards, .. } => {
                let (off, len) = shards[pos];
                vec![Want {
                    out_start: 0,
                    out_len: len,
                    single: None,
                    delta: off as i64,
                }]
            }
            CollectiveKind::Broadcast { bytes, root } => vec![Want {
                out_start: 0,
                out_len: *bytes,
                single: Some(*root as u32),
                delta: 0,
            }],
            CollectiveKind::AllToAll { bytes } => (0..k)
                .map(|i| Want {
                    out_start: i * bytes,
                    out_len: *bytes,
                    single: Some(i as u32),
                    delta: (pos as i64 - i as i64) * *bytes as i64,
                })
                .collect(),
        };
        'member: for w in &wants {
            st.read_into(m.output, w.out_start, w.out_len, &mut pieces);
            for p in &pieces {
                let range = (p.start + w.out_start, p.end + w.out_start);
                if let Some(f) = check_piece(spec, m, range, p, w) {
                    findings.push(f);
                    break 'member;
                }
            }
        }
    }
}

/// Checks one constant-value piece of an output range; returns the
/// finding for the first divergence, if any.
fn check_piece(
    spec: &CollectiveSpec,
    m: &SpecMember,
    range: (usize, usize),
    p: &Seg,
    w: &Want,
) -> Option<VerifyError> {
    let terms: Vec<Term> = match &p.val {
        SegVal::Stale { origin } => {
            return Some(VerifyError::StaleOutput {
                rank: m.rank,
                buf: m.output,
                range,
                writer: p.writer,
                origin: *origin,
            })
        }
        SegVal::Data { value, shift } => value.shifted(*shift).collect(),
    };
    let member_rank = |src: u32| spec.members[src as usize].rank;
    let src_byte = |delta: i64| (range.0 as i64 + delta).max(0) as usize;
    // Any member contributing twice is a duplicate regardless of layout.
    for pair in terms.windows(2) {
        if pair[0].src == pair[1].src {
            return Some(VerifyError::DuplicateContribution {
                rank: m.rank,
                buf: m.output,
                range,
                dup: member_rank(pair[0].src),
                first: pair[0].site,
                second: pair[1].site,
            });
        }
    }
    match w.single {
        Some(want_src) => {
            // Exactly one term, from `want_src`, at the expected offset.
            if terms.len() > 1 {
                let extra = terms
                    .iter()
                    .find(|t| t.src != want_src)
                    .unwrap_or(&terms[0]);
                return Some(VerifyError::DuplicateContribution {
                    rank: m.rank,
                    buf: m.output,
                    range,
                    dup: member_rank(extra.src),
                    first: terms[0].site,
                    second: terms[1].site,
                });
            }
            let t = &terms[0];
            if t.src != want_src || t.delta != w.delta {
                return Some(VerifyError::WrongPlacement {
                    rank: m.rank,
                    buf: m.output,
                    range,
                    want: (member_rank(want_src), src_byte(w.delta)),
                    got: (member_rank(t.src), src_byte(t.delta)),
                    writer: p.writer,
                    origin: t.site,
                });
            }
            None
        }
        None => {
            // One term per member, all at the expected shard offset.
            for t in &terms {
                if t.delta != w.delta {
                    return Some(VerifyError::WrongPlacement {
                        rank: m.rank,
                        buf: m.output,
                        range,
                        want: (member_rank(t.src), src_byte(w.delta)),
                        got: (member_rank(t.src), src_byte(t.delta)),
                        writer: p.writer,
                        origin: t.site,
                    });
                }
            }
            if terms.len() < spec.members.len() {
                let present: Vec<u32> = terms.iter().map(|t| t.src).collect();
                let missing = (0..spec.members.len() as u32)
                    .find(|s| !present.contains(s))
                    .unwrap_or(0);
                return Some(VerifyError::MissingContribution {
                    rank: m.rank,
                    buf: m.output,
                    range,
                    missing: member_rank(missing),
                    writer: p.writer,
                    present: terms.iter().find_map(|t| t.site),
                });
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use hw::{BufferId, MemoryPool, Rank};
    use mscclpp::Site;
    use proptest::prelude::*;

    use super::{union_pieces, CollectiveSpec, Seg, SegVal, SpecMember, State, Term};

    /// Bytes per buffer; the two member inputs start live over `FRESH`.
    const BYTES: usize = 48;
    const FRESH: usize = 32;

    /// What one byte holds: stale with its origin, or its terms as read.
    #[derive(Debug, Clone, PartialEq)]
    enum Byte {
        Stale(Option<Site>),
        Data(Vec<Term>),
    }

    /// The flat reference: each byte's writer and value.
    type Flat = Vec<(Option<Site>, Byte)>;

    fn byte(p: &Seg) -> (Option<Site>, Byte) {
        let val = match &p.val {
            SegVal::Stale { origin } => Byte::Stale(*origin),
            SegVal::Data { value, shift } => Byte::Data(value.shifted(*shift).collect()),
        };
        (p.writer, val)
    }

    /// A byte moved by `shift` at `site`, as `moved_piece` moves it.
    fn moved((_, b): &(Option<Site>, Byte), shift: i64, site: Site) -> Byte {
        match b {
            Byte::Stale(origin) => Byte::Stale(origin.or(Some(site))),
            Byte::Data(terms) => {
                let mut terms: Vec<Term> = terms
                    .iter()
                    .map(|t| Term {
                        delta: t.delta - shift,
                        site: t.site.or(Some(site)),
                        ..*t
                    })
                    .collect();
                terms.sort();
                Byte::Data(terms)
            }
        }
    }

    /// The union of two bytes at `site`, as `union_val` takes it.
    fn union(a: &Byte, b: &Byte, site: Site) -> Byte {
        match (a, b) {
            (Byte::Data(x), Byte::Data(y)) => {
                let mut terms: Vec<Term> = x
                    .iter()
                    .chain(y)
                    .map(|t| Term {
                        site: t.site.or(Some(site)),
                        ..*t
                    })
                    .collect();
                terms.sort();
                Byte::Data(terms)
            }
            (Byte::Stale(o), Byte::Data(_)) | (Byte::Data(_), Byte::Stale(o)) => {
                Byte::Stale(o.or(Some(site)))
            }
            (Byte::Stale(o), Byte::Stale(p)) => Byte::Stale(o.or(*p).or(Some(site))),
        }
    }

    /// A length and two offsets, all multiples of a random unit, that fit
    /// a buffer; units of 16 make nested and adjacent ranges likely.
    fn span(rng: &mut TestRng) -> (usize, usize, usize) {
        let unit = [1, 4, 16][rng.next_u64() as usize % 3];
        let slots = BYTES / unit;
        let len = 1 + rng.next_u64() as usize % slots;
        let mut off = || unit * (rng.next_u64() as usize % (slots - len + 1));
        (unit * len, off(), off())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn provenance_map_matches_a_flat_model(
            steps in 1usize..40,
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::new(seed);
            let mut pool = MemoryPool::new();
            let bufs: Vec<BufferId> = (0..3).map(|r| pool.alloc(Rank(r), BYTES)).collect();
            let members = (0..2)
                .map(|r| SpecMember { rank: Rank(r), input: bufs[r], output: bufs[r] })
                .collect();
            let mut st = State::new(&CollectiveSpec::all_reduce(members, FRESH));
            let mut flat: Vec<Flat> = (0..3)
                .map(|r| {
                    (0..BYTES)
                        .map(|b| {
                            let live = r < 2 && b < FRESH;
                            let term = Term { src: r as u32, delta: 0, site: None };
                            (None, if live { Byte::Data(vec![term]) } else { Byte::Stale(None) })
                        })
                        .collect()
                })
                .collect();
            let (mut scratch, mut value, mut merged) = (Vec::new(), Vec::new(), Vec::new());
            for step in 0..steps {
                // Few distinct sites, so stamped terms tie and reorder.
                let site = Site { rank: Rank(0), tb: 0, pc: rng.next_u64() as usize % 6 };
                let (len, from, to) = span(&mut rng);
                let (src, dst) = (rng.next_u64() as usize % 3, rng.next_u64() as usize % 3);
                let accumulate = rng.next_u64().is_multiple_of(3);
                st.read_moved((bufs[src], from), len, to, site, &mut scratch, &mut value);
                if accumulate {
                    st.read_into(bufs[dst], to, len, &mut scratch);
                    union_pieces(&value, &scratch, len, site, &mut merged);
                    std::mem::swap(&mut value, &mut merged);
                }
                st.write(bufs[dst], to, len, &value);

                let shift = to as i64 - from as i64;
                let bytes: Vec<Byte> = (0..len)
                    .map(|k| {
                        let b = moved(&flat[src][from + k], shift, site);
                        if accumulate { union(&b, &flat[dst][to + k].1, site) } else { b }
                    })
                    .collect();
                for (k, b) in bytes.into_iter().enumerate() {
                    flat[dst][to + k] = (Some(site), b);
                }

                for (r, &buf) in bufs.iter().enumerate() {
                    let segs = st.bufs.get(&buf).map_or(&[][..], Vec::as_slice);
                    prop_assert!(
                        segs.iter().all(|s| s.start < s.end)
                            && segs.windows(2).all(|w| w[0].end <= w[1].start),
                        "step {}: buffer {} segments overlap or are empty", step, r
                    );
                    for (b, want) in flat[r].iter().enumerate() {
                        st.read_into(buf, b, 1, &mut scratch);
                        prop_assert_eq!(scratch.len(), 1);
                        prop_assert_eq!(&byte(&scratch[0]), want, "step {}: buffer {} byte {}", step, r, b);
                    }
                }
            }
        }
    }
}
