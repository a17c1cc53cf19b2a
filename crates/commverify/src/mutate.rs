//! Plan-mutation harness: proves the prover.
//!
//! A verifier that accepts every correct plan is only half the story —
//! the other half is that it *rejects* broken ones. This module applies
//! seeded, deterministic, semantics-breaking edits to a verified kernel
//! batch; the test driver (`tests/mutation.rs`) then re-analyzes every
//! mutant and asserts a 100% kill rate, naming any survivor. A mutant
//! counts as killed by *any* finding class: dropping a signalling put is
//! legitimately caught as a sync imbalance before the provenance pass
//! ever runs, and the driver records which class did the killing.
//!
//! Five operators, mirroring the failure modes hand-written plans
//! actually exhibit:
//!
//! | operator              | edit                                        |
//! |-----------------------|---------------------------------------------|
//! | `drop_put`            | delete one data-carrying put                |
//! | `retarget_reduce_src` | shift one reduction's source range          |
//! | `swap_put_dsts`       | swap the destination offsets of two puts    |
//! | `duplicate_reduce`    | apply one accumulating reduce twice         |
//! | `skip_tail_slice`     | halve the bytes of one block's last data op |
//!
//! Operators only target instructions where the edit is guaranteed to
//! change the computed function (e.g. `duplicate_reduce` skips
//! overwrite-semantics reduces, which are idempotent), so every
//! generated mutant is a true negative — survivors are verifier bugs,
//! not equivalent mutants.

use mscclpp::{Instr, Kernel};

/// One mutated kernel batch, tagged with how it was broken.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// Operator that produced it (one of [`OPERATORS`]).
    pub operator: &'static str,
    /// Human-readable description of the exact edit, for survivor
    /// reports.
    pub name: String,
    /// The mutated batch.
    pub kernels: Vec<Kernel>,
}

/// Every mutation operator, in application order.
pub const OPERATORS: [&str; 5] = [
    "drop_put",
    "retarget_reduce_src",
    "swap_put_dsts",
    "duplicate_reduce",
    "skip_tail_slice",
];

/// Deterministic splitmix64 step.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn pick(seed: &mut u64, n: usize) -> usize {
    (next(seed) % n as u64) as usize
}

/// Location of one instruction in a batch.
type Loc = (usize, usize, usize);

fn sites(kernels: &[Kernel], eligible: impl Fn(&Instr) -> bool) -> Vec<Loc> {
    let mut out = Vec::new();
    for (k, kn) in kernels.iter().enumerate() {
        for (b, blk) in kn.blocks.iter().enumerate() {
            for (i, ins) in blk.iter().enumerate() {
                if eligible(ins) {
                    out.push((k, b, i));
                }
            }
        }
    }
    out
}

fn is_data_put(ins: &Instr) -> bool {
    matches!(
        ins,
        Instr::MemPut { .. } | Instr::PortPut { .. } | Instr::RawPut { .. }
    )
}

fn loc_name(kernels: &[Kernel], (k, b, i): Loc) -> String {
    format!(
        "rank {} tb {} pc {} ({})",
        kernels[k].rank.0,
        b,
        i,
        kernels[k].blocks[b][i].mnemonic()
    )
}

/// Deletes one data-carrying put.
fn drop_put(kernels: &[Kernel], seed: &mut u64) -> Option<Mutant> {
    let cands = sites(kernels, is_data_put);
    if cands.is_empty() {
        return None;
    }
    let loc = cands[pick(seed, cands.len())];
    let name = format!("drop_put: delete {}", loc_name(kernels, loc));
    let mut kernels = kernels.to_vec();
    kernels[loc.0].blocks[loc.1].remove(loc.2);
    Some(Mutant {
        operator: "drop_put",
        name,
        kernels,
    })
}

/// Shifts one reduction's source range by its own length, so it folds
/// in the wrong bytes (or reads past the live data).
fn retarget_reduce_src(kernels: &[Kernel], seed: &mut u64) -> Option<Mutant> {
    let cands = sites(kernels, |ins| {
        matches!(
            ins,
            Instr::Reduce { .. }
                | Instr::MemReadReduce { .. }
                | Instr::ReduceInto { .. }
                | Instr::RawReducePut { .. }
                | Instr::SwitchReduce { .. }
        )
    });
    if cands.is_empty() {
        return None;
    }
    let loc = cands[pick(seed, cands.len())];
    let name = format!(
        "retarget_reduce_src: shift source of {}",
        loc_name(kernels, loc)
    );
    let mut kernels = kernels.to_vec();
    match &mut kernels[loc.0].blocks[loc.1][loc.2] {
        Instr::Reduce { src_off, bytes, .. } => *src_off += *bytes,
        Instr::MemReadReduce {
            remote_off, bytes, ..
        } => *remote_off += *bytes,
        Instr::ReduceInto { a_off, bytes, .. } => *a_off += *bytes,
        Instr::RawReducePut { a_off, bytes, .. } => *a_off += *bytes,
        Instr::SwitchReduce { src_off, bytes, .. } => *src_off += *bytes,
        _ => unreachable!(),
    }
    Some(Mutant {
        operator: "retarget_reduce_src",
        name,
        kernels,
    })
}

fn put_dst_off(ins: &Instr) -> Option<usize> {
    match ins {
        Instr::MemPut { dst_off, .. }
        | Instr::PortPut { dst_off, .. }
        | Instr::RawPut { dst_off, .. } => Some(*dst_off),
        _ => None,
    }
}

fn set_put_dst_off(ins: &mut Instr, v: usize) {
    match ins {
        Instr::MemPut { dst_off, .. }
        | Instr::PortPut { dst_off, .. }
        | Instr::RawPut { dst_off, .. } => *dst_off = v,
        _ => unreachable!(),
    }
}

fn put_variant(ins: &Instr) -> u8 {
    match ins {
        Instr::MemPut { .. } => 0,
        Instr::PortPut { .. } => 1,
        Instr::RawPut { .. } => 2,
        _ => u8::MAX,
    }
}

/// Swaps the destination offsets of two same-variant puts with distinct
/// destinations, crossing their chunks.
fn swap_put_dsts(kernels: &[Kernel], seed: &mut u64) -> Option<Mutant> {
    let cands = sites(kernels, is_data_put);
    if cands.len() < 2 {
        return None;
    }
    // Seeded starting point, then the first partner that actually
    // changes the dataflow.
    let start = pick(seed, cands.len());
    for n in 0..cands.len() {
        let a = cands[(start + n) % cands.len()];
        let ia = &kernels[a.0].blocks[a.1][a.2];
        for &b in &cands {
            if b == a {
                continue;
            }
            let ib = &kernels[b.0].blocks[b.1][b.2];
            if put_variant(ia) != put_variant(ib) || put_dst_off(ia) == put_dst_off(ib) {
                continue;
            }
            let name = format!(
                "swap_put_dsts: cross {} with {}",
                loc_name(kernels, a),
                loc_name(kernels, b)
            );
            let (da, db) = (put_dst_off(ia).unwrap(), put_dst_off(ib).unwrap());
            let mut kernels = kernels.to_vec();
            set_put_dst_off(&mut kernels[a.0].blocks[a.1][a.2], db);
            set_put_dst_off(&mut kernels[b.0].blocks[b.1][b.2], da);
            return Some(Mutant {
                operator: "swap_put_dsts",
                name,
                kernels,
            });
        }
    }
    None
}

/// Applies one accumulating (`dst = op(dst, src)`) reduce twice.
/// Overwrite-semantics reduces (`ReduceInto`, `RawReducePut`,
/// `SwitchReduce`) are idempotent and would yield equivalent mutants, so
/// only true accumulators are targeted.
fn duplicate_reduce(kernels: &[Kernel], seed: &mut u64) -> Option<Mutant> {
    let cands = sites(kernels, |ins| {
        matches!(ins, Instr::Reduce { .. } | Instr::MemReadReduce { .. })
    });
    if cands.is_empty() {
        return None;
    }
    let loc = cands[pick(seed, cands.len())];
    let name = format!("duplicate_reduce: repeat {}", loc_name(kernels, loc));
    let mut kernels = kernels.to_vec();
    let dup = kernels[loc.0].blocks[loc.1][loc.2].clone();
    kernels[loc.0].blocks[loc.1].insert(loc.2 + 1, dup);
    Some(Mutant {
        operator: "duplicate_reduce",
        name,
        kernels,
    })
}

/// Halves the byte count of one block's *last* data-moving instruction —
/// the tail of that rank's slice never arrives.
fn skip_tail_slice(kernels: &[Kernel], seed: &mut u64) -> Option<Mutant> {
    // Last data op of each non-empty block, where halving to 4-byte
    // alignment still changes the transfer.
    let mut cands: Vec<Loc> = Vec::new();
    for (k, kn) in kernels.iter().enumerate() {
        for (b, blk) in kn.blocks.iter().enumerate() {
            let last = blk
                .iter()
                .enumerate()
                .rev()
                .find_map(|(i, ins)| ins.dataflow().map(|flow| (i, flow.bytes())));
            if let Some((i, bytes)) = last {
                if bytes >= 8 {
                    cands.push((k, b, i));
                }
            }
        }
    }
    if cands.is_empty() {
        return None;
    }
    let loc = cands[pick(seed, cands.len())];
    let name = format!("skip_tail_slice: halve {}", loc_name(kernels, loc));
    let mut kernels = kernels.to_vec();
    halve_bytes(&mut kernels[loc.0].blocks[loc.1][loc.2]);
    Some(Mutant {
        operator: "skip_tail_slice",
        name,
        kernels,
    })
}

fn halve_bytes(ins: &mut Instr) {
    match ins {
        Instr::MemPut { bytes, .. }
        | Instr::PortPut { bytes, .. }
        | Instr::RawPut { bytes, .. }
        | Instr::MemReadReduce { bytes, .. }
        | Instr::SwitchReduce { bytes, .. }
        | Instr::SwitchBroadcast { bytes, .. }
        | Instr::Copy { bytes, .. }
        | Instr::Reduce { bytes, .. }
        | Instr::RawReducePut { bytes, .. }
        | Instr::ReduceInto { bytes, .. } => {
            // Keep element alignment: LL/HB payloads are 4-byte
            // granular, and a misaligned tail would trip bounds checks
            // before semantics get a say.
            *bytes = (*bytes / 2) & !3;
            if *bytes == 0 {
                *bytes = 4;
            }
        }
        _ => {}
    }
}

/// Applies one operator by name at a seeded site. Returns `None` when
/// the batch has no eligible instruction for it.
pub fn mutate(kernels: &[Kernel], operator: &str, seed: u64) -> Option<Mutant> {
    let mut s = seed ^ 0xc0ff_ee00_dead_beef;
    match operator {
        "drop_put" => drop_put(kernels, &mut s),
        "retarget_reduce_src" => retarget_reduce_src(kernels, &mut s),
        "swap_put_dsts" => swap_put_dsts(kernels, &mut s),
        "duplicate_reduce" => duplicate_reduce(kernels, &mut s),
        "skip_tail_slice" => skip_tail_slice(kernels, &mut s),
        _ => panic!("unknown mutation operator {operator:?}"),
    }
}

/// Generates one mutant per applicable operator at the given seed.
pub fn mutants(kernels: &[Kernel], seed: u64) -> Vec<Mutant> {
    OPERATORS
        .iter()
        .filter_map(|op| mutate(kernels, op, seed))
        .collect()
}
