//! Output checks. Each returns the first mismatch as an error message
//! instead of panicking, so a bad output fails one op, not the run.

use hw::{BufferId, DataType, Machine};
use inference::{RequestTimeline, ServeReport};
use sim::Engine;

/// Input element `i` of `rank`: small integers whose f16 sums stay exact
/// up to 256 ranks. `off` shifts the pattern per op and seed.
pub fn fill_val(rank: usize, i: usize, off: usize) -> f32 {
    ((rank + i + off) % 8) as f32
}

/// Every rank's output holds, element for element, the exact sum of
/// every rank's input.
pub fn all_reduce(
    e: &Engine<Machine>,
    outs: &[BufferId],
    count: usize,
    off: usize,
) -> Result<(), String> {
    let world = outs.len();
    // The sum depends on the element index only modulo 8.
    let want: [f32; 8] = std::array::from_fn(|k| (0..world).map(|s| fill_val(s, k, off)).sum());
    for (r, &out) in outs.iter().enumerate() {
        let data = e.world().pool().bytes(out, 0, count * 2);
        for i in 0..count {
            let got = DataType::F16.decode(data, i * 2);
            if got != want[i % 8] {
                return Err(format!(
                    "allreduce rank {r} elem {i}: got {got}, want {}",
                    want[i % 8]
                ));
            }
        }
    }
    Ok(())
}

/// Every rank's output holds every rank's input chunk, in rank order.
pub fn all_gather(
    e: &Engine<Machine>,
    outs: &[BufferId],
    count: usize,
    off: usize,
) -> Result<(), String> {
    let world = outs.len();
    for (r, &out) in outs.iter().enumerate() {
        let data = e.world().pool().bytes(out, 0, count * 2 * world);
        for src in 0..world {
            for i in 0..count {
                let got = DataType::F16.decode(data, (src * count + i) * 2);
                let want = fill_val(src, i, off);
                if got != want {
                    return Err(format!(
                        "allgather rank {r} chunk {src} elem {i}: got {got}, want {want}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The engine never scheduled an event in its past.
pub fn engine(e: &Engine<Machine>) -> Result<(), String> {
    match e.clamped_past_events() {
        0 => Ok(()),
        n => Err(format!("{n} events scheduled in the past were clamped")),
    }
}

/// Every offered request reached exactly one terminal state, the KV
/// pool balances, and every request timeline tiles its latency exactly.
pub fn serve(
    report: &ServeReport,
    timelines: &[RequestTimeline],
    offered: usize,
) -> Result<(), String> {
    let ended =
        report.completed + report.shed + report.rejected + report.timed_out + report.evicted;
    if ended != offered {
        return Err(format!("{ended} terminal states for {offered} requests"));
    }
    if !report.kv.balances() {
        return Err(format!("KV pool does not balance: {:?}", report.kv));
    }
    if let Some(t) = timelines.iter().find(|t| !t.tiles_exactly()) {
        return Err(format!("request {} timeline does not tile", t.id));
    }
    Ok(())
}
