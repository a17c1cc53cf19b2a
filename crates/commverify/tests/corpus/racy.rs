//! A remote put that lands in a range the owner concurrently overwrites,
//! with no signal/wait between the two: a write→write race.

use commverify::VerifyError;
use hw::Rank;
use mscclpp::{KernelBuilder, Protocol, Setup};

use crate::common;

#[test]
fn unsynchronized_put_vs_local_write_is_a_race() {
    let mut engine = common::engine();
    let mut setup = Setup::new(&mut engine);
    let b0 = setup.alloc(Rank(0), 1024);
    let b1 = setup.alloc(Rank(1), 1024);
    let s1 = setup.alloc(Rank(1), 1024);
    let (ch0, _ch1) = setup
        .memory_channel_pair(Rank(0), b0, b1, Rank(1), b1, b0, Protocol::LL)
        .unwrap();

    // Rank 0 puts 256 B into rank 1's buffer; rank 1 overwrites the same
    // range from scratch without waiting for the data to arrive.
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put(&ch0, 0, 0, 256);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).copy(s1, 0, b1, 0, 256);

    let kernels = vec![k0.build(), k1.build()];
    let report = commverify::analyze_kernels(&kernels, engine.world().pool());
    assert_eq!(
        report.findings,
        vec![VerifyError::Race {
            first: common::site(0, 0, 0),
            first_range: (0, 256),
            first_write: true,
            second: common::site(1, 0, 0),
            second_range: (0, 256),
            second_write: true,
            buf: b1,
        }],
        "{report}"
    );
}

#[test]
fn two_racing_pairs_of_one_site_pair_report_the_first_in_record_order() {
    let mut engine = common::engine();
    let mut setup = Setup::new(&mut engine);
    let b0 = setup.alloc(Rank(0), 1024);
    let b1 = setup.alloc(Rank(1), 1024);
    let (ch0, _ch1) = setup
        .memory_channel_pair(Rank(0), b0, b1, Rank(1), b1, b0, Protocol::LL)
        .unwrap();

    // Rank 0 fills `[0, 768)` of rank 1's buffer unsynchronized, while
    // rank 1 copies `[512, 768)` of it down to `[0, 256)`. The put races
    // with the copy's read and with its write. Records run in thread,
    // event, access order (the put, the read, the write), but by start
    // the write comes before the read: the finding is the put against
    // the read, the first pair in record order.
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put(&ch0, 0, 0, 768);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).copy(b1, 512, b1, 0, 256);

    let kernels = vec![k0.build(), k1.build()];
    let report = commverify::analyze_kernels(&kernels, engine.world().pool());
    assert_eq!(
        report.findings,
        vec![VerifyError::Race {
            first: common::site(0, 0, 0),
            first_range: (0, 768),
            first_write: true,
            second: common::site(1, 0, 0),
            second_range: (512, 768),
            second_write: false,
            buf: b1,
        }],
        "{report}"
    );
}

#[test]
fn signalled_put_with_wait_is_clean() {
    let mut engine = common::engine();
    let mut setup = Setup::new(&mut engine);
    let b0 = setup.alloc(Rank(0), 1024);
    let b1 = setup.alloc(Rank(1), 1024);
    let s1 = setup.alloc(Rank(1), 1024);
    let (ch0, ch1) = setup
        .memory_channel_pair(Rank(0), b0, b1, Rank(1), b1, b0, Protocol::LL)
        .unwrap();

    // Same shape, but the consumer waits for the arrival counter first —
    // the wait edge orders the two writes.
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put(&ch0, 0, 0, 256);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).wait_data(&ch1).copy(s1, 0, b1, 0, 256);

    let kernels = vec![k0.build(), k1.build()];
    let report = commverify::analyze_kernels(&kernels, engine.world().pool());
    assert!(report.is_clean(), "{report}");
}
