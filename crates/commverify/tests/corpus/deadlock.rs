//! Two ranks whose first instruction waits for a semaphore the *other*
//! rank only signals after its own wait: a happens-before cycle that
//! deadlocks every execution.

use commverify::VerifyError;
use hw::Rank;
use mscclpp::{KernelBuilder, Setup};

use crate::common;

#[test]
fn crossed_sem_waits_form_a_deadlock_cycle() {
    let mut engine = common::engine();
    let mut setup = Setup::new(&mut engine);
    let sem0 = setup.semaphore(Rank(0));
    let sem1 = setup.semaphore(Rank(1));

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).sem_wait(&sem0).sem_signal(&sem1);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).sem_wait(&sem1).sem_signal(&sem0);

    let kernels = vec![k0.build(), k1.build()];
    let report = commverify::analyze_kernels(&kernels, engine.world().pool());
    let [VerifyError::DeadlockCycle { path }] = report.findings.as_slice() else {
        panic!("expected exactly one deadlock cycle, got: {report}");
    };
    // The cycle must pass through both stuck waits.
    assert!(path.contains(&common::site(0, 0, 0)), "{report}");
    assert!(path.contains(&common::site(1, 0, 0)), "{report}");
}

/// Rank 0 waits twice on its semaphore, then signals ranks 1 and 2; each
/// of them waits, then signals rank 0 back. Both of rank 0's signals sit
/// behind its second wait, which needs both replies: two cycles share
/// that wait. The report names the one through the lower rank, on every
/// run.
#[test]
fn a_cycle_shared_by_two_ranks_is_reported_through_the_lower_one() {
    let mut engine = common::engine();
    let mut setup = Setup::new(&mut engine);
    let sem0 = setup.semaphore(Rank(0));
    let sem1 = setup.semaphore(Rank(1));
    let sem2 = setup.semaphore(Rank(2));

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0)
        .sem_wait(&sem0)
        .sem_wait(&sem0)
        .sem_signal(&sem1)
        .sem_signal(&sem2);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).sem_wait(&sem1).sem_signal(&sem0);
    let mut k2 = KernelBuilder::new(Rank(2));
    k2.block(0).sem_wait(&sem2).sem_signal(&sem0);

    let kernels = vec![k0.build(), k1.build(), k2.build()];
    let report = commverify::analyze_kernels(&kernels, engine.world().pool());
    let [VerifyError::DeadlockCycle { path }] = report.findings.as_slice() else {
        panic!("expected exactly one deadlock cycle, got: {report}");
    };
    let expected = [
        common::site(0, 0, 2),
        common::site(1, 0, 0),
        common::site(1, 0, 1),
        common::site(0, 0, 1),
    ];
    assert_eq!(path.as_slice(), &expected, "{report}");
}
