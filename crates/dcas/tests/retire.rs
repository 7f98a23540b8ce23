//! `retire_box` defers the drop to the end of a grace period, and
//! `quiesce` then frees it.
//!
//! This is its own test binary on purpose: `quiesce` can only free what
//! no pinned thread might still read, and in a binary shared with other
//! tests a concurrently running test's pin holds the grace period open.
//! Alone here, nothing else pins.

use std::sync::atomic::{AtomicUsize, Ordering};

use lfrc_dcas::{quiesce, retire_box};

#[test]
fn retire_box_defers_then_frees() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Noisy;
    impl Drop for Noisy {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    let before = DROPS.load(Ordering::SeqCst);
    let p = Box::into_raw(Box::new(Noisy));
    unsafe { retire_box(p) };
    quiesce();
    assert_eq!(DROPS.load(Ordering::SeqCst), before + 1);
}
