//! The runner the property suites share: `n` seeded cases of one body.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `case` `n` times, case `i` on a `StdRng` seeded from `name` and
/// `i`, and stops at the first panic. A panicking case prints its index
/// and seed next to the panic; a `StdRng` with that seed replays it.
pub fn cases(name: &str, n: u32, mut case: impl FnMut(&mut StdRng)) {
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    for i in 0..n {
        let seed = base ^ u64::from(i);
        let _report = Report(name, i, n, seed);
        case(&mut StdRng::seed_from_u64(seed));
    }
}

/// Property name, case index, case count and seed of the case in flight.
struct Report<'a>(&'a str, u32, u32, u64);

impl Drop for Report<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let Report(name, i, n, seed) = self;
            eprintln!("property {name} failed at case {i}/{n}, seed {seed:#018x}");
        }
    }
}
