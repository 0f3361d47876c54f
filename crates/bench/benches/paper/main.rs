//! The paper-shape suite: `cargo bench -p vortex-bench --bench paper -- [ids]`.
//!
//! One plain function per experiment and one registry line each; the
//! harness and the `BENCH_paper.json` writer are `vortex_bench`. See
//! EXPERIMENTS.md for which paper claim each id reproduces, and for the
//! claims that are measured by `benchmark/` or held by tier-1 tests
//! instead.

use vortex_bench::{Clock, Experiment};

mod a1;
mod a2;
mod a3;
mod c3;
mod c6;
mod c8;
mod c9;
mod fig7;
mod fig8;
mod workload;

#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "fig7", clock: Clock::Virtual, run: fig7::run },
    Experiment { id: "fig8", clock: Clock::Virtual, run: fig8::run },
    Experiment { id: "c3", clock: Clock::Model, run: c3::run },
    Experiment { id: "c6", clock: Clock::Virtual, run: c6::run },
    Experiment { id: "c8", clock: Clock::Virtual, run: c8::run },
    Experiment { id: "c9", clock: Clock::Virtual, run: c9::run },
    Experiment { id: "a1", clock: Clock::Model, run: a1::run },
    Experiment { id: "a2", clock: Clock::Model, run: a2::run },
    Experiment { id: "a3", clock: Clock::Model, run: a3::run },
];

fn main() {
    vortex_bench::paper_main(EXPERIMENTS);
}
