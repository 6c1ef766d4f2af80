//! # partix-bench
//!
//! Three things, and nothing else measures in this workspace except the
//! frozen `benchmark/` package (the judge of every performance claim):
//!
//! 1. **The paper-figure harness** — [`runner`], [`output`] and the
//!    `harness` binary reproduce the paper's evaluation (Section 5):
//!
//!    | Paper | Database | Harness |
//!    |-------|----------|---------|
//!    | Fig. 7(a) | ItemsSHor (≈2 KB docs), horizontal, 2/4/8 fragments | `harness fig7a` |
//!    | Fig. 7(b) | ItemsLHor (≈80 KB docs), horizontal | `harness fig7b` |
//!    | Fig. 7(c) | XBenchVer, vertical prolog/body/epilog | `harness fig7c` |
//!    | Fig. 7(d/e) | StoreHyb, hybrid FragMode1/2, ±transmission | `harness fig7d` |
//!    | "72×" claim | ItemsSHor text search & aggregation | `harness headline` |
//!    | index ablation | ItemsSHor, text index on/off | `harness ablation-index` |
//!    | parse-cost ablation | StoreHyb, hot vs cold pages | `harness ablation-fragmode` |
//!    | localization ablation | ItemsSHor, pruning on/off | `harness ablation-localization` |
//!
//!    Database sizes default to 2% of the paper's 5/20/100/250/500 MB so a
//!    full sweep finishes in minutes; pass `--scale 1.0` for paper-scale
//!    runs. Shapes (who wins, crossovers), not absolute times, are the
//!    reproduction target.
//!
//! 2. **One scenario runner** — [`scenario`] owns the client fan-out, the
//!    latency tally, the percentile, the oracle check and the JSON record;
//!    [`scenarios`] defines `harness chaos | rebalance | scaleout |
//!    multitenant | writes` on it (→ `BENCH_<name>.json`).
//!
//! 3. **The test fixture** the root differential suites share: [`setup`]
//!    (fragment designs, placement, publication, the centralized copy),
//!    [`queries`] (the reconstructed query sets — the exact texts live in
//!    the unavailable technical report \[3]), [`remote`] (any setup behind
//!    loopback TCP node servers) and [`oracle`] (the canonical form and
//!    the centralized answers everything is compared against).

pub mod oracle;
pub mod output;
pub mod queries;
pub mod remote;
pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod setup;
