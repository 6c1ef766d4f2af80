//! One generator, one oracle. Every distributed ≡ centralized suite draws
//! its cases from [`gen`] and checks each answer with [`check`]: the
//! distributed answer, asked over one [`Route`], against
//! `execute_centralized` over the unfragmented copy on node 0.
//!
//! The query decides the comparison ([`Form`]): item for item where the
//! centralized order is defined — an `order by`, at most one item, one
//! fragment answering, documents rebuilt in document order — as a
//! multiset elsewhere (fragment concatenation order is not document
//! order). Nothing else is exempted.
#![allow(dead_code)] // each suite uses its own part of the fixture

pub mod gen;

use gen::{Case, Family};
use partix::engine::{DispatchMode, ExecOptions, Fault, FaultInjector, FaultPlan, PartiX};
use partix::engine::{PartixError, QueryReport, RetryPolicy};
use partix::frag::FragMode;
use partix::gen::{gen_articles, gen_store, ArticleProfile, ItemProfile};
use partix::query::Item;
use partix_bench::oracle::{canonical, centralized_text, exact};
use partix_bench::remote::RemoteCluster;
use partix_bench::{queries, setup};
use partix_net::{
    serve_coordinator, StreamClient, StreamClientConfig, StreamOpts, StreamServer,
    StreamServerConfig,
};
use proptest::test_runner::ProptestConfig;
use std::sync::Arc;
use std::time::Duration;

/// Per-block case budget, overridable with `PARTIX_PROPTEST_CASES`.
pub fn cases(default_cases: u32) -> ProptestConfig {
    let dialed = std::env::var("PARTIX_PROPTEST_CASES").ok().and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(dialed.unwrap_or(default_cases))
}

/// How the distributed answer is asked for.
pub enum Route {
    /// `execute`: the answer buffered at the coordinator.
    Buffered,
    /// `execute_streamed_with` in this dispatch mode; the collected stream
    /// must also be exactly the buffered answer.
    Streamed(DispatchMode),
    /// Through a loopback coordinator (`StreamClient`, pooled dispatch),
    /// streamed and buffered on the wire, twice — plan parsed, then
    /// cached — before the in-process run: both wire answers must be the
    /// in-process one item for item, with the same deterministic stats
    /// and never partial.
    Coordinator,
    /// Every node behind a loopback node server (`RemoteCluster`).
    Remote,
    /// Under this seeded fault plan (200 ms per attempt), where a typed
    /// error is an accepted outcome and wrong data never is. Generated
    /// cases place every fragment twice.
    Faulted(FaultPlan),
}

impl Route {
    /// The fault plan of `seed` for clusters of up to eight nodes, without
    /// latency faults (they only slow a call down).
    pub fn faulted(seed: u64) -> Route {
        let mut plan = FaultPlan::from_seed(seed, 8, 0.8);
        for faults in &mut plan.node_faults {
            faults.retain(|f| !matches!(f, Fault::Latency { .. }));
        }
        Route::Faulted(plan)
    }

    fn replicas(&self) -> usize {
        1 + usize::from(matches!(self, Route::Faulted(_)))
    }
}

/// A cluster set up to be asked over one route.
pub struct On {
    pub px: Arc<PartiX>,
    /// The fault injectors a [`Route::Faulted`] plan installed, by node.
    pub injectors: Vec<Option<Arc<FaultInjector>>>,
    route: Route,
    remote: Option<RemoteCluster>,
    /// A [`Route::Coordinator`] cluster's coordinator and its client.
    pub coordinator: Option<(StreamServer, StreamClient)>,
}

impl On {
    pub fn new(mut px: PartiX, route: Route) -> On {
        let (mut remote, mut injectors) = (None, Vec::new());
        match &route {
            Route::Streamed(mode) => px.set_dispatch(*mode),
            Route::Coordinator => px.set_dispatch(DispatchMode::Pool),
            Route::Remote => remote = Some(RemoteCluster::attach(&px)),
            Route::Faulted(plan) => {
                let timeout = Some(Duration::from_millis(200));
                px.set_retry_policy(RetryPolicy { timeout, ..px.retry_policy() });
                injectors = plan.install(&px);
            }
            Route::Buffered => {}
        }
        let px = Arc::new(px);
        let coordinator = matches!(route, Route::Coordinator).then(|| {
            let config = StreamServerConfig::default();
            let server = serve_coordinator("127.0.0.1:0", Arc::clone(&px), config).expect("bind");
            let addr = server.addr().to_string();
            let client = StreamClient::connect(&addr, StreamClientConfig::default()).expect("dial");
            (server, client)
        });
        On { px, injectors, route, remote, coordinator }
    }

    /// The client of a [`Route::Coordinator`] cluster.
    pub fn client(&self) -> &StreamClient {
        &self.coordinator.as_ref().expect("a coordinator").1
    }

    /// The loopback node servers of a [`Route::Remote`] cluster.
    pub fn wire(&self) -> &RemoteCluster {
        self.remote.as_ref().expect("a remote route")
    }
}

/// Compare `items` with `expected` in the form `query` decides.
fn agree(
    query: &str,
    items: &[Item],
    expected: &[Item],
    report: Option<&QueryReport>,
) -> Result<Form, String> {
    let form = Form::of(query, expected, report);
    let (got, want) = (form.apply(items), form.apply(expected));
    match got == want {
        true => Ok(form),
        false => Err(format!("{form:?} answers differ\ndistributed: {got}\ncentralized: {want}")),
    }
}

/// `items`, an answer to `query` asked of `px` some other way — as a
/// tenant, beside a rebalance or a write — against the centralized one.
pub fn check_answer(px: &PartiX, query: &str, items: &[Item]) -> Result<(), String> {
    let central = px.execute_centralized(0, &centralized_text(query)).map_err(|e| message(&e))?;
    agree(query, items, &central.items, None).map(drop)
}

/// Every query of `workload`, asked of `px` as it stands, answers as the
/// centralized run does.
pub fn assert_workload(px: &PartiX, workload: &[(&'static str, String)], label: &str) {
    for (id, query) in workload {
        let items = px.execute(query).unwrap_or_else(|e| panic!("{label}/{id}: {e}")).items;
        check_answer(px, query, &items).unwrap_or_else(|e| panic!("{label}/{id}: {query}\n{e}"));
    }
}

/// How two answers are compared.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    #[default]
    Exact,
    Canonical,
}

impl Form {
    fn of(query: &str, expected: &[Item], report: Option<&QueryReport>) -> Form {
        let ordered = report.is_some_and(|r| r.sites.len() == 1 || r.reconstructed);
        match query.contains("order by") || expected.len() <= 1 || ordered {
            true => Form::Exact,
            false => Form::Canonical,
        }
    }

    pub fn apply(self, items: &[Item]) -> String {
        match self {
            Form::Exact => exact(items),
            Form::Canonical => canonical(items),
        }
    }
}

/// What one check saw.
#[derive(Debug, Default)]
pub struct Verdict {
    pub form: Form,
    /// The distributed run answered (under faults it may fail typed).
    pub answered: bool,
    /// Both runs failed: with the same kind of evaluation error, or with
    /// any typed error under faults.
    pub failed_alike: bool,
    /// The distributed run refused with `PartixError::Composition`: `min`
    /// / `max` partials of numbers and strings have no composed answer.
    pub refused: bool,
    /// Items in the answer.
    pub items: usize,
    /// Slices the stream came in ([`Route::Streamed`] only).
    pub slices: usize,
    pub report: Option<QueryReport>,
}

/// An error as the evaluator worded it.
pub fn message(error: &PartixError) -> String {
    match error {
        PartixError::SubQuery { error, .. }
        | PartixError::Reconstruction(error)
        | PartixError::Composition(error) => error.clone(),
        other => other.to_string(),
    }
}

/// The kind of an evaluation error (`type error`, …), wherever a route
/// wrapped it: a fragment that fails first names its own first offending
/// item, and a pushed `avg` its `sum`.
fn kind(message: &str) -> &str {
    match message.find(" error") {
        Some(end) => &message[message[..end].rfind(' ').map_or(0, |start| start + 1)..end + 6],
        None => message,
    }
}

type Answer = Result<(Vec<Item>, Option<QueryReport>, usize), PartixError>;
type Workload = Vec<(&'static str, String)>;
type Property = Result<(), String>;

/// Ask `query` over `on`'s route and compare the answer with the
/// centralized one. `Err` describes the first disagreement.
pub fn check(on: &On, query: &str) -> Result<Verdict, String> {
    let central = on.px.execute_centralized(0, &centralized_text(query));
    let central = central.map(|out| out.items).map_err(|e| message(&e));
    let faulted = matches!(on.route, Route::Faulted(_));
    match (ask(on, query)?, central) {
        (Ok((items, report, slices)), Ok(expected)) => {
            let form = agree(query, &items, &expected, report.as_ref())?;
            let (answered, items) = (true, items.len());
            Ok(Verdict { form, answered, items, slices, report, ..Verdict::default() })
        }
        (Err(error), Err(central)) if faulted || kind(&message(&error)) == kind(&central) => {
            Ok(Verdict { failed_alike: true, ..Verdict::default() })
        }
        // `min` / `max` partials of numbers on some fragments and strings
        // on others have no composed answer: the documented refusal (a
        // remainder that fails to evaluate is a composition error too,
        // and no refusal)
        (Err(PartixError::Composition(error)), _) if error.contains("is not known") => {
            Ok(Verdict { refused: true, ..Verdict::default() })
        }
        (Err(_), _) if faulted => Ok(Verdict::default()),
        (Err(error), central) => {
            Err(format!("distributed failed: {error}\ncentralized: {central:?}"))
        }
        (Ok((items, ..)), Err(central)) => Err(format!(
            "distributed answered {} where the centralized run failed: {central}",
            exact(&items)
        )),
    }
}

/// The slices `execute_streamed_with` emits for `query`, in order, and
/// the run's report.
pub fn stream(px: &PartiX, query: &str) -> Result<(Vec<Vec<Item>>, QueryReport), PartixError> {
    let mut slices = Vec::new();
    let mut emit = |slice| {
        slices.push(slice);
        true
    };
    let report = px.execute_streamed_with(query, ExecOptions::default(), &mut emit)?.report;
    Ok((slices, report))
}

/// The distributed answer over `on`'s route; `Err` when the route's own
/// legs disagree.
fn ask(on: &On, query: &str) -> Result<Answer, String> {
    let px = &on.px;
    let buffered = |px: &PartiX| px.execute(query).map(|r| (r.items, Some(r.report), 0));
    match &on.route {
        Route::Buffered | Route::Remote | Route::Faulted(_) => Ok(buffered(px)),
        Route::Streamed(_) => match (stream(px, query), buffered(px)) {
            (Ok((slices, report)), Ok((whole, ..))) => {
                let items: Vec<Item> = slices.iter().flatten().cloned().collect();
                match exact(&whole) == exact(&items) {
                    true => Ok(Ok((items, Some(report), slices.len()))),
                    false => Err(format!(
                        "the buffered answer {} is not the collected stream {}",
                        exact(&whole),
                        exact(&items)
                    )),
                }
            }
            (Err(e), Err(_)) => Ok(Err(e)),
            (s, b) => Err(format!("answered streamed {}, buffered {}", s.is_ok(), b.is_ok())),
        },
        Route::Coordinator => {
            let client = on.client();
            let mode = |buffered| StreamOpts { buffered, ..StreamOpts::default() };
            // the wire asks first: its first pass parses and localizes
            // the plan, its second finds it in the plan cache
            let both = |pass| {
                (pass, client.query(query, mode(false)), client.query(query, mode(true)))
            };
            let passes = ["plan parsed", "plan cached"].map(both);
            let local = buffered(px);
            for (pass, streamed, wired) in passes {
                let (s, b, l) = match (streamed, wired, &local) {
                    (Ok(s), Ok(b), Ok(l)) => (s, b, l),
                    (Err(_), Err(_), Err(_)) => break,
                    (s, b, l) => {
                        let (s, b, l) = (s.is_ok(), b.is_ok(), l.is_ok());
                        return Err(format!(
                            "{pass}: answered streamed {s}, buffered {b}, here {l}"
                        ));
                    }
                };
                let answers = [exact(&s.items), exact(&b.items), exact(&l.0)];
                if answers[0] != answers[1] || answers[0] != answers[2] {
                    return Err(format!("{pass}: streamed / buffered / in-process {answers:?}"));
                }
                let stats = |s: &partix_net::StreamStats| {
                    (s.sites, s.fragments_pruned, s.docs_scanned, s.partial, s.catalog_epoch)
                };
                if stats(&s.stats) != stats(&b.stats) || s.stats.partial {
                    return Err(format!("{pass}: stats {:?} / {:?}", s.stats, b.stats));
                }
            }
            Ok(local)
        }
    }
}

/// Check `query` over `on`, panicking on a disagreement and, off the
/// faulted route, on any outcome but an answer: a fixed query must be
/// answered, not merely fail as the centralized run does.
pub fn assert_answer(on: &On, query: &str, label: &str) -> Verdict {
    let verdict = check(on, query).unwrap_or_else(|e| panic!("{label}: {query}\n{e}"));
    let faulted = matches!(on.route, Route::Faulted(_));
    assert!(verdict.answered || faulted, "{label}: {query}\nnot answered: {verdict:?}");
    verdict
}

/// [`assert_answer`] for every query of `workload`; how many were
/// answered (all of them off the faulted route).
pub fn assert_answers(on: &On, workload: &[(&'static str, String)], label: &str) -> usize {
    let answer = |(id, query): &(_, String)| assert_answer(on, query, &format!("{label}/{id}"));
    workload.iter().map(answer).filter(|v| v.answered).count()
}

/// The fixed bench workloads of `family` (`partix_bench::queries`) over
/// their setups, each fragment on `replicas` nodes where the setup
/// places copies.
fn workloads(family: Family, replicas: usize) -> Vec<(String, PartiX, Workload)> {
    let d = setup::DIST;
    match family {
        Family::Horizontal => {
            let docs = setup::quick_items(80);
            let at = |n| (format!("hor{n}"), setup::horizontal_replicated(&docs, n, replicas));
            [at(2), at(4), at(8)].map(|(label, px)| (label, px, queries::horizontal(d))).into()
        }
        Family::Vertical => {
            let docs = gen_articles(10, ArticleProfile::SMALL, 29);
            vec![("vert".into(), setup::vertical(&docs), queries::vertical(d))]
        }
        Family::Hybrid => {
            let store = gen_store(40, ItemProfile::Small, 31);
            let at = |mode| (format!("{mode:?}"), setup::hybrid(&store, mode), queries::hybrid(d));
            vec![at(FragMode::SingleDoc), at(FragMode::ManySmallDocs)]
        }
    }
}

/// Build the case's cluster and check its query over `route`.
pub fn check_case(case: &Case, route: Route) -> Result<Verdict, String> {
    let on = On::new(case.cluster(route.replicas()), route);
    check(&on, &case.query.text())
}

/// `property` over the case budget, the families taken in turn. A failing
/// case is reduced ([`Case::reduce`]) and printed with its seed, which
/// [`Case::draw`] replays.
pub fn for_cases(families: &[Family], default_cases: u32, property: impl Fn(&Case) -> Property) {
    // FNV-1a of the test's name: each property draws its own cases
    let name = std::thread::current().name().unwrap_or("").to_owned();
    let fnv = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325, fnv);
    for k in 0..cases(default_cases).cases as u64 {
        let seed = salt ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case = Case::draw(seed, families[k as usize % families.len()]);
        if let Err(error) = property(&case) {
            let small = case.reduce(|c| property(c).is_err());
            let again = property(&small).err().unwrap_or_default();
            panic!("case {k} failed: {error}\n{case:?}\nreduced:\n{small:?}\n{again}");
        }
    }
}

/// Distributed ≡ centralized over `route` (built per case from its seed):
/// the fixed bench workloads of `families` first, then the generated
/// cases.
pub fn route_holds(families: &[Family], default_cases: u32, route: impl Fn(u64) -> Route) {
    for &family in families {
        for (label, px, workload) in workloads(family, route(0).replicas()) {
            let on = On::new(px, route(3));
            assert_answers(&on, &workload, &label);
            if let Some(wire) = &on.remote {
                assert!(wire.wire_bytes() > 0, "{label}: no bytes crossed the wire");
            }
        }
    }
    for_cases(families, default_cases, |case| check_case(case, route(case.seed)).map(drop));
}
