//! # partix-cli
//!
//! Command implementations behind the `partix` binary: a small
//! single-node workflow for loading XML files into a persistent
//! database, querying it, and experimenting with fragmentation designs.
//!
//! ```text
//! partix load  <db-dir> <collection> <file.xml>...   load documents
//! partix query <db-dir> '<xquery>'                   run a query
//! partix collections <db-dir>                        list collections
//! partix fragment <db-dir> <collection> <path> <n>   auto-design + apply
//! partix stats <db-dir> '<xquery>' [--trace FILE]    traced run + metrics
//! partix chaos [seed]                                fault-tolerance demo
//! ```
//!
//! Every command is a plain function returning its report as a string, so
//! the binary stays a thin argument-parsing shell and the behaviour is
//! unit-testable.

use partix_frag::Fragmenter;
use partix_path::PathExpr;
use partix_schema::{CollectionDef, RepoKind};
use partix_storage::{Database, DurableDb, WriteOp};
use partix_xml::Document;
use std::fmt::Write as _;
use std::path::Path;

/// CLI-level failure: message already formatted for the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Open an existing database directory, or start a fresh one. A crash
/// between a logged `put`/`delete` and its checkpoint leaves durable
/// records in the directory's write-ahead log; replaying them here means
/// every command sees the same recovered state [`DurableDb::open`]
/// would.
pub fn open_or_new(dir: &Path) -> Result<Database, CliError> {
    let db = if dir.join("MANIFEST").exists() {
        Database::load_from(dir).map_err(|e| err(format!("cannot open {}: {e}", dir.display())))?
    } else {
        Database::new()
    };
    let wal_path = dir.join(partix_storage::wal::WAL_FILE);
    if wal_path.exists() {
        let (ops, _) = partix_storage::wal::replay_file(&wal_path)
            .map_err(|e| err(format!("cannot replay {}: {e}", wal_path.display())))?;
        for op in &ops {
            db.apply_write(op);
        }
    }
    Ok(db)
}

/// `partix put`: upsert one XML document into `collection` through the
/// write-ahead log (append → fsync → apply → checkpoint). The document
/// name defaults to the file stem — putting the same file again replaces
/// the previous version. A crash at any point leaves the directory
/// recoverable: either the old state or the new one, never a torn mix.
pub fn put(dir: &Path, collection: &str, file: &str) -> Result<String, CliError> {
    let text =
        std::fs::read_to_string(file).map_err(|e| err(format!("cannot read {file}: {e}")))?;
    let mut doc = partix_xml::parse(&text).map_err(|e| err(format!("{file}: {e}")))?;
    doc.name = Some(
        Path::new(file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "doc".to_owned()),
    );
    let name = doc.name.clone().unwrap_or_default();
    let bytes = doc.approx_size();
    let durable = DurableDb::open(dir)
        .map_err(|e| err(format!("cannot open {}: {e}", dir.display())))?;
    let replaced = durable
        .apply(&WriteOp::Put { collection: collection.into(), doc })
        .map_err(|e| err(format!("put: {e}")))?;
    durable
        .checkpoint()
        .map_err(|e| err(format!("cannot checkpoint {}: {e}", dir.display())))?;
    Ok(format!(
        "{} {name:?} ({bytes} B) in collection {collection:?} at {}",
        if replaced > 0 { "replaced" } else { "stored" },
        dir.display()
    ))
}

/// `partix delete`: remove the named document from `collection` through
/// the write-ahead log.
pub fn delete(dir: &Path, collection: &str, name: &str) -> Result<String, CliError> {
    let durable = DurableDb::open(dir)
        .map_err(|e| err(format!("cannot open {}: {e}", dir.display())))?;
    let removed = durable
        .apply(&WriteOp::Delete { collection: collection.into(), name: name.into() })
        .map_err(|e| err(format!("delete: {e}")))?;
    if removed == 0 {
        return Err(err(format!(
            "delete: no document {name:?} in collection {collection:?}"
        )));
    }
    durable
        .checkpoint()
        .map_err(|e| err(format!("cannot checkpoint {}: {e}", dir.display())))?;
    Ok(format!("deleted {name:?} from collection {collection:?} at {}", dir.display()))
}

/// `partix load`: parse XML files and store them into `collection`.
/// Document names default to the file stem.
pub fn load(dir: &Path, collection: &str, files: &[String]) -> Result<String, CliError> {
    if files.is_empty() {
        return Err(err("load: no input files given"));
    }
    let db = open_or_new(dir)?;
    let mut count = 0usize;
    let mut bytes = 0usize;
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| err(format!("cannot read {file}: {e}")))?;
        let mut doc = partix_xml::parse(&text)
            .map_err(|e| err(format!("{file}: {e}")))?;
        doc.name = Some(
            Path::new(file)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| format!("doc{count}")),
        );
        bytes += doc.approx_size();
        db.store(collection, doc);
        count += 1;
    }
    db.save_to(dir)
        .map_err(|e| err(format!("cannot save {}: {e}", dir.display())))?;
    Ok(format!(
        "loaded {count} document(s) ({bytes} B) into collection {collection:?} at {}",
        dir.display()
    ))
}

/// `partix query`: run an XQuery against the database and render the
/// result plus execution statistics.
pub fn query(dir: &Path, text: &str) -> Result<String, CliError> {
    let db = open_or_new(dir)?;
    let out = db.execute(text).map_err(|e| err(e.to_string()))?;
    let mut rendered = out.serialize();
    if rendered.is_empty() {
        rendered.push_str("(empty sequence)");
    }
    let _ = write!(
        rendered,
        "\n-- {} item(s) in {:.6}s, {} of {} document(s) scanned{}",
        out.items.len(),
        out.stats.elapsed,
        out.stats.docs_scanned,
        out.stats.collection_size,
        if out.stats.index_used { ", index-assisted" } else { "" },
    );
    if out.stats.morsels > 0 {
        let _ = write!(rendered, ", {} parallel morsel(s)", out.stats.morsels);
    }
    Ok(rendered)
}

/// `partix collections`: list stored collections with document counts and
/// sizes.
pub fn collections(dir: &Path) -> Result<String, CliError> {
    let db = open_or_new(dir)?;
    let names = db.collection_names();
    if names.is_empty() {
        return Ok("(no collections)".to_owned());
    }
    let mut out = String::new();
    for name in names {
        let docs = db.collection_len(&name).unwrap_or(0);
        let bytes = db.collection_bytes(&name).unwrap_or(0);
        let _ = writeln!(out, "{name}: {docs} document(s), {bytes} B");
    }
    Ok(out.trim_end().to_owned())
}

/// `partix drop`: remove a collection and persist the database.
pub fn drop(dir: &Path, collection: &str) -> Result<String, CliError> {
    let db = open_or_new(dir)?;
    if !db.collection_names().iter().any(|n| n == collection) {
        return Err(err(format!("drop: no collection {collection:?}")));
    }
    let docs = db.collection_len(collection).unwrap_or(0);
    db.drop_collection(collection);
    db.save_to(dir)
        .map_err(|e| err(format!("cannot save {}: {e}", dir.display())))?;
    Ok(format!("dropped collection {collection:?} ({docs} document(s))"))
}

/// `partix fragment`: derive a balanced horizontal design for
/// `collection` over the values of `by_path`, apply it, store each
/// fragment as `<collection>.<fragment>`, verify the correctness rules,
/// and persist.
pub fn fragment(
    dir: &Path,
    collection: &str,
    by_path: &str,
    n: usize,
) -> Result<String, CliError> {
    let db = open_or_new(dir)?;
    let docs_arc = partix_query::CollectionProvider::collection(&db, collection)
        .map_err(|e| err(e.to_string()))?;
    let docs: Vec<Document> = docs_arc.iter().map(|d| (**d).clone()).collect();
    let path = PathExpr::parse(by_path).map_err(|e| err(e.to_string()))?;
    // an on-the-fly schema is not available for ad-hoc data: build the
    // collection descriptor without one (single-valuedness is then the
    // caller's responsibility, checked at the data level below)
    let root_label = docs
        .first()
        .map(|d| d.root_label().to_owned())
        .ok_or_else(|| err(format!("collection {collection:?} is empty")))?;
    let coll_def = CollectionDef::new(
        collection,
        std::sync::Arc::new(partix_schema::Schema::new(
            collection,
            infer_schema(&docs, &root_label),
        )),
        PathExpr::parse(&format!("/{root_label}")).map_err(|e| err(e.to_string()))?,
        RepoKind::MultipleDocuments,
    );
    let design = partix_frag::horizontal_by_values(coll_def, &path, &docs, n)
        .map_err(|e| err(e.to_string()))?;
    let fragments = Fragmenter::new(design.clone()).fragment_all(&docs);
    let report = partix_frag::check_correctness(&design, &docs, &fragments);
    let mut out = String::new();
    for frag in &design.fragments {
        let _ = writeln!(out, "{frag}");
    }
    for (name, frag_docs) in &fragments {
        let stored = format!("{collection}.{name}");
        db.drop_collection(&stored);
        db.store_all(&stored, frag_docs.iter().cloned());
        let _ = writeln!(out, "stored {} document(s) as {stored:?}", frag_docs.len());
    }
    if report.is_correct() {
        let _ = writeln!(out, "correctness: complete, disjoint, reconstructible ✓");
    } else {
        for v in &report.violations {
            let _ = writeln!(out, "correctness violation: {v}");
        }
    }
    db.save_to(dir)
        .map_err(|e| err(format!("cannot save {}: {e}", dir.display())))?;
    Ok(out.trim_end().to_owned())
}

/// `partix stats`: run a query through the PartiX coordinator (single
/// node, passthrough dispatch) with tracing on, then render the result,
/// the per-stage breakdown, and a snapshot of the process-wide metrics
/// registry. With `trace_out`, additionally export the query's spans as
/// a chrome://tracing / Perfetto JSON file.
pub fn stats(dir: &Path, text: &str, trace_out: Option<&Path>) -> Result<String, CliError> {
    use partix_engine::{NetworkModel, PartiX};

    let db = open_or_new(dir)?;
    let px = PartiX::new(1, NetworkModel::instantaneous());
    px.set_tracing_enabled(true);
    // the database serves node 0 directly: with no registered
    // distribution, every query takes the coordinator's passthrough
    // path, which is still parsed, dispatched, and traced
    px.cluster()
        .node(0)
        .ok_or_else(|| err("stats: coordinator has no node 0"))?
        .set_driver(std::sync::Arc::new(db));
    let result = px.execute(text).map_err(|e| err(e.to_string()))?;
    // surface the per-node placement gauges (fragment count, resident
    // bytes) in the snapshot below
    px.refresh_node_gauges();

    let mut out = partix_query::func::serialize_sequence(&result.items);
    if out.is_empty() {
        out.push_str("(empty sequence)");
    }
    let _ = write!(out, "\n\n-- query report --\n{}", result.report);
    let _ = write!(
        out,
        "\n-- metrics registry --\n{}",
        partix_engine::metrics::global().snapshot()
    );
    if let Some(path) = trace_out {
        let json = partix_engine::trace::chrome_trace(&result.report.spans);
        std::fs::write(path, json)
            .map_err(|e| err(format!("cannot write {}: {e}", path.display())))?;
        let _ = write!(
            out,
            "\nwrote {} span(s) to {} (load in chrome://tracing or Perfetto)",
            result.report.spans.len(),
            path.display()
        );
    }
    Ok(out.trim_end().to_owned())
}

/// `partix chaos`: a self-contained fault-tolerance demo. Builds a
/// 3-node replicated horizontal repository from generated items, wraps
/// the nodes in a seeded [`partix_engine::FaultPlan`], runs a few
/// queries through the retrying/failover dispatcher and checks every
/// distributed answer against a centralized oracle. The same seed
/// always produces the same fault schedule and therefore the same
/// retry/failover story.
pub fn chaos(seed: u64) -> Result<String, CliError> {
    use partix_engine::{
        Distribution, ExecOptions, FaultPlan, NetworkModel, PartiX, Placement, RetryPolicy,
    };
    use partix_frag::{FragmentDef, FragmentationSchema};
    use partix_path::Predicate;
    use std::time::Duration;

    let docs = partix_gen::gen_items(90, partix_gen::ItemProfile::Small, seed);
    // centralized oracle: the whole collection on one healthy database
    let oracle = Database::new();
    oracle.store_all("items", docs.iter().cloned());

    let px = PartiX::new(3, NetworkModel::default());
    let citems = CollectionDef::new(
        "items",
        std::sync::Arc::new(partix_schema::builtin::virtual_store()),
        PathExpr::parse("/Store/Items/Item").map_err(|e| err(e.to_string()))?,
        RepoKind::MultipleDocuments,
    );
    let design = FragmentationSchema::new(
        citems,
        vec![
            FragmentDef::horizontal(
                "f_cd",
                Predicate::parse(r#"/Item/Section = "CD""#).map_err(|e| err(e.to_string()))?,
            ),
            FragmentDef::horizontal(
                "f_rest",
                Predicate::parse(r#"not(/Item/Section = "CD")"#)
                    .map_err(|e| err(e.to_string()))?,
            ),
        ],
    )
    .map_err(|e| err(e.to_string()))?;
    // two replicas per fragment: any single node crash stays answerable
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_cd".into(), node: 0 },
            Placement { fragment: "f_cd".into(), node: 2 },
            Placement { fragment: "f_rest".into(), node: 1 },
            Placement { fragment: "f_rest".into(), node: 2 },
        ],
    })
    .map_err(|e| err(e.to_string()))?;
    px.publish("items", &docs).map_err(|e| err(e.to_string()))?;
    px.set_retry_policy(RetryPolicy {
        timeout: Some(Duration::from_millis(60)),
        ..RetryPolicy::default()
    });

    let plan = FaultPlan::from_seed(seed, 3, 0.7);
    let injectors = plan.install(&px);
    let mut out = String::new();
    let _ = writeln!(out, "fault schedule: {}", plan.describe());

    let queries = [
        r#"count(collection("items")/Item)"#,
        r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#,
        r#"count(for $i in collection("items")/Item where contains($i/Characteristics/Description, "good") return $i)"#,
    ];
    for query in queries {
        let expected = oracle.execute(query).map_err(|e| err(e.to_string()))?.serialize();
        match px.execute_with(query, ExecOptions::default()) {
            Ok(result) => {
                let got = partix_query::func::serialize_sequence(&result.items);
                let verdict = if got == expected { "matches oracle" } else { "MISMATCH" };
                let _ = writeln!(
                    out,
                    "{query}\n  => {} ({verdict}; {} retr{}, {} failover(s), {} timeout(s))",
                    got.replace('\n', " "),
                    result.report.retries,
                    if result.report.retries == 1 { "y" } else { "ies" },
                    result.report.failovers,
                    result.report.timeouts,
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{query}\n  => error: {e}");
            }
        }
    }
    for (node, injector) in injectors.iter().enumerate() {
        if let Some(injector) = injector {
            let stats = injector.stats();
            let _ = writeln!(
                out,
                "node {node}: {} call(s), {} injected error(s), {} injected outage(s), {} delayed",
                stats.calls, stats.injected_errors, stats.injected_outages, stats.delayed_calls,
            );
        }
    }
    Ok(out.trim_end().to_owned())
}

/// Build the seeded demo repository shared by `partix advise` and
/// `partix rebalance`: 3 nodes, a 3-fragment horizontal design packed
/// entirely onto node 0 (the pathology the advisor exists to fix),
/// generated items, and a workload profile recorded from a fixed query
/// mix. Everything that feeds the advisor — document contents, access
/// counts, result bytes — is deterministic under `seed`.
fn skewed_scenario(
    seed: u64,
) -> Result<(partix_engine::PartiX, partix_advisor::WorkloadProfile), CliError> {
    use partix_engine::{Distribution, NetworkModel, PartiX, Placement};
    use partix_frag::{FragmentDef, FragmentationSchema};
    use partix_path::Predicate;

    let docs = partix_gen::gen_items(120, partix_gen::ItemProfile::Small, seed);
    let px = PartiX::new(3, NetworkModel::default());
    let citems = CollectionDef::new(
        "items",
        std::sync::Arc::new(partix_schema::builtin::virtual_store()),
        PathExpr::parse("/Store/Items/Item").map_err(|e| err(e.to_string()))?,
        RepoKind::MultipleDocuments,
    );
    let parse_pred = |p: &str| Predicate::parse(p).map_err(|e| err(e.to_string()));
    let design = FragmentationSchema::new(
        citems,
        vec![
            FragmentDef::horizontal("f_cd", parse_pred(r#"/Item/Section = "CD""#)?),
            FragmentDef::horizontal("f_dvd", parse_pred(r#"/Item/Section = "DVD""#)?),
            FragmentDef::horizontal(
                "f_rest",
                parse_pred(r#"not(/Item/Section = "CD" or /Item/Section = "DVD")"#)?,
            ),
        ],
    )
    .map_err(|e| err(e.to_string()))?;
    px.register_distribution(Distribution {
        design,
        placements: vec![
            Placement { fragment: "f_cd".into(), node: 0 },
            Placement { fragment: "f_dvd".into(), node: 0 },
            Placement { fragment: "f_rest".into(), node: 0 },
        ],
    })
    .map_err(|e| err(e.to_string()))?;
    px.publish("items", &docs).map_err(|e| err(e.to_string()))?;

    // a fixed workload: broad scans plus a CD-heavy hot spot
    let profiler = partix_advisor::WorkloadProfiler::new();
    let workload: [(&str, usize); 3] = [
        (r#"count(collection("items")/Item)"#, 8),
        (r#"for $i in collection("items")/Item where $i/Section = "CD" return $i/Code"#, 12),
        (
            r#"count(for $i in collection("items")/Item
                where contains($i/Characteristics/Description, "good") return $i)"#,
            4,
        ),
    ];
    for (query, repeats) in workload {
        for _ in 0..repeats {
            let result = px.execute(query).map_err(|e| err(e.to_string()))?;
            profiler.record(&result.report);
        }
    }
    profiler.observe_placement(&px, "items");
    Ok((px, profiler.snapshot()))
}

fn render_placements(out: &mut String, placements: &[partix_engine::Placement]) {
    let mut by_fragment: std::collections::BTreeMap<&str, Vec<usize>> =
        std::collections::BTreeMap::new();
    for p in placements {
        by_fragment.entry(p.fragment.as_str()).or_default().push(p.node);
    }
    for (fragment, nodes) in by_fragment {
        let rendered: Vec<String> =
            nodes.iter().map(|n| format!("node{n}")).collect();
        let _ = writeln!(out, "  {fragment} -> {}", rendered.join(", "));
    }
}

/// `partix advise`: the workload-driven fragmentation advisor on a
/// seeded demo scenario. Profiles a fixed query mix over a skewed
/// placement (every fragment on node 0 of 3), then searches placements
/// (greedy seed + seeded local search, replica add/drop included) for
/// the cheapest way to serve that workload. All output is deterministic
/// under the seed, so repeated runs can be diffed.
pub fn advise(seed: u64) -> Result<String, CliError> {
    let (px, profile) = skewed_scenario(seed)?;
    let mut config = partix_advisor::AdvisorConfig::new(px.cluster().len());
    config.seed = seed;
    config.split_path = Some(PathExpr::parse("/Item/Section").map_err(|e| err(e.to_string()))?);
    config.candidate_counts = vec![2, 3];
    let advice = partix_advisor::advise_live(&px, "items", &profile, &config)
        .map_err(|e| err(e.to_string()))?
        .ok_or_else(|| err("advise: collection \"items\" has no distribution"))?;

    let mut out = String::new();
    let _ = writeln!(out, "workload profile (seed={seed:#x}): {} queries", profile.queries);
    for f in &profile.fragments {
        let _ = writeln!(
            out,
            "  {}: {} access(es), {} B stored, {} B shipped",
            f.fragment, f.accesses, f.size_bytes, f.shipped_bytes
        );
    }
    let _ = writeln!(out, "candidates considered: {}", advice.candidates_considered);
    let _ = writeln!(
        out,
        "current cost {:.0} (bottleneck {:.0} + ship {:.0} + imbalance {:.0})",
        advice.current.total_cost,
        advice.current.max_node_cost,
        advice.current.ship_cost,
        advice.current.imbalance_cost,
    );
    let _ = writeln!(
        out,
        "advised cost {:.0} — predicted gain {:.1}%{}",
        advice.predicted.total_cost,
        advice.predicted_gain() * 100.0,
        if advice.design_changed { " (design re-split)" } else { "" },
    );
    let _ = writeln!(out, "recommended placement:");
    render_placements(&mut out, &advice.placements);
    Ok(out.trim_end().to_owned())
}

/// `partix rebalance`: run the advisor on the seeded demo scenario and
/// then *apply* its recommendation live — dual-placement copy, atomic
/// catalog swap, old-replica retirement — while checking answers
/// against the pre-migration result.
pub fn rebalance(seed: u64) -> Result<String, CliError> {
    let (px, profile) = skewed_scenario(seed)?;
    let count_q = r#"count(collection("items")/Item)"#;
    let before = px
        .execute(count_q)
        .map_err(|e| err(e.to_string()))?
        .items
        .first()
        .map(partix_query::Item::serialize)
        .unwrap_or_default();

    let mut config = partix_advisor::AdvisorConfig::new(px.cluster().len());
    config.seed = seed;
    let advice = partix_advisor::advise_live(&px, "items", &profile, &config)
        .map_err(|e| err(e.to_string()))?
        .ok_or_else(|| err("rebalance: collection \"items\" has no distribution"))?;
    let report = partix_advisor::rebalance(
        &px,
        "items",
        &advice.placements,
        &partix_advisor::RebalanceOptions::default(),
    )
    .map_err(|e| err(e.to_string()))?;

    let after = px
        .execute(count_q)
        .map_err(|e| err(e.to_string()))?
        .items
        .first()
        .map(partix_query::Item::serialize)
        .unwrap_or_default();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "rebalance (seed={seed:#x}): {} fragment move(s), {} document(s), {} B migrated",
        report.moves.len(),
        report.migrated_docs,
        report.migrated_bytes,
    );
    for m in &report.moves {
        let from: Vec<String> = m.from.iter().map(|n| format!("node{n}")).collect();
        let to: Vec<String> = m.to.iter().map(|n| format!("node{n}")).collect();
        let _ = writeln!(
            out,
            "  {}: [{}] -> [{}] ({} doc(s), {} B)",
            m.fragment,
            from.join(", "),
            to.join(", "),
            m.docs,
            m.bytes,
        );
    }
    let _ = writeln!(
        out,
        "verification: {}",
        if report.verified {
            "placement valid, completeness/disjointness re-checked ✓"
        } else {
            "SKIPPED"
        },
    );
    let _ = writeln!(
        out,
        "query answers: before={before} after={after} ({})",
        if before == after { "consistent across migration" } else { "MISMATCH" },
    );
    let _ = writeln!(out, "final placement:");
    let final_placements = px
        .catalog()
        .distribution("items")
        .map(|d| d.placements.clone())
        .unwrap_or_default();
    render_placements(&mut out, &final_placements);
    Ok(out.trim_end().to_owned())
}

/// Parse repeatable `--tenant name[:class[:max_concurrent[:max_queued]]]`
/// specs into a registry, or `None` when no tenants were given.
fn tenant_registry(
    tenants: &[String],
) -> Result<Option<std::sync::Arc<partix_engine::TenantRegistry>>, CliError> {
    if tenants.is_empty() {
        return Ok(None);
    }
    let registry = partix_engine::TenantRegistry::new();
    for spec in tenants {
        let parsed = partix_engine::TenantSpec::parse(spec)
            .map_err(|e| err(format!("--tenant {spec}: {e}")))?;
        registry
            .register(parsed)
            .map_err(|e| err(format!("--tenant {spec}: {e}")))?;
    }
    Ok(Some(std::sync::Arc::new(registry)))
}

/// `partix serve`: expose a database directory (or a fresh in-memory
/// database) as a PartiX network node. Returns the running server and
/// the address it actually bound — port 0 picks an ephemeral one — so
/// the binary can print the address before parking, and tests can dial
/// it directly. `tenants` specs (`name[:class[:max_concurrent
/// [:max_queued]]]`) gate `ExecuteAs` frames through admission control;
/// with none given, only anonymous `Execute` frames are served
/// tenant-less, and any `ExecuteAs` answers a typed unknown-tenant
/// error.
pub fn serve(
    node: usize,
    addr: &str,
    data: Option<&Path>,
    morsel_workers: Option<usize>,
    tenants: &[String],
) -> Result<(partix_net::NodeServer, std::net::SocketAddr), CliError> {
    let db = match data {
        Some(dir) => open_or_new(dir)?,
        None => Database::new(),
    };
    if let Some(workers) = morsel_workers {
        // explicit flag beats the PARTIX_MORSEL_WORKERS env default
        let config = db.morsel_config();
        db.set_morsel_config(partix_storage::MorselConfig {
            max_workers: workers.min(partix_storage::MAX_MORSEL_WORKERS),
            ..config
        });
    }
    let config = partix_net::ServerConfig {
        tenancy: tenant_registry(tenants)?.map(|registry| {
            std::sync::Arc::new(partix_net::ServerTenancy {
                registry,
                controller: partix_engine::AdmissionController::default(),
            })
        }),
    };
    let server = partix_net::NodeServer::bind_driver(addr, std::sync::Arc::new(db), config)
        .map_err(|e| err(format!("serve: cannot bind {addr}: {e}")))?;
    let local = server.local_addr();
    let _ = node; // node id is presentation-only: the wire protocol is symmetric
    Ok((server, local))
}

/// `partix serve --coordinator`: expose a database directory as a
/// streaming coordinator. The engine runs the database as its node 0, an
/// epoch-versioned [`partix_engine::MetaService`] is attached (so more
/// coordinators could share the catalog), and sub-query results stream
/// to clients chunk-by-chunk as they complete.
pub fn serve_coordinator(
    addr: &str,
    data: Option<&Path>,
    tenants: &[String],
) -> Result<(partix_net::StreamServer, std::net::SocketAddr), CliError> {
    use partix_engine::{MetaService, NetworkModel, PartiX, Tenancy};
    let db = match data {
        Some(dir) => open_or_new(dir)?,
        None => Database::new(),
    };
    let px = PartiX::new(1, NetworkModel::instantaneous());
    px.cluster()
        .node(0)
        .ok_or_else(|| err("serve: coordinator has no node 0"))?
        .set_driver(std::sync::Arc::new(db));
    px.attach_meta(MetaService::with_catalog(px.catalog_snapshot()));
    if let Some(registry) = tenant_registry(tenants)? {
        px.attach_tenancy(Tenancy::new(registry));
    }
    let server = partix_net::serve_coordinator(
        addr,
        std::sync::Arc::new(px),
        partix_net::StreamServerConfig::default(),
    )
    .map_err(|e| err(format!("serve: cannot bind {addr}: {e}")))?;
    let local = server.addr();
    Ok((server, local))
}

/// `partix exec`: run one query against a node server over the wire,
/// optionally as a named tenant. With `--tenant` the request rides an
/// `ExecuteAs` call through the server's admission
/// control, and a rejection comes back as a *typed* error carrying the
/// server's verdict code and retry hint — rendered here, never a hang
/// or a silent drop.
pub fn exec(addr: &str, text: &str, tenant: Option<&str>) -> Result<String, CliError> {
    let sock: std::net::SocketAddr =
        addr.parse().map_err(|_| err(format!("exec: bad address {addr} (want HOST:PORT)")))?;
    let driver = partix_net::RemoteDriver::connect(sock)
        .map_err(|e| err(format!("exec: {addr}: {e}")))?;
    let query =
        partix_query::parse_query(text).map_err(|e| err(format!("exec: {e}")))?;
    let output = match tenant {
        Some(tenant) => driver.execute_as(tenant, &query).map_err(|e| {
            err(format!("exec: tenant {tenant:?}: {e} [{:?}]", e.code))
        })?,
        None => {
            use partix_engine::PartixDriver as _;
            driver.execute(&query).map_err(|e| err(format!("exec: {e}")))?
        }
    };
    let Some(output) = output else {
        return Ok("(collection not on this node)".to_owned());
    };
    let mut rendered = output.serialize();
    if rendered.is_empty() {
        rendered.push_str("(empty sequence)");
    }
    let _ = write!(
        rendered,
        "\n-- {} item(s) in {:.6}s{}",
        output.items.len(),
        output.stats.elapsed,
        match tenant {
            Some(tenant) => format!(", as tenant {tenant:?}"),
            None => String::new(),
        },
    );
    Ok(rendered)
}

/// `partix stream`: run one query against a pool of coordinators
/// (comma-separated addresses), streaming the answer and failing over if
/// a coordinator dies mid-call. With `tenant`, the query runs under that
/// tenant's admission quotas and priority class on the coordinator.
pub fn stream_query(addrs: &str, text: &str, tenant: Option<&str>) -> Result<String, CliError> {
    use partix_net::{CoordinatorPool, StreamClientConfig, StreamOpts};
    let list: Vec<String> = addrs
        .split(',')
        .map(|a| a.trim().to_owned())
        .filter(|a| !a.is_empty())
        .collect();
    if list.is_empty() {
        return Err(err("stream: no coordinator addresses"));
    }
    let pool = CoordinatorPool::new(list, StreamClientConfig::default());
    let opts = StreamOpts { tenant: tenant.map(str::to_owned), ..StreamOpts::default() };
    let result = pool
        .query(text, opts)
        .map_err(|e| err(format!("stream: {e}")))?;
    let mut out = partix_query::func::serialize_sequence(&result.items);
    if out.is_empty() {
        out.push_str("(empty sequence)");
    }
    let _ = write!(
        out,
        "\n\n-- stream --\n{} item(s) in {} chunk(s); {} site(s), {} fragment(s) pruned, \
         catalog epoch {}{}",
        result.items.len(),
        result.chunks,
        result.stats.sites,
        result.stats.fragments_pruned,
        result.stats.catalog_epoch,
        if result.stats.partial { " (PARTIAL)" } else { "" },
    );
    Ok(out.trim_end().to_owned())
}

/// `partix ping`: health-check a running node server over the wire.
/// [`partix_net::RemoteDriver::connect`] dials and has a `Ping` call
/// answered, so success means the server spoke the protocol.
pub fn ping(addr: &str) -> Result<String, CliError> {
    let sock: std::net::SocketAddr =
        addr.parse().map_err(|_| err(format!("ping: bad address {addr} (want HOST:PORT)")))?;
    partix_net::RemoteDriver::connect(sock).map_err(|e| err(format!("ping: {addr}: {e}")))?;
    Ok(format!("pong from {addr}"))
}

/// Infer a permissive one-level schema from sample documents: enough for
/// the auto-designer's single-valuedness check on direct children.
fn infer_schema(docs: &[Document], root_label: &str) -> partix_schema::ElementDecl {
    use partix_schema::{ElementDecl, Occurs};
    use std::collections::HashMap;
    // child label → (max occurrences in any doc, min occurrences)
    let mut stats: HashMap<String, (u32, u32)> = HashMap::new();
    for doc in docs {
        let mut counts: HashMap<&str, u32> = HashMap::new();
        for child in doc.root().child_elements() {
            *counts.entry(child.label()).or_insert(0) += 1;
        }
        for (label, &count) in &counts {
            let entry = stats.entry((*label).to_owned()).or_insert((0, u32::MAX));
            entry.0 = entry.0.max(count);
            entry.1 = entry.1.min(count);
        }
        // labels absent from this document have min 0
        for (label, entry) in stats.iter_mut() {
            if !counts.contains_key(label.as_str()) {
                entry.1 = 0;
            }
        }
    }
    let children = stats
        .into_iter()
        .map(|(label, (max, min))| {
            let occurs = Occurs {
                min: min.min(1),
                max: if max <= 1 { Some(1) } else { None },
            };
            // grandchildren are not modelled: a permissive leaf that also
            // admits text keeps validation out of the way
            (ElementDecl::leaf(&label), occurs)
        })
        .collect();
    ElementDecl { name: root_label.to_owned(), text: false, attributes: Vec::new(), children }
}

/// Usage text.
pub const USAGE: &str = "partix — fragmented XML repositories (PartiX)

USAGE
  partix load <db-dir> <collection> <file.xml>...   load XML documents
  partix query <db-dir> '<xquery>'                  run an XQuery
  partix put <db-dir> <collection> <file.xml>       upsert one document
                                                    through the write-ahead
                                                    log (crash-safe; the
                                                    file stem is the
                                                    document name)
  partix delete <db-dir> <collection> <name>        remove one document
                                                    through the write-ahead
                                                    log
  partix collections <db-dir>                       list collections
  partix drop <db-dir> <collection>                 remove a collection
  partix fragment <db-dir> <collection> <path> <n>  derive & apply a
                                                    balanced horizontal
                                                    design by <path> values
  partix stats <db-dir> '<xquery>' [--trace FILE]   run the query through the
                                                    coordinator with tracing
                                                    on: stage breakdown +
                                                    metrics snapshot; --trace
                                                    exports chrome://tracing
                                                    JSON
  partix chaos [seed]                               fault-tolerance demo:
                                                    seeded fault injection vs
                                                    retry/failover dispatch
  partix advise [seed]                              workload-driven advisor
                                                    demo: profile a skewed
                                                    placement, search designs/
                                                    placements, print the
                                                    recommendation (output is
                                                    deterministic per seed)
  partix rebalance [seed]                           apply the advisor's
                                                    recommendation live:
                                                    copy → atomic swap →
                                                    retire, with answers
                                                    checked across the
                                                    migration
  partix serve --node <N> --addr <HOST:PORT>        run a node server
                [--data <db-dir>]                   speaking the partix-net
                [--morsel-workers <N>]              wire protocol (port 0
                [--tenant SPEC]...                  binds an ephemeral port;
                                                    the chosen address is
                                                    printed); --morsel-workers
                                                    caps intra-fragment
                                                    parallel scan threads
                                                    (default: the
                                                    PARTIX_MORSEL_WORKERS env
                                                    var, else the core count);
                                                    each --tenant SPEC is
                                                    name[:class[:max_concurrent
                                                    [:max_queued]]] (class:
                                                    interactive/standard/
                                                    batch) — tenant queries
                                                    pass admission control,
                                                    over-quota ones get a
                                                    typed rejection with a
                                                    retry-after hint
  partix serve --coordinator --addr <HOST:PORT>     run a streaming
                [--data <db-dir>] [--tenant SPEC]...  coordinator: answers
                                                    stream chunk-by-chunk
                                                    as sub-queries finish;
                                                    --tenant as above
  partix exec <HOST:PORT> '<xquery>'                run a query on a node
                [--tenant NAME]                     server; --tenant
                                                    runs it under that
                                                    tenant's quotas and
                                                    priority class
  partix stream <HOST:PORT[,HOST:PORT...]> '<xq>'   run a query against a
                [--tenant NAME]                     coordinator pool
                                                    (round-robin + failover)
  partix ping <HOST:PORT>                           health-check a node
                                                    server over the wire

EXAMPLE
  partix load ./db items item1.xml item2.xml
  partix put ./db items item3.xml
  partix delete ./db items item3
  partix query ./db 'count(collection(\"items\")/Item)'
  partix fragment ./db items /Item/Section 2
  partix stats ./db 'count(collection(\"items\")/Item)' --trace trace.json
  partix chaos 0xBEEF
  partix advise 7
  partix rebalance 7
  partix serve --node 0 --addr 127.0.0.1:7401 --data ./db
  partix serve --node 0 --addr 127.0.0.1:7401 --data ./db \\
               --tenant frontend:interactive:8 --tenant batchy:batch:2:4
  partix exec 127.0.0.1:7401 'count(collection(\"items\")/Item)' --tenant frontend
  partix serve --coordinator --addr 127.0.0.1:7500 --data ./db
  partix stream 127.0.0.1:7500 'count(collection(\"items\")/Item)'
  partix ping 127.0.0.1:7401";

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("partix-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_items(dir: &Path, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let path = dir.join(format!("item{i}.xml"));
                let section = ["CD", "DVD", "BOOK"][i % 3];
                std::fs::write(
                    &path,
                    format!("<Item><Code>{i}</Code><Section>{section}</Section></Item>"),
                )
                .unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect()
    }

    #[test]
    fn load_query_roundtrip() {
        let dir = tmp("loadquery");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 6);
        let msg = load(&db_dir, "items", &files).unwrap();
        assert!(msg.contains("loaded 6 document(s)"));
        let out = query(
            &db_dir,
            r#"count(for $i in collection("items")/Item where $i/Section = "CD" return $i)"#,
        )
        .unwrap();
        assert!(out.starts_with('2'), "{out}");
        assert!(out.contains("1 item(s)"));
        let listing = collections(&db_dir).unwrap();
        assert!(listing.contains("items: 6 document(s)"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_is_incremental_across_invocations() {
        let dir = tmp("increment");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 2);
        load(&db_dir, "items", &files[..1]).unwrap();
        load(&db_dir, "items", &files[1..]).unwrap();
        let out = query(&db_dir, r#"count(collection("items")/Item)"#).unwrap();
        assert!(out.starts_with('2'), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_upserts_through_the_wal_and_delete_removes() {
        let dir = tmp("putdelete");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 3);
        load(&db_dir, "items", &files).unwrap();
        let extra = dir.join("item9.xml");
        std::fs::write(&extra, "<Item><Code>9</Code><Section>CD</Section></Item>").unwrap();
        let msg = put(&db_dir, "items", &extra.to_string_lossy()).unwrap();
        assert!(msg.contains("stored \"item9\""), "{msg}");
        let out = query(&db_dir, r#"count(collection("items")/Item)"#).unwrap();
        assert!(out.starts_with('4'), "{out}");
        // the same file again is an upsert keyed by name: replaced, not added
        std::fs::write(&extra, "<Item><Code>10</Code><Section>DVD</Section></Item>").unwrap();
        let msg = put(&db_dir, "items", &extra.to_string_lossy()).unwrap();
        assert!(msg.contains("replaced \"item9\""), "{msg}");
        let out = query(&db_dir, r#"count(collection("items")/Item)"#).unwrap();
        assert!(out.starts_with('4'), "{out}");
        let msg = delete(&db_dir, "items", "item9").unwrap();
        assert!(msg.contains("deleted \"item9\""), "{msg}");
        let out = query(&db_dir, r#"count(collection("items")/Item)"#).unwrap();
        assert!(out.starts_with('3'), "{out}");
        let e = delete(&db_dir, "items", "item9").unwrap_err();
        assert!(e.to_string().contains("no document"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_sees_durable_writes_that_crashed_before_checkpoint() {
        let dir = tmp("walvisible");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 3);
        load(&db_dir, "items", &files).unwrap();
        {
            let durable = DurableDb::open(&db_dir).unwrap();
            durable.set_kill(Some(partix_storage::WalStage::Apply));
            let mut doc =
                partix_xml::parse("<Item><Code>99</Code><Section>CD</Section></Item>").unwrap();
            doc.name = Some("crashed".into());
            let res = durable.apply(&WriteOp::Put { collection: "items".into(), doc });
            assert!(res.is_err(), "the injected crash must surface as an error");
            // no checkpoint ran: the write lives only in the WAL
        }
        let out = query(&db_dir, r#"count(collection("items")/Item)"#).unwrap();
        assert!(out.starts_with('4'), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fragment_command_partitions_and_verifies() {
        let dir = tmp("fragment");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 9);
        load(&db_dir, "items", &files).unwrap();
        let out = fragment(&db_dir, "items", "/Item/Section", 2).unwrap();
        assert!(out.contains("correctness: complete, disjoint, reconstructible"), "{out}");
        // fragments were persisted as collections
        let listing = collections(&db_dir).unwrap();
        assert!(listing.contains("items.f0:"), "{listing}");
        assert!(listing.contains("items.f1:"), "{listing}");
        // fragment contents are queryable
        let c0 = query(&db_dir, r#"count(collection("items.f0")/Item)"#).unwrap();
        let c1 = query(&db_dir, r#"count(collection("items.f1")/Item)"#).unwrap();
        let n0: usize = c0.lines().next().unwrap().parse().unwrap();
        let n1: usize = c1.lines().next().unwrap().parse().unwrap();
        assert_eq!(n0 + n1, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_removes_collection_and_persists() {
        let dir = tmp("drop");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 3);
        load(&db_dir, "items", &files).unwrap();
        load(&db_dir, "other", &files[..1]).unwrap();
        let msg = drop(&db_dir, "items").unwrap();
        assert!(msg.contains("3 document(s)"), "{msg}");
        // the drop survives a reopen, and other collections are untouched
        let listing = collections(&db_dir).unwrap();
        assert!(!listing.contains("items:"), "{listing}");
        assert!(listing.contains("other: 1 document(s)"), "{listing}");
        let e = drop(&db_dir, "items").unwrap_err();
        assert!(e.0.contains("no collection"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_are_user_readable() {
        let dir = tmp("errors");
        let db_dir = dir.join("db");
        assert!(load(&db_dir, "items", &[]).is_err());
        let bad = dir.join("bad.xml");
        std::fs::write(&bad, "<a><b></a>").unwrap();
        let e = load(&db_dir, "items", &[bad.to_string_lossy().into_owned()]).unwrap_err();
        assert!(e.0.contains("bad.xml"));
        let e = query(&db_dir, "for $").unwrap_err();
        assert!(e.0.contains("parse error"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_reports_stages_metrics_and_trace_file() {
        let dir = tmp("stats");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 6);
        load(&db_dir, "items", &files).unwrap();
        let trace_path = dir.join("trace.json");
        let out = stats(
            &db_dir,
            r#"count(collection("items")/Item)"#,
            Some(&trace_path),
        )
        .unwrap();
        assert!(out.starts_with('6'), "{out}");
        // the stage table and a non-empty registry snapshot are rendered
        assert!(out.contains("stage        time(ms)"), "{out}");
        assert!(out.contains("partix.queries"), "{out}");
        assert!(!out.contains("(no metrics recorded)"), "{out}");
        // the exported trace is chrome://tracing complete-event JSON
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.starts_with('['), "{trace}");
        assert!(trace.contains("\"ph\":\"X\""), "{trace}");
        assert!(trace.contains("\"name\":\"parse\""), "{trace}");
        // without --trace nothing is written and the command still works
        let quiet = stats(&db_dir, r#"count(collection("items")/Item)"#, None).unwrap();
        assert!(quiet.contains("metrics registry"), "{quiet}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_demo_is_deterministic_and_oracle_checked() {
        let a = chaos(0xBEEF).unwrap();
        let b = chaos(0xBEEF).unwrap();
        // same seed → same schedule line (the injected-fault counters can
        // differ run to run: timing decides which attempt a fault hits)
        assert_eq!(a.lines().next(), b.lines().next());
        assert!(a.starts_with("fault schedule: seed=0xbeef"), "{a}");
        // every answered query must agree with the centralized oracle
        assert!(!a.contains("MISMATCH"), "{a}");
    }

    #[test]
    fn advise_demo_is_deterministic_and_finds_a_gain() {
        let a = advise(7).unwrap();
        let b = advise(7).unwrap();
        assert_eq!(a, b, "advise output must be reproducible under a seed");
        assert!(a.contains("recommended placement:"), "{a}");
        // the skewed scenario always leaves room to improve
        assert!(a.contains("predicted gain"), "{a}");
        assert!(!a.contains("predicted gain 0.0%"), "{a}");
        // placements mention more than one node
        assert!(a.contains("node1") || a.contains("node2"), "{a}");
    }

    #[test]
    fn rebalance_demo_migrates_and_stays_consistent() {
        let out = rebalance(11).unwrap();
        assert!(out.contains("fragment move(s)"), "{out}");
        assert!(out.contains("completeness/disjointness re-checked ✓"), "{out}");
        assert!(out.contains("consistent across migration"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn stats_snapshot_includes_node_gauges() {
        let dir = tmp("gauges");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 4);
        load(&db_dir, "items", &files).unwrap();
        let out = stats(&db_dir, r#"count(collection("items")/Item)"#, None).unwrap();
        assert!(out.contains("node.0.fragments"), "{out}");
        assert!(out.contains("node.0.resident_bytes"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_with_tenants_admits_and_rejects_typed() {
        let dir = tmp("tenantserve");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 6);
        load(&db_dir, "items", &files).unwrap();
        // frontend: generous quota; suspended: zero concurrency, every
        // query must come back as a typed rejection
        let (server, addr) = serve(
            0,
            "127.0.0.1:0",
            Some(&db_dir),
            None,
            &["frontend:interactive:8".to_owned(), "suspended:batch:0:0".to_owned()],
        )
        .unwrap();
        let addr = addr.to_string();
        let q = r#"count(collection("items")/Item)"#;

        let ok = exec(&addr, q, Some("frontend")).unwrap();
        assert!(ok.starts_with('6'), "{ok}");
        assert!(ok.contains("as tenant \"frontend\""), "{ok}");

        // anonymous Execute frames stay ungated
        let anon = exec(&addr, q, None).unwrap();
        assert!(anon.starts_with('6'), "{anon}");

        let e = exec(&addr, q, Some("suspended")).unwrap_err().to_string();
        assert!(e.contains("retry after"), "{e}");
        assert!(e.contains("AdmissionRejected"), "{e}");

        let e = exec(&addr, q, Some("nobody")).unwrap_err().to_string();
        assert!(e.contains("unknown tenant"), "{e}");
        assert!(e.contains("UnknownTenant"), "{e}");

        std::mem::drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coordinator_with_tenants_gates_stream_queries() {
        let dir = tmp("tenantcoord");
        let db_dir = dir.join("db");
        let files = write_items(&dir, 6);
        load(&db_dir, "items", &files).unwrap();
        let (server, addr) = serve_coordinator(
            "127.0.0.1:0",
            Some(&db_dir),
            &["frontend:interactive:8".to_owned(), "suspended:batch:0:0".to_owned()],
        )
        .unwrap();
        let addr = addr.to_string();
        let q = r#"count(collection("items")/Item)"#;

        let ok = stream_query(&addr, q, Some("frontend")).unwrap();
        assert!(ok.starts_with('6'), "{ok}");
        // anonymous streaming stays available
        let anon = stream_query(&addr, q, None).unwrap();
        assert!(anon.starts_with('6'), "{anon}");

        let e = stream_query(&addr, q, Some("suspended")).unwrap_err().to_string();
        assert!(e.contains("quota"), "{e}");
        let e = stream_query(&addr, q, Some("nobody")).unwrap_err().to_string();
        assert!(e.contains("unknown tenant"), "{e}");

        std::mem::drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_tenant_specs_are_rejected_at_startup() {
        let e = serve(0, "127.0.0.1:0", None, None, &["bad name!".to_owned()])
            .err()
            .expect("invalid spec must fail")
            .to_string();
        assert!(e.contains("invalid tenant name"), "{e}");
        let e = serve(0, "127.0.0.1:0", None, None, &["a".to_owned(), "a".to_owned()])
            .err()
            .expect("duplicate spec must fail")
            .to_string();
        assert!(e.contains("duplicate") || e.contains("already"), "{e}");
    }

    #[test]
    fn fragment_too_few_values_reported() {
        let dir = tmp("fewvalues");
        let db_dir = dir.join("db");
        let path = dir.join("only.xml");
        std::fs::write(&path, "<Item><Code>1</Code><Section>CD</Section></Item>").unwrap();
        load(&db_dir, "items", &[path.to_string_lossy().into_owned()]).unwrap();
        let e = fragment(&db_dir, "items", "/Item/Section", 3).unwrap_err();
        assert!(e.0.contains("distinct"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
