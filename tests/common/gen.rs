//! The one generator: a case is (documents, design, query), every part
//! drawn from the `partix_schema` declarations of its collection — element
//! names, cardinalities and leaf domains — and from nothing else.
//!
//! * **Documents** walk the declaration tree: a child occurs between its
//!   bounds (an unbounded one up to two more times), and a document of a
//!   multi-document collection may lack a top-level part entirely. Leaf
//!   values come from [`pool`], which holds the hazards of the one
//!   comparison (`05`, `099`, `abc`, an absent `Code`).
//! * **Designs** are horizontal (a decision list of atoms over the unit's
//!   single-valued leaves — fragment `k` is `not(a0) and … and ak`, the
//!   last the complement of them all — or the auto-designer's value
//!   design), vertical (the spine plus cuts of single-valued paths and of
//!   positional sections, each pruned from the fragment it hangs under)
//!   or hybrid (decision-list units in FragMode1 or FragMode2 beside the
//!   store's spine). Each passes `check_correctness` on its documents.
//! * **Queries** are the supported subset over the unit's leaf paths:
//!   `where` conjuncts, `order by`, positional steps, `*` and `//` steps,
//!   nested FLWORs (whose variable is read, counted or unused),
//!   constructors, aggregates inside arithmetic and comparisons,
//!   `exists`, `distinct-values`, `string-join`, a `let`-bound scan and a
//!   self-join; over a hybrid store also a part or a unit by position and
//!   its units joined.
//!
//! A case is a function of its seed ([`Case::draw`]); [`Case::reduce`]
//! drops documents and `where` conjuncts while a failure persists.

use partix::engine::{Distribution, NetworkModel, PartiX, Placement};
use partix::frag::{check_correctness, CorrectnessReport, FragMode, FragmentDef, Fragmenter};
use partix::frag::{horizontal_by_values, FragmentationSchema};
use partix::path::{PathExpr, Predicate};
use partix::schema::{builtin, CollectionDef, ElementDecl, RepoKind};
use partix::storage::StorageMode;
use partix::xml::{parse, to_string, Document};
use partix_bench::setup::{CENTRAL, DIST};
use proptest::test_runner::TestRng;
use std::fmt;
use std::sync::Arc;

/// Which collection a case fragments, and so which kind of design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `Item` documents (multi-document `C_items`), horizontal designs.
    Horizontal,
    /// XBench `article` documents, vertical designs.
    Vertical,
    /// One `Store` document, hybrid designs over its `Item`s.
    Hybrid,
}

pub const FAMILIES: [Family; 3] = [Family::Horizontal, Family::Vertical, Family::Hybrid];

/// Nodes of every generated cluster: one fault leaves a replica of each
/// fragment placed twice.
const NODES: usize = 3;

/// Leaf values by element name. `Code` carries the hazards of the one
/// comparison; a name without a pool gets text unique in its case.
fn pool(leaf: &str) -> &'static [&'static str] {
    match leaf {
        "Code" => &["1", "5", "05", "7", "10", "099", "20", "50", "abc"],
        "Section" => &["CD", "DVD", "BOOK", "TOY"],
        "Description" | "abstract" => &["a good thing", "plain", "xml good", "good data"],
        "title" => &["T0 xml", "T1 data", "XML T2", "T1 xml"],
        "genre" => &["g0", "g1", "g2"],
        "country" => &["BR", "AR", "US"],
        "heading" => &["h0", "h1", "h2"],
        "Release" | "year" | "pub_date" => &["1990", "1991", "1992"],
        "word_count" | "Price" => &["100", "120", "95", "7"],
        _ => &[],
    }
}

/// A query whose `where` conjuncts can be dropped one by one.
#[derive(Debug, Clone)]
pub struct Query {
    pub head: String,
    pub conjuncts: Vec<String>,
    pub tail: String,
}

impl Query {
    pub fn text(&self) -> String {
        match self.conjuncts.is_empty() {
            true => format!("{} {}", self.head, self.tail),
            false => format!("{} where {} {}", self.head, self.conjuncts.join(" and "), self.tail),
        }
    }
}

/// One generated case. `docs` are the units: the `Item`s of a hybrid
/// case are wrapped into one `Store` by [`Case::documents`].
#[derive(Clone)]
pub struct Case {
    pub seed: u64,
    pub family: Family,
    pub design: FragmentationSchema,
    /// One node per fragment; [`Case::cluster`] adds the replicas.
    pub placements: Vec<Placement>,
    pub docs: Vec<Document>,
    /// The rest of a hybrid case's `Store`: its sections and employees.
    pub shell: Option<(String, String)>,
    pub storage: StorageMode,
    pub query: Query,
}

impl fmt::Debug for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed {:#x}, {:?} family, {:?} storage", self.seed, self.family, self.storage)?;
        for frag in &self.design.fragments {
            let placed = self.placements.iter().filter(|p| p.fragment == frag.name);
            let nodes: Vec<usize> = placed.map(|p| p.node).collect();
            writeln!(f, "  {frag} on {nodes:?}")?;
        }
        for doc in self.documents() {
            writeln!(f, "  {}", to_string(&doc))?;
        }
        write!(f, "  query: {}", self.query.text())
    }
}

impl Case {
    /// The case `seed` determines, of `family`.
    pub fn draw(seed: u64, family: Family) -> Case {
        let rng = &mut TestRng::from_seed(seed);
        let collection = collection(family);
        let schema = Arc::clone(&collection.schema);
        let unit = match family {
            Family::Hybrid => schema.resolve(&path("/Store/Items/Item")).expect("items"),
            _ => schema.resolve(&collection.root_path).expect("a root"),
        };
        let serial = &mut 0;
        let count = if family == Family::Vertical { 2 + rng.below(7) } else { 1 + rng.below(16) };
        let docs: Vec<Document> = (0..count)
            .map(|k| {
                let lossy = family != Family::Hybrid;
                let mut doc = parse(&element(rng, unit, 0, serial, lossy)).expect("generated XML");
                doc.name = Some(format!("{}{k:02}", unit.name));
                doc
            })
            .collect();
        let shell = (family == Family::Hybrid).then(|| {
            let mut part = |name: &str| {
                element(rng, schema.root.child(name).expect("declared").0, 1, serial, false)
            };
            let (sections, employees) = (part("Sections"), part("Employees"));
            (format!("<Store>{sections}<Items>"), format!("</Items>{employees}</Store>"))
        });
        let (design, read) = loop {
            let (fragments, read) = match family {
                Family::Horizontal => horizontal(rng, unit, &docs),
                Family::Vertical => vertical(rng, unit),
                Family::Hybrid => hybrid(rng, unit),
            };
            if let Ok(design) = FragmentationSchema::new(collection.clone(), fragments) {
                break (design, read);
            }
        };
        let at = |f: &FragmentDef| Placement { fragment: f.name.clone(), node: rng.below(NODES) };
        let placements = design.fragments.iter().map(at).collect();
        let storage = if rng.bool() { StorageMode::Cold } else { StorageMode::Hot };
        let query = query(rng, family, unit, &read);
        partix::query::parse_query(&query.text()).expect("a generated query parses");
        let case = Case { seed, family, design, placements, docs, shell, storage, query };
        let report = case.correctness();
        assert!(report.is_correct(), "{case:?}\n{:?}", report.violations);
        case
    }

    /// The documents the collection holds: the units, or one store of them.
    pub fn documents(&self) -> Vec<Document> {
        let Some((open, close)) = &self.shell else { return self.docs.clone() };
        let items: String = self.docs.iter().map(to_string).collect();
        let mut store = parse(&format!("{open}{items}{close}")).expect("a store parses");
        store.name = Some("store".into());
        vec![store]
    }

    /// Completeness, disjointness and reconstruction of the design over
    /// the case's documents.
    pub fn correctness(&self) -> CorrectnessReport {
        let docs = self.documents();
        let fragments = Fragmenter::new(self.design.clone()).fragment_all(&docs);
        check_correctness(&self.design, &docs, &fragments)
    }

    /// The case's cluster, each fragment on `replicas` consecutive nodes.
    pub fn cluster(&self, replicas: usize) -> PartiX {
        let placements = self
            .placements
            .iter()
            .flat_map(|p| {
                (0..replicas)
                    .map(|r| Placement { fragment: p.fragment.clone(), node: (p.node + r) % NODES })
            })
            .collect();
        cluster(NODES, self.design.clone(), placements, &self.documents(), self.storage)
    }

    /// The smallest case left by dropping documents and conjuncts while
    /// `fails` still holds of it.
    pub fn reduce(&self, fails: impl Fn(&Case) -> bool) -> Case {
        let mut case = self.clone();
        loop {
            let before = (case.docs.len(), case.query.conjuncts.len());
            for k in (0..case.docs.len()).rev() {
                let mut smaller = case.clone();
                smaller.docs.remove(k);
                if smaller.correctness().is_correct() && fails(&smaller) {
                    case = smaller;
                }
            }
            for k in (0..case.query.conjuncts.len()).rev() {
                let mut smaller = case.clone();
                smaller.query.conjuncts.remove(k);
                if fails(&smaller) {
                    case = smaller;
                }
            }
            if (case.docs.len(), case.query.conjuncts.len()) == before {
                return case;
            }
        }
    }
}

/// A cluster of `nodes` holding `docs` under `design` at `placements`,
/// every collection stored as `storage`, and centralized on node 0.
pub fn cluster(
    nodes: usize,
    design: FragmentationSchema,
    placements: Vec<Placement>,
    docs: &[Document],
    storage: StorageMode,
) -> PartiX {
    let px = PartiX::new(nodes, NetworkModel::default());
    let create = |node: usize, name: &str| {
        let db = &px.cluster().node(node).expect("node").db;
        db.create_collection(name, storage).expect("fresh node");
    };
    placements.iter().for_each(|p| create(p.node, &p.fragment));
    create(0, CENTRAL);
    px.register_distribution(Distribution { design, placements }).expect("placement valid");
    px.publish(DIST, docs).expect("publish");
    px.publish_centralized(0, CENTRAL, docs).expect("centralized copy");
    px
}

fn path(text: &str) -> PathExpr {
    PathExpr::parse(text).expect("a path")
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len())]
}

fn collection(family: Family) -> CollectionDef {
    let (schema, root, kind) = match family {
        Family::Horizontal => {
            (builtin::virtual_store(), "/Store/Items/Item", RepoKind::MultipleDocuments)
        }
        Family::Vertical => (builtin::xbench_article(), "/article", RepoKind::MultipleDocuments),
        Family::Hybrid => (builtin::virtual_store(), "/Store", RepoKind::SingleDocument),
    };
    CollectionDef::new(DIST, Arc::new(schema), path(root), kind)
}

/// One element of `decl` as XML text. A document of a multi-document
/// collection (`lossy`) lacks each top-level part one time in six.
fn element(
    rng: &mut TestRng,
    decl: &ElementDecl,
    depth: usize,
    serial: &mut usize,
    lossy: bool,
) -> String {
    *serial += 1;
    let mut xml = format!("<{}", decl.name);
    for attr in decl.attributes.iter().filter(|a| a.required || rng.bool()) {
        xml += &format!(r#" {0}="{0}{1}""#, attr.name, serial);
    }
    xml.push('>');
    if decl.children.is_empty() {
        xml += &value(rng, &decl.name, *serial);
    }
    for (child, occurs) in &decl.children {
        let extra = occurs.max.map_or(2, |max| (max - occurs.min).min(2)) as usize;
        let mut count = occurs.min as usize + rng.below(extra + 1);
        if lossy && depth == 0 && rng.below(6) == 0 {
            count = 0;
        }
        for _ in 0..count {
            xml += &element(rng, child, depth + 1, serial, lossy);
        }
    }
    xml + &format!("</{}>", decl.name)
}

fn value(rng: &mut TestRng, leaf: &str, serial: usize) -> String {
    match pool(leaf) {
        [] => format!("{leaf}{serial}"),
        values => pick(rng, values).to_string(),
    }
}

/// The leaf paths below `decl` (relative, at most three steps), each with
/// whether it is single-valued.
fn leaves(decl: &ElementDecl) -> Vec<(String, bool)> {
    let mut out: Vec<(String, bool)> =
        decl.attributes.iter().map(|a| (format!("@{}", a.name), true)).collect();
    fn walk(
        decl: &ElementDecl,
        prefix: &str,
        single: bool,
        depth: usize,
        out: &mut Vec<(String, bool)>,
    ) {
        for (child, occurs) in &decl.children {
            let here = format!("{prefix}{}", child.name);
            let single = single && occurs.at_most_one();
            if child.children.is_empty() {
                out.push((here, single));
            } else if depth < 2 {
                walk(child, &format!("{here}/"), single, depth + 1, out);
            }
        }
    }
    walk(decl, "", true, 0, &mut out);
    out
}

/// A leaf with a value pool, and a comparison against one of its values.
fn atom(rng: &mut TestRng, target: &str, leaf: &str) -> String {
    let name = leaf.rsplit('/').next().unwrap_or(leaf);
    let serial = rng.below(4);
    let value = value(rng, name, serial);
    let op = *pick(rng, &["=", "!=", "<", "<=", ">", ">="]);
    let literal = match value.parse::<f64>() {
        Ok(number) if rng.bool() => number.to_string(),
        _ => format!("{value:?}"),
    };
    let word = value.split(' ').next_back().unwrap_or("x").to_owned();
    let atom = match rng.below(8) {
        0 => format!("contains({target}, {word:?})"),
        1 => format!("exists({target})"),
        2 => format!("number({target}) {op} {}", 1 + rng.below(60)),
        _ => format!("{target} {op} {literal}"),
    };
    if rng.below(4) == 0 {
        format!("not({atom})")
    } else {
        atom
    }
}

/// The single-valued leaves of a unit that have a value pool: what a
/// horizontal design selects on.
fn selective(unit: &ElementDecl) -> Vec<String> {
    let names = leaves(unit).into_iter().filter(|(leaf, single)| *single && !pool(leaf).is_empty());
    names.map(|(leaf, _)| leaf).collect()
}

/// What a design reads: leaves, and the atoms of its predicates.
type Reads = (Vec<String>, Vec<String>);

/// `k` fragments of a decision list over the unit's selective leaves, and
/// what it reads.
fn decision_list(rng: &mut TestRng, unit: &ElementDecl) -> (Vec<Predicate>, Reads) {
    let leaves = selective(unit);
    let mut read = Vec::new();
    let mut atoms: Vec<String> = Vec::new();
    // a leaf is drawn as often as its domain has values
    let weighted: Vec<&String> =
        leaves.iter().flat_map(|l| std::iter::repeat_n(l, pool(l).len())).collect();
    for _ in 0..1 + rng.below(3) {
        let leaf = (*pick(rng, &weighted)).clone();
        atoms.push(atom(rng, &format!("/{}/{leaf}", unit.name), &leaf));
        read.push(leaf);
    }
    let negated = |k: usize| atoms[..k].iter().map(|a| format!("not({a})"));
    let predicates = (0..=atoms.len())
        .map(|k| {
            let conjuncts: Vec<String> = negated(k).chain(atoms.get(k).cloned()).collect();
            Predicate::parse(&conjuncts.join(" and ")).expect("a generated predicate parses")
        })
        .collect();
    (predicates, (read, atoms))
}

fn horizontal(
    rng: &mut TestRng,
    unit: &ElementDecl,
    docs: &[Document],
) -> (Vec<FragmentDef>, Reads) {
    if rng.below(5) == 0 {
        let leaf = pick(rng, &selective(unit)).clone();
        let collection = collection(Family::Horizontal);
        let by = path(&format!("/{}/{leaf}", unit.name));
        if let Ok(design) = horizontal_by_values(collection, &by, docs, 2 + rng.below(2)) {
            let atoms = vec![format!("/{}/{leaf} = {:?}", unit.name, pick(rng, pool(&leaf)))];
            return (design.fragments, (vec![leaf], atoms));
        }
    }
    let (predicates, read) = decision_list(rng, unit);
    let fragments = predicates.into_iter().enumerate();
    (fragments.map(|(k, p)| FragmentDef::horizontal(&format!("f{k}"), p)).collect(), read)
}

fn hybrid(rng: &mut TestRng, unit: &ElementDecl) -> (Vec<FragmentDef>, Reads) {
    let mode = if rng.bool() { FragMode::SingleDoc } else { FragMode::ManySmallDocs };
    let (predicates, read) = decision_list(rng, unit);
    let units = path("/Store/Items/Item");
    let unit = |(k, p): (usize, _)| FragmentDef::hybrid(&format!("f{k}"), units.clone(), p, mode);
    let mut fragments: Vec<FragmentDef> = predicates.into_iter().enumerate().map(unit).collect();
    fragments.push(FragmentDef::vertical("f_spine", path("/Store"), vec![path("/Store/Items")]));
    (fragments, read)
}

/// The spine plus cuts of the single-valued element paths two or three
/// steps deep, and up to two sections taken by position (one perhaps
/// with its heading cut out in turn); each fragment prunes the cuts that
/// hang directly below it.
fn vertical(rng: &mut TestRng, root: &ElementDecl) -> (Vec<FragmentDef>, Reads) {
    const SECTIONS: [&[&str]; 8] = [
        &[],
        &[],
        &["body/section[1]"],
        &["body/section[2]"],
        &["body/section[1]", "body/section[2]"],
        &["body/section[1]", "body/section[3]"],
        &["body/section[2]", "body/section[2]/heading"],
        &["body/section[2]/heading", "body/section[3]"],
    ];
    let mut cuts: Vec<String> = Vec::new();
    for (part, occurs) in &root.children {
        if occurs.at_most_one() && rng.below(2) == 0 {
            cuts.push(part.name.clone());
        }
        for (inner, occurs) in &part.children {
            if occurs.at_most_one() && rng.below(5) == 0 {
                cuts.push(format!("{}/{}", part.name, inner.name));
            }
        }
    }
    cuts.extend(pick(rng, &SECTIONS).iter().map(|s| s.to_string()));
    let mut paths = vec![path(&format!("/{}", root.name))];
    paths.extend(cuts.iter().map(|c| path(&format!("/{}/{c}", root.name))));
    // a cut is pruned from the longest path it hangs under
    let container = |cut: &PathExpr| {
        let above =
            |p: &&PathExpr| p.steps.len() < cut.steps.len() && cut.strip_prefix(p).is_some();
        paths.iter().filter(above).max_by_key(|p| p.steps.len()).cloned()
    };
    let fragments = paths
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let prune = paths.iter().filter(|c| container(c).as_ref() == Some(p)).cloned();
            FragmentDef::vertical(&format!("f{k}"), p.clone(), prune.collect())
        })
        .collect();
    (fragments, (cuts, Vec::new()))
}

/// A design atom asked of `$a`: its literal perhaps of the other kind,
/// its comparison perhaps flipped, its sense perhaps negated — what
/// fragment pruning must not take for a contradiction.
fn echo(rng: &mut TestRng, atom: &str, unit: &str) -> String {
    let mut text = atom.replacen(&format!("/{unit}/"), "$a/", 1);
    if let Some((target, literal)) = text.rsplit_once(' ') {
        let bare = literal.trim_matches('"');
        let literal = match (bare.parse::<f64>(), literal.starts_with('"')) {
            (Ok(number), true) if rng.bool() => number.to_string(),
            (Ok(_), false) if rng.bool() => format!("{bare:?}"),
            _ => literal.to_owned(),
        };
        let target = match rng.below(3) {
            0 => target.replacen(" = ", " != ", 1).replacen(" < ", " >= ", 1),
            _ => target.to_owned(),
        };
        text = format!("{target} {literal}");
    }
    if rng.bool() {
        format!("not({text})")
    } else {
        text
    }
}

/// A query over the case's collection: two in three conditions echo a
/// design atom, and one in two of the others reads a leaf the design
/// reads.
fn query(rng: &mut TestRng, family: Family, unit: &ElementDecl, (read, atoms): &Reads) -> Query {
    let c = match family {
        Family::Horizontal => format!(r#"collection("{DIST}")/Item"#),
        Family::Vertical => format!(r#"collection("{DIST}")/article"#),
        Family::Hybrid => format!(r#"collection("{DIST}")/Store/Items/Item"#),
    };
    let all = leaves(unit);
    let singles: Vec<String> = all.iter().filter(|(_, s)| *s).map(|(l, _)| l.clone()).collect();
    let many: Vec<String> = all.iter().filter(|(_, s)| !*s).map(|(l, _)| l.clone()).collect();
    let reads = |(l, _): &&(String, bool)| read.iter().any(|r| l.starts_with(r.as_str()));
    let read: Vec<String> = all.iter().filter(reads).map(|(l, _)| l.clone()).collect();
    let leaf = |rng: &mut TestRng| -> String {
        let leaf = match rng.below(4) {
            0 | 1 if !read.is_empty() => pick(rng, &read).clone(),
            0 | 1 => pick(rng, &singles).clone(),
            2 => pick(rng, &singles).clone(),
            _ => pick(rng, &all).0.clone(),
        };
        // a positional step on a multi-valued one
        match leaf.rsplit_once('/') {
            Some((steps, last)) if many.contains(&leaf) && rng.bool() => {
                format!("{steps}[{}]/{last}", 1 + rng.below(2))
            }
            _ => leaf,
        }
    };
    let condition = |rng: &mut TestRng| -> String {
        if !atoms.is_empty() && rng.below(3) > 0 {
            let atom = pick(rng, atoms).clone();
            return echo(rng, &atom, &unit.name);
        }
        let l = leaf(rng);
        match rng.below(12) {
            0 => {
                let (first, other) = (atom(rng, &format!("$a/{l}"), &l), leaf(rng));
                format!("({first} or {})", atom(rng, &format!("$a/{other}"), &other))
            }
            1 => format!("empty($a/{l})"),
            2 => format!(
                "count($a/{}) >= 2",
                pick(rng, &many).rsplit_once('/').map_or("*", |(s, _)| s).to_owned()
            ),
            3 => format!(
                "$a//{} = {:?}",
                l.rsplit('/').next().unwrap_or(&l),
                value(rng, l.rsplit('/').next().unwrap_or(&l), 1)
            ),
            _ => atom(rng, &format!("$a/{l}"), &l),
        }
    };
    let ret = |rng: &mut TestRng| -> String {
        let (a, b) = (leaf(rng), leaf(rng));
        match rng.below(8) {
            0 => format!("($a/{a}, $a/{b})"),
            1 => format!("<r>{{$a/{a}}}{{$a/{b}}}</r>"),
            2 => "$a".to_owned(),
            // a nested `for` reading its nodes, counting them or neither
            3 | 5 => match (a.rsplit_once('/'), rng.below(5)) {
                (Some((outer, inner)), 0) => format!("(for $s in $a/{outer} return $s/{inner})"),
                (Some((outer, _)), 1) => format!("count(for $s in $a/{outer} return 1)"),
                (Some((outer, _)), 2) => format!("count(for $s in $a/{outer} return $s)"),
                (Some((outer, _)), 3) => format!(r#"(for $s in $a/{outer} return "x")"#),
                (Some((outer, _)), _) => format!("$a/{outer}/*"),
                (None, _) => "$a/*".to_owned(),
            },
            4 => format!("$a//{}", a.rsplit('/').next().unwrap_or(&a)),
            _ => format!("$a/{a}"),
        }
    };
    let mut conjuncts: Vec<String> = (0..rng.below(5).min(3)).map(|_| condition(rng)).collect();
    let scan = format!("for $a in {c}");
    let r = ret(rng);
    let numeric = *pick(rng, &["Code", "Price", "word_count", "year", "Name"]);
    let named = all.iter().map(|(l, _)| l.clone()).find(|l| l.ends_with(numeric));
    let numeric = named.unwrap_or_else(|| leaf(rng));
    let agg = *pick(rng, &["count", "count", "count", "sum", "avg", "max"]);
    // aggregates of a `//` path are what a vertical design splits; the
    // other designs prune on `where` conjuncts; a hybrid one is read around
    // its units too
    let shape = match rng.below(20) {
        shape @ 16.. if family == Family::Horizontal => shape % 4,
        16.. if family == Family::Hybrid => {
            let store = format!(r#"for $s in collection("{DIST}")/Store return"#);
            return whole(match (rng.below(3), 1 + rng.below(4)) {
                (0, k) => format!("{store} $s/*[{k}]"),
                (1, k) => format!("{store} $s/Items/Item[{k}]/{}", leaf(rng)),
                _ => format!(r#"{store} string-join($s/Items/Item/{}, ",")"#, leaf(rng)),
            });
        }
        shape => shape,
    };
    let (head, tail) = match shape {
        0..=3 => (scan, format!("return {r}")),
        4 => {
            let dir = if rng.bool() { " descending" } else { "" };
            (scan, format!("order by $a/{}{dir} return {r}", pick(rng, &singles)))
        }
        5 => (
            format!("count({scan}"),
            format!("return $a) {}", pick(rng, &["", "> 2", "+ 1", "= 0"])),
        ),
        6 => (format!("{agg}({scan}"), format!("return number($a/{numeric}))")),
        7 => (format!("{scan}, $b in {c}"), format!("return ($b/{}, {r})", leaf(rng))),
        8 => (format!("let $all := {c} {scan}"), format!("return (count($all), {r})")),
        9 => {
            // the self-join's outer filter picks a few units
            conjuncts.insert(0, condition(rng));
            let l = leaf(rng);
            (scan, format!("return count(for $b in {c} where $b/{l} != $a/{l} return $b)"))
        }
        10 => return whole(format!("exists({c}/{})", leaf(rng))),
        11 => {
            return whole(format!("count(distinct-values(for $a in {c} return $a/{}))", leaf(rng)))
        }
        12 => return whole(format!(r#"string-join({c}/{}, ",")"#, leaf(rng))),
        13 => {
            return whole(format!(
                "{agg}({c}/{numeric}) div count({c}) {}",
                pick(rng, &["", "> 5"])
            ))
        }
        _ => {
            // mostly `count`: a `sum` of text is an error on every route,
            // which says nothing about the plan
            let agg = *pick(rng, &["count", "count", "count", "count", "count", "sum"]);
            let leaf = leaf(rng);
            let mut steps: Vec<&str> = leaf.split('/').filter(|s| !s.starts_with('@')).collect();
            if steps.is_empty() {
                steps.push("*");
            }
            let step = match rng.below(6) {
                0 => "*".to_owned(),
                1 => pick(rng, &steps).to_string(),
                2 | 3 => format!("{}//{}", steps[0], steps[steps.len() - 1]),
                _ => steps[steps.len().saturating_sub(2)..].join("/"),
            };
            return whole(format!(r#"{agg}(collection("{DIST}")//{step})"#));
        }
    };
    Query { head, conjuncts, tail }
}

fn whole(text: String) -> Query {
    Query { head: text, conjuncts: Vec::new(), tail: String::new() }
}
