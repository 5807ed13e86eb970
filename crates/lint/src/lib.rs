//! `mmp-lint` — workspace static analysis for determinism and
//! stage-invariant conventions.
//!
//! The placement flow (RL pre-training → PUCT-guided MCTS → legalization)
//! is only reproducible if every stage is bitwise deterministic. The
//! conventions that guarantee it — seeded vendored RNG only, `total_cmp`
//! instead of `partial_cmp().unwrap()`, no hash-order-dependent
//! iteration, no wall-clock reads outside the budget/obs layers — cannot
//! all be expressed as clippy lints, so this crate machine-enforces them
//! with a hand-rolled, dependency-free lexer (see [`lexer`]).
//!
//! # Rules
//!
//! | id | scope | enforces |
//! |----|-------|----------|
//! | `hash-order` (R1)  | decision crates | no `HashMap`/`HashSet` whose order could reach decisions |
//! | `partial-cmp` (R2) | all crates | `f64::total_cmp` instead of `partial_cmp` |
//! | `wallclock` (R3)   | all but budget/obs/bench | no `Instant::now`/`SystemTime::now` |
//! | `rng-source` (R4)  | all crates | no `thread_rng`/`rand::random`/`RandomState` |
//! | `allow-why` (R5)   | all crates | `#[allow(..)]` of a denied lint carries a `why:` |
//! | `parallelism` (R6) | all but pool/bench | no `available_parallelism`-derived partitioning |
//! | `fs-route` (R7)    | ckpt/serve lib code | fs mutations only through the `mmp-vfs` chokepoint |
//! | `panic-path` (R8)  | library crates | panic sites, ranked by call-chain reachability from the flow entrypoints |
//! | `float-reduction` (R9) | all but pool/bench | no unpinned-order float accumulation outside the pool's fixed-chunk reductions |
//! | `cast-truncation` (R10) | geom/netlist/legal | no bare lossy `as` casts in index/coordinate math |
//! | `suppression`      | all crates | suppression comments parse, justify, and bite |
//!
//! R1–R7 are token-local. R8–R10 are semantic: the engine first parses
//! every file into an item table ([`items`]), builds an approximate
//! intra-workspace call graph ([`graph`]), and only then scans — which
//! is how R8 findings carry a shortest call chain from the serving/flow
//! entrypoints (`Daemon::serve`, `MacroPlacer::place`, `Trainer::train`).
//!
//! # Baseline + ratchet
//!
//! Pre-existing findings are grandfathered in `lint.baseline.json`
//! (committed at the workspace root). `mmp-lint check --deny-new` fails
//! only on findings *not* covered by the baseline, so the count can
//! ratchet down but never up; `--update-baseline` regenerates the file
//! (see [`baseline`] for the key scheme and the regeneration policy).
//!
//! # Suppressions
//!
//! A finding is silenced in-source by a plain line comment on the same
//! line or the line directly above, of the form
//!
//! ```text
//! // mmp-lint: allow(hash-order) why: lookup table only, never iterated
//! ```
//!
//! The `why:` text is mandatory and must be non-empty; a malformed,
//! unknown-rule, or unused suppression is itself a (non-suppressible)
//! finding, so stale directives cannot accumulate.

pub mod baseline;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{
    ALLOW_WHY, CAST_TRUNCATION, FLOAT_REDUCTION, FS_ROUTE, HASH_ORDER, PANIC_PATH, PARALLELISM,
    PARTIAL_CMP, RNG_SOURCE, RULES, SUPPRESSION, WALLCLOCK,
};

/// What the engine enforces where. [`LintConfig::default`] encodes this
/// workspace's conventions; tests construct narrower configs.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crate directory names (under `crates/`) whose code makes or feeds
    /// placement decisions — the `hash-order` rule applies only here.
    pub decision_crates: Vec<String>,
    /// Path prefixes (workspace-relative, `/`-separated) where wall-clock
    /// reads are sanctioned: the budget/obs timing layers and the bench
    /// harness edge.
    pub wallclock_sanctioned: Vec<String>,
    /// Lints that CI denies; `#[allow(..)]`-ing one needs a `why:`.
    pub denied_lints: Vec<String>,
    /// Path prefixes where `available_parallelism` is sanctioned: the
    /// deterministic pool crate (which must never call it for partitioning,
    /// but may reference it in docs/validation) and the bench harness edge
    /// (machine reporting only). Everywhere else the worker count must come
    /// from explicit configuration.
    pub parallelism_sanctioned: Vec<String>,
    /// Path prefixes whose library code must route every filesystem
    /// mutation through the `mmp-vfs` chokepoint (`fs-route` rule): the
    /// checkpoint and serving crates, whose durable writes the torture
    /// harness must be able to intercept. Unit-test modules are exempt.
    pub fs_route_scoped: Vec<String>,
    /// Crate directory names (under `crates/`) whose library code the
    /// `panic-path` rule scans. Binary roots (`main.rs`, `src/bin/`)
    /// and unit tests are exempt everywhere: a CLI may panic on broken
    /// invariants, a library must not.
    pub panic_path_scoped: Vec<String>,
    /// Path prefixes where unpinned-order float accumulation is
    /// sanctioned: the pool crate (it *implements* the fixed-chunk
    /// reductions) and the bench harness edge.
    pub float_sanctioned: Vec<String>,
    /// Path prefixes the `cast-truncation` rule scans: the crates doing
    /// index/coordinate arithmetic where a silent wrap corrupts
    /// geometry instead of crashing.
    pub cast_scoped: Vec<String>,
    /// Entrypoint suffixes for R8 reachability, matched against
    /// qualified item names (`Server::serve` matches
    /// `mmp_serve::daemon::Server::serve`).
    pub entrypoints: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let s = |v: &[&str]| v.iter().map(|x| (*x).to_owned()).collect();
        LintConfig {
            decision_crates: s(&[
                "analytic", "cluster", "core", "legal", "mcts", "netlist", "rl",
            ]),
            wallclock_sanctioned: s(&[
                "crates/obs/src",
                "crates/core/src/budget.rs",
                "crates/bench/src",
                // The daemon's single clock chokepoint: queue-wait spans
                // and nothing else (placement decisions never see it).
                "crates/serve/src/clock.rs",
            ]),
            denied_lints: s(&[
                "unsafe_code",
                "clippy::disallowed_methods",
                "clippy::unwrap_used",
                "clippy::expect_used",
                "clippy::print_stdout",
                "clippy::print_stderr",
            ]),
            parallelism_sanctioned: s(&["crates/pool/src", "crates/bench/src"]),
            fs_route_scoped: s(&["crates/ckpt/src", "crates/serve/src"]),
            panic_path_scoped: s(&[
                "analytic",
                "baselines",
                "ckpt",
                "cluster",
                "core",
                "geom",
                "legal",
                "mcts",
                "netlist",
                "nn",
                "obs",
                "pool",
                "rl",
                "serve",
                "vfs",
            ]),
            float_sanctioned: s(&["crates/pool/src", "crates/bench/src"]),
            cast_scoped: s(&["crates/geom/src", "crates/netlist/src", "crates/legal/src"]),
            entrypoints: s(&[
                // `Daemon::serve` is the paper-facing name; `Server` is
                // the concrete daemon type, and `Server::start` roots
                // the worker_loop → run_job placement path.
                "Daemon::serve",
                "Server::serve",
                "Server::start",
                "MacroPlacer::place",
                "Trainer::train",
            ]),
        }
    }
}

impl LintConfig {
    /// `true` when `path_rel` lives in a decision crate's `src/`.
    pub fn is_decision_crate(&self, path_rel: &str) -> bool {
        self.decision_crates
            .iter()
            .any(|c| path_rel.starts_with(&format!("crates/{c}/src/")))
    }

    /// `true` when `path_rel` is a sanctioned wall-clock module.
    pub fn is_wallclock_sanctioned(&self, path_rel: &str) -> bool {
        self.wallclock_sanctioned
            .iter()
            .any(|p| path_rel.starts_with(p.as_str()))
    }

    /// `true` when `path_rel` may mention `available_parallelism`.
    pub fn is_parallelism_sanctioned(&self, path_rel: &str) -> bool {
        self.parallelism_sanctioned
            .iter()
            .any(|p| path_rel.starts_with(p.as_str()))
    }

    /// `true` when `path_rel` must route fs mutations through `mmp-vfs`.
    pub fn is_fs_route_scoped(&self, path_rel: &str) -> bool {
        self.fs_route_scoped
            .iter()
            .any(|p| path_rel.starts_with(p.as_str()))
    }

    /// `true` when `path_rel` is library code the `panic-path` rule scans.
    pub fn is_panic_path_scoped(&self, path_rel: &str) -> bool {
        self.panic_path_scoped
            .iter()
            .any(|c| path_rel.starts_with(&format!("crates/{c}/src/")))
    }

    /// `true` when `path_rel` may accumulate floats in iterator order.
    pub fn is_float_sanctioned(&self, path_rel: &str) -> bool {
        self.float_sanctioned
            .iter()
            .any(|p| path_rel.starts_with(p.as_str()))
    }

    /// `true` when `path_rel` is in the `cast-truncation` scope.
    pub fn is_cast_scoped(&self, path_rel: &str) -> bool {
        self.cast_scoped
            .iter()
            .any(|p| path_rel.starts_with(p.as_str()))
    }
}

/// One finding, after suppression matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`hash-order`, `partial-cmp`, ...).
    pub rule: String,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Qualified name of the enclosing `fn` item
    /// (`mmp_serve::daemon::Server::serve`); empty outside any item.
    pub item: String,
    /// Site kind within the rule — the matched token for R1–R7,
    /// `unwrap`/`expect`/`panic`/`assert`/`index` for R8,
    /// `sum`/`fold`/`reduce` for R9, the cast target type for R10.
    pub kind: String,
    /// R8 only: shortest call chain from a flow entrypoint to the
    /// enclosing item (entrypoint first, enclosing item last); empty
    /// when unreachable or for other rules.
    pub call_chain: Vec<String>,
    /// `true` when an in-source directive silenced this finding.
    pub suppressed: bool,
    /// The justification text of the matching directive, if suppressed.
    pub why: Option<String>,
    /// `true` when the committed baseline grandfathers this finding
    /// (set by [`baseline::mark`], never by the engine itself).
    pub baselined: bool,
}

/// A parsed `mmp-lint: allow(..) why: ..` directive.
struct Suppression {
    line: usize,
    rules: Vec<String>,
    why: String,
    used: bool,
}

/// Lints one file's source. `path_rel` scopes the crate-sensitive rules,
/// so fixtures can pretend to live anywhere in the workspace. R8 chains
/// only span this one file — use [`lint_files`] for workspace-wide
/// reachability.
pub fn lint_source(path_rel: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    lint_files(&[(path_rel.to_owned(), src.to_owned())], cfg)
}

/// The two-pass engine behind [`lint_source`] and [`lint_workspace`]:
/// pass 1 lexes and item-parses every file and builds the call graph,
/// pass 2 runs the rules and attaches enclosing items, R8 call chains,
/// and suppressions. Findings arrive in file order, sorted by position
/// within each file, and no finding is `baselined` — ratcheting is a
/// separate, explicit step ([`baseline::mark`]).
pub fn lint_files(files: &[(String, String)], cfg: &LintConfig) -> Vec<Finding> {
    let parsed: Vec<(items::ParsedFile, lexer::Lexed)> = files
        .iter()
        .map(|(path_rel, src)| {
            let lexed = lexer::lex(src);
            (items::parse(path_rel, &lexed), lexed)
        })
        .collect();
    let g = graph::CallGraph::build(&parsed, &cfg.entrypoints);

    let mut findings: Vec<Finding> = Vec::new();
    for (fi, ((path_rel, _), (pf, lexed))) in files.iter().zip(&parsed).enumerate() {
        let mut raw = rules::scan(path_rel, lexed, cfg);
        raw.extend(rules::scan_semantic(path_rel, lexed, pf, cfg));
        findings.extend(decorate_and_suppress(path_rel, lexed, pf, fi, &g, raw));
    }
    findings
}

/// Turns one file's raw findings into [`Finding`]s: attributes each to
/// its enclosing item, attaches R8 call chains, and applies the
/// suppression directives from the file's comments.
fn decorate_and_suppress(
    path_rel: &str,
    lexed: &lexer::Lexed,
    pf: &items::ParsedFile,
    file_idx: usize,
    g: &graph::CallGraph,
    raw: Vec<rules::RawFinding>,
) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    let mut sups: Vec<Suppression> = Vec::new();
    for c in &lexed.comments {
        match parse_directive(&c.text) {
            Directive::None => {}
            Directive::Malformed(msg) => findings.push(Finding {
                rule: SUPPRESSION.to_owned(),
                path: path_rel.to_owned(),
                line: c.line,
                col: 1,
                message: msg,
                item: String::new(),
                kind: String::new(),
                call_chain: Vec::new(),
                suppressed: false,
                why: None,
                baselined: false,
            }),
            Directive::Allow { rules, why } => sups.push(Suppression {
                line: c.line,
                rules,
                why,
                used: false,
            }),
        }
    }

    for f in raw {
        let item_idx = pf.enclosing_item(f.tok);
        let item = item_idx
            .map(|i| pf.items[i].qual.clone())
            .unwrap_or_default();
        let call_chain = if f.rule == PANIC_PATH {
            item_idx
                .and_then(|i| g.chain(file_idx, i))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        let hit = sups.iter_mut().find(|s| {
            (s.line == f.line || s.line + 1 == f.line) && s.rules.iter().any(|r| r == f.rule)
        });
        let (suppressed, why) = match hit {
            Some(s) => {
                s.used = true;
                (true, Some(s.why.clone()))
            }
            None => (false, None),
        };
        findings.push(Finding {
            rule: f.rule.to_owned(),
            path: path_rel.to_owned(),
            line: f.line,
            col: f.col,
            message: f.message,
            item,
            kind: f.kind,
            call_chain,
            suppressed,
            why,
            baselined: false,
        });
    }

    for s in &sups {
        if !s.used {
            findings.push(Finding {
                rule: SUPPRESSION.to_owned(),
                path: path_rel.to_owned(),
                line: s.line,
                col: 1,
                message: format!(
                    "unused suppression for ({}) — it matches no finding on \
                     this or the next line; remove it",
                    s.rules.join(", ")
                ),
                item: String::new(),
                kind: String::new(),
                call_chain: Vec::new(),
                suppressed: false,
                why: None,
                baselined: false,
            });
        }
    }

    findings
        .sort_by(|a, b| (a.line, a.col, a.rule.as_str()).cmp(&(b.line, b.col, b.rule.as_str())));
    findings
}

enum Directive {
    None,
    Malformed(String),
    Allow { rules: Vec<String>, why: String },
}

/// Parses one comment. Only plain `//` line comments carry directives —
/// doc comments (`///`, `//!`) and block comments never do, so rustdoc
/// can *describe* the syntax without tripping the meta rule.
fn parse_directive(text: &str) -> Directive {
    if !text.starts_with("//") || text.starts_with("///") || text.starts_with("//!") {
        return Directive::None;
    }
    let body = text.trim_start_matches('/').trim_start();
    let Some(rest) = body.strip_prefix("mmp-lint:") else {
        return Directive::None;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Directive::Malformed(
            "malformed mmp-lint directive: expected `mmp-lint: allow(<rule>) why: <text>`"
                .to_owned(),
        );
    };
    let Some(close) = rest.find(')') else {
        return Directive::Malformed(
            "malformed mmp-lint directive: unclosed allow( rule list".to_owned(),
        );
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Directive::Malformed(
            "malformed mmp-lint directive: empty allow( ) rule list".to_owned(),
        );
    }
    for r in &rules {
        if r == SUPPRESSION {
            return Directive::Malformed(
                "the suppression meta rule cannot be suppressed".to_owned(),
            );
        }
        if !rules::known_rule(r) {
            return Directive::Malformed(format!(
                "mmp-lint directive names unknown rule `{r}` (known: {})",
                rules::RULES
                    .iter()
                    .map(|(id, _)| *id)
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    let after = rest[close + 1..].trim_start();
    let Some(why) = after.strip_prefix("why:") else {
        return Directive::Malformed(
            "mmp-lint directive is missing its `why:` justification".to_owned(),
        );
    };
    if why.trim().is_empty() {
        return Directive::Malformed(
            "mmp-lint directive has an empty `why:` justification".to_owned(),
        );
    }
    Directive::Allow {
        rules,
        why: why.trim().to_owned(),
    }
}

/// Lints every `crates/*/src/**/*.rs` under `root` (the workspace
/// checkout). `vendor/` is never walked: the vendored stubs mirror
/// external crates and are not held to project conventions.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree (a missing
/// `crates/` directory, unreadable files).
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in crates_dir.read_dir()? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            crate_dirs.push(entry.path());
        }
    }
    crate_dirs.sort();

    let mut files: Vec<PathBuf> = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();

    let mut sources: Vec<(String, String)> = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&file)?;
        sources.push((rel, src));
    }
    Ok(lint_files(&sources, cfg))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in dir.read_dir()? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Human-readable report: every unsuppressed finding (with its R8 call
/// chain when one exists), then a summary line. Suppressed findings are
/// counted but not listed; baselined findings are listed only when
/// `show_baselined` (plain `check` shows everything, `--deny-new` hides
/// the grandfathered noise).
pub fn render_text(findings: &[Finding], show_baselined: bool) -> String {
    let mut out = String::new();
    let mut unsuppressed = 0usize;
    let mut baselined = 0usize;
    for f in findings {
        if f.suppressed {
            continue;
        }
        unsuppressed += 1;
        if f.baselined {
            baselined += 1;
            if !show_baselined {
                continue;
            }
        }
        let tag = if f.baselined { " (baselined)" } else { "" };
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}{}",
            f.path, f.line, f.col, f.rule, f.message, tag
        );
        if !f.call_chain.is_empty() {
            let _ = writeln!(out, "    via {}", f.call_chain.join(" -> "));
        }
    }
    let _ = writeln!(
        out,
        "mmp-lint: {} finding(s), {} unsuppressed ({} new, {} baselined), {} suppressed",
        findings.len(),
        unsuppressed,
        unsuppressed - baselined,
        baselined,
        findings.len() - unsuppressed
    );
    out
}

/// Machine-readable report. Schema (stable, `version` guards changes):
///
/// ```text
/// {"version":2,"total":N,"unsuppressed":M,"new":K,
///  "findings":[{"rule":"..","path":"..","line":L,"col":C,
///               "message":"..","item":"..","kind":"..",
///               "call_chain":["..",".."],"suppressed":false,
///               "why":null,"baselined":false}, ..]}
/// ```
///
/// v2 (this PR) added `item`, `kind`, `call_chain`, `baselined`, and the
/// top-level `new` count to the v1 shape.
pub fn render_json(findings: &[Finding]) -> String {
    let unsuppressed = findings.iter().filter(|f| !f.suppressed).count();
    let new = findings
        .iter()
        .filter(|f| !f.suppressed && !f.baselined)
        .count();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"version\":2,\"total\":{},\"unsuppressed\":{},\"new\":{},\"findings\":[",
        findings.len(),
        unsuppressed,
        new
    );
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let chain = f
            .call_chain
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            out,
            "{{\"rule\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{},\
             \"item\":{},\"kind\":{},\"call_chain\":[{}],\
             \"suppressed\":{},\"why\":{},\"baselined\":{}}}",
            json_str(&f.rule),
            json_str(&f.path),
            f.line,
            f.col,
            json_str(&f.message),
            json_str(&f.item),
            json_str(&f.kind),
            chain,
            f.suppressed,
            match &f.why {
                Some(w) => json_str(w),
                None => "null".to_owned(),
            },
            f.baselined
        );
    }
    out.push_str("]}");
    out
}

/// Escapes a string as a JSON literal (quotes included).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_roundtrip() {
        match parse_directive("// mmp-lint: allow(hash-order, wallclock) why: lookup only") {
            Directive::Allow { rules, why } => {
                assert_eq!(rules, vec!["hash-order", "wallclock"]);
                assert_eq!(why, "lookup only");
            }
            _ => panic!("expected Allow"),
        }
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        assert!(matches!(
            parse_directive("/// mmp-lint: allow(hash-order) why: doc example"),
            Directive::None
        ));
    }

    #[test]
    fn missing_why_is_malformed() {
        assert!(matches!(
            parse_directive("// mmp-lint: allow(hash-order)"),
            Directive::Malformed(_)
        ));
        assert!(matches!(
            parse_directive("// mmp-lint: allow(hash-order) why:   "),
            Directive::Malformed(_)
        ));
    }

    #[test]
    fn unknown_rule_is_malformed() {
        assert!(matches!(
            parse_directive("// mmp-lint: allow(no-such-rule) why: x"),
            Directive::Malformed(_)
        ));
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }
}
