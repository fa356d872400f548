//! Per-file analysis: turns a lexed token stream into the facts the rules
//! consume — a function table with call sets, every `charge_kernel` /
//! `charge_ns` site (with statically resolved kernel names), sanitizer
//! `scope("…")` literals, `#[cfg(test)]` masking, and `lint:allow` waivers.

use crate::lexer::{lex, Tok, TokKind};
use crate::report::{Finding, RULE_IDS};
use std::collections::BTreeSet;

/// A `lint:allow(rule): reason` waiver parsed from a comment. Waivers are
/// only recognized inside comments (never string literals), so source text
/// cannot spoof one.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub line: u32,
    pub rule: String,
    /// `None` when the waiver names no reason — such waivers suppress nothing
    /// and are themselves reported as `waiver_without_reason`.
    pub reason: Option<String>,
}

/// One `charge_kernel(…)` or `charge_ns(…)` call site.
#[derive(Debug, Clone)]
pub struct ChargeSite {
    pub line: u32,
    /// Line of the closing `)` — waivers anywhere in `[line-1, end_line]`
    /// attach to findings at this site.
    pub end_line: u32,
    pub fn_idx: Option<usize>,
    pub is_ns: bool,
    /// Statically resolved kernel names: one for a literal first argument,
    /// several when a local `let name = if … { "a" } else { "b" }` binding
    /// feeds the call, empty when the name is dynamic (e.g. a fn parameter).
    pub names: Vec<String>,
    pub phase: Option<String>,
    pub is_test: bool,
}

/// One telemetry metric call site (`counter_add` / `counter_inc` /
/// `gauge_set` / `hist_observe`).
#[derive(Debug, Clone)]
pub struct MetricSite {
    pub line: u32,
    /// Line of the closing `)` — waivers attach over `[line-1, end_line]`
    /// exactly as for charge sites.
    pub end_line: u32,
    /// Statically resolved metric names: literal first argument, or every
    /// literal a local `let name = …` binding can take; empty when the name
    /// is dynamic (a parameter or helper-function result).
    pub names: Vec<String>,
    pub is_test: bool,
}

#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    pub line: u32,
    pub start: usize,
    pub end: usize,
    pub is_test: bool,
    pub calls: BTreeSet<String>,
    pub opens_prof: bool,
    pub has_charge: bool,
    pub has_trace: bool,
}

pub struct SourceFile {
    /// Display path, `/`-separated, as it should appear in diagnostics.
    pub path: String,
    pub toks: Vec<Tok>,
    /// Token-level `#[cfg(test)]` / `#[test]` mask.
    pub masked: Vec<bool>,
    pub fns: Vec<FnInfo>,
    pub waivers: Vec<Waiver>,
    pub charges: Vec<ChargeSite>,
    /// Telemetry registry call sites, for the metric-name contract.
    pub metrics: Vec<MetricSite>,
    /// Kernel names opened via a literal sanitizer `.scope("name")` outside
    /// test code — evidence the kernel has an access-trace replay.
    pub scope_names: BTreeSet<String>,
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| t.ident())
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// For an identifier at `i`, return the index of the `(` that makes it a
/// call, skipping one turbofish (`::<…>`). `None` if not a call.
fn call_paren(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if punct_at(toks, j, ':') && punct_at(toks, j + 1, ':') && punct_at(toks, j + 2, '<') {
        let mut depth = 0i32;
        let mut k = j + 2;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        j = k + 1;
    }
    if punct_at(toks, j, '(') {
        Some(j)
    } else {
        None
    }
}

fn compute_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && punct_at(toks, i + 1, '[')) {
            i += 1;
            continue;
        }
        // Scan the attribute to its matching `]`, noting whether it mentions
        // `test` (covers #[test], #[cfg(test)], #[cfg(all(test, …))]).
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut has_test = false;
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => depth -= 1,
                TokKind::Ident(s) if s == "test" => has_test = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while punct_at(toks, j, '#') && punct_at(toks, j + 1, '[') {
            let mut d = 1i32;
            j += 2;
            while j < toks.len() && d > 0 {
                match toks[j].kind {
                    TokKind::Punct('[') => d += 1,
                    TokKind::Punct(']') => d -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        // Mask through the end of the item: either a `;` at depth 0 or the
        // matching `}` of the item's first top-level brace.
        let mut pdepth = 0i32;
        let mut bdepth = 0i32;
        let mut end = toks.len();
        let mut k = j;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => pdepth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => pdepth -= 1,
                TokKind::Punct('{') => bdepth += 1,
                TokKind::Punct('}') => {
                    bdepth -= 1;
                    if bdepth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                TokKind::Punct(';') if pdepth == 0 && bdepth == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for m in mask.iter_mut().take(end).skip(i) {
            *m = true;
        }
        i = end;
    }
    mask
}

fn collect_fns(toks: &[Tok], masked: &[bool]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if ident_at(toks, i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(toks, i + 1) else {
            // `fn(…)` function-pointer type, not a definition.
            i += 1;
            continue;
        };
        // Find the body `{` (or trailing `;` for trait decls) at paren depth 0.
        let mut pdepth = 0i32;
        let mut j = i + 2;
        let mut body = None;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => pdepth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => pdepth -= 1,
                TokKind::Punct('{') if pdepth == 0 => {
                    body = Some(j);
                    break;
                }
                TokKind::Punct(';') if pdepth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let end = match body {
            Some(b) => {
                let mut depth = 0i32;
                let mut k = b;
                loop {
                    if k >= toks.len() {
                        break toks.len().saturating_sub(1);
                    }
                    match toks[k].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break k;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            None => j.min(toks.len().saturating_sub(1)),
        };
        fns.push(FnInfo {
            name: name.to_string(),
            line: toks[i].line,
            start: i,
            end,
            is_test: masked[i],
            calls: BTreeSet::new(),
            opens_prof: false,
            has_charge: false,
            has_trace: false,
        });
        i += 2;
    }
    fns
}

/// Innermost function whose span contains token `i`.
fn enclosing_fn(fns: &[FnInfo], i: usize) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| f.start <= i && i <= f.end)
        .max_by_key(|(_, f)| f.start)
        .map(|(idx, _)| idx)
}

/// Resolve a local `let name = …;` binding feeding a charge call: every
/// string literal between the `=` and the statement-ending `;` is a candidate
/// kernel name (handles `let name = if cond { "a" } else { "b" };`).
fn resolve_binding(toks: &[Tok], fn_start: usize, site: usize, var: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = fn_start;
    while i + 2 < site {
        if ident_at(toks, i) != Some("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if ident_at(toks, j) == Some("mut") {
            j += 1;
        }
        if ident_at(toks, j) != Some(var) {
            i += 1;
            continue;
        }
        // Skip type annotation to the `=`.
        while j < site && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
            j += 1;
        }
        if !punct_at(toks, j, '=') {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < site {
            match &toks[k].kind {
                TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct(';') if depth == 0 => break,
                TokKind::Str(s) => names.push(s.clone()),
                _ => {}
            }
            k += 1;
        }
        i = k;
    }
    names.sort();
    names.dedup();
    names
}

fn parse_waivers(comments: &[crate::lexer::Comment]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        let mut consumed = 0usize;
        while let Some(pos) = rest.find("lint:allow(") {
            let abs = consumed + pos;
            let line = c.line + c.text[..abs].matches('\n').count() as u32;
            let after = &rest[pos + "lint:allow(".len()..];
            let Some(close) = after.find(')') else { break };
            let rule = after[..close].trim().to_string();
            let tail = after[close + 1..].trim_start();
            let reason = tail
                .strip_prefix(':')
                .map(|r| r.trim().trim_end_matches("*/").trim().to_string())
                .filter(|r| !r.is_empty());
            out.push(Waiver { line, rule, reason });
            let advance = pos + "lint:allow(".len() + close + 1;
            consumed += advance;
            rest = &rest[advance..];
        }
    }
    out
}

impl SourceFile {
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let toks = lexed.toks;
        let masked = compute_test_mask(&toks);
        let mut fns = collect_fns(&toks, &masked);
        let waivers = parse_waivers(&lexed.comments);
        let mut charges = Vec::new();
        let mut metrics = Vec::new();
        let mut scope_names = BTreeSet::new();

        let mut i = 0usize;
        while i < toks.len() {
            let Some(id) = ident_at(&toks, i) else {
                i += 1;
                continue;
            };
            // Skip definitions and macro invocations.
            if i > 0 && ident_at(&toks, i - 1) == Some("fn") {
                i += 1;
                continue;
            }
            if punct_at(&toks, i + 1, '!') {
                i += 1;
                continue;
            }
            let Some(open) = call_paren(&toks, i) else {
                i += 1;
                continue;
            };
            let fi = enclosing_fn(&fns, i);
            if let Some(fi) = fi {
                fns[fi].calls.insert(id.to_string());
                if id == "prof_scope" {
                    fns[fi].opens_prof = true;
                }
                if id.starts_with("trace") || id == "sanitizer" {
                    fns[fi].has_trace = true;
                }
            }
            let is_charge = id == "charge_kernel" || id == "charge_ns";
            let is_scope = id == "scope" && i > 0 && punct_at(&toks, i - 1, '.');
            let is_metric = matches!(
                id,
                "counter_add" | "counter_inc" | "gauge_set" | "hist_observe"
            );
            if !is_charge && !is_scope && !is_metric {
                i += 1;
                continue;
            }
            // Split call arguments at depth-1 commas.
            let mut depth = 1i32;
            let mut k = open + 1;
            let mut args: Vec<Vec<usize>> = vec![Vec::new()];
            let mut close = toks.len().saturating_sub(1);
            while k < toks.len() {
                match toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                        depth += 1;
                        args.last_mut().unwrap().push(k);
                    }
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            close = k;
                            break;
                        }
                        args.last_mut().unwrap().push(k);
                    }
                    TokKind::Punct(',') if depth == 1 => args.push(Vec::new()),
                    _ => args.last_mut().unwrap().push(k),
                }
                k += 1;
            }
            // Resolve the name argument.
            let arg0 = &args[0];
            let names = if arg0.len() == 1 {
                match &toks[arg0[0]].kind {
                    TokKind::Str(s) => vec![s.clone()],
                    TokKind::Ident(v) => {
                        let fn_start = fi.map(|f| fns[f].start).unwrap_or(0);
                        resolve_binding(&toks, fn_start, i, v)
                    }
                    _ => Vec::new(),
                }
            } else {
                Vec::new()
            };
            if is_scope {
                if !masked[i] {
                    for n in &names {
                        scope_names.insert(n.clone());
                    }
                }
                i = open;
                continue;
            }
            if is_metric {
                metrics.push(MetricSite {
                    line: toks[i].line,
                    end_line: toks[close.min(toks.len() - 1)].line,
                    names,
                    is_test: masked[i],
                });
                i = open;
                continue;
            }
            if let Some(fi) = fi {
                fns[fi].has_charge = true;
            }
            // Any `Phase::Variant` mention inside the call.
            let mut phase = None;
            for w in open..close {
                if ident_at(&toks, w) == Some("Phase")
                    && punct_at(&toks, w + 1, ':')
                    && punct_at(&toks, w + 2, ':')
                {
                    if let Some(v) = ident_at(&toks, w + 3) {
                        phase = Some(v.to_string());
                        break;
                    }
                }
            }
            charges.push(ChargeSite {
                line: toks[i].line,
                end_line: toks[close.min(toks.len() - 1)].line,
                fn_idx: fi,
                is_ns: id == "charge_ns",
                names,
                phase,
                is_test: masked[i],
            });
            i = open;
        }

        SourceFile {
            path: path.to_string(),
            toks,
            masked,
            fns,
            waivers,
            charges,
            metrics,
            scope_names,
        }
    }

    /// v1 style rules, now token-accurate: `.unwrap()` in library code,
    /// `as_mut_slice` outside the buffer module, `run_blocks` in a function
    /// that never charges the device ledger.
    pub fn style_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        let toks = &self.toks;
        let is_buffer_module = self
            .path
            .replace('\\', "/")
            .ends_with("gpusim/src/buffer.rs");
        for i in 0..toks.len() {
            if self.masked[i] {
                continue;
            }
            let Some(id) = ident_at(toks, i) else {
                continue;
            };
            match id {
                "unwrap"
                    if i > 0
                        && punct_at(toks, i - 1, '.')
                        && punct_at(toks, i + 1, '(')
                        && punct_at(toks, i + 2, ')') =>
                {
                    out.push(Finding::new(
                        "unwrap_in_lib",
                        &self.path,
                        toks[i].line,
                        "`.unwrap()` in library code; return a Result or use expect with an invariant message".to_string(),
                    ));
                }
                "as_mut_slice" if !is_buffer_module => {
                    out.push(Finding::new(
                        "raw_buffer_mut",
                        &self.path,
                        toks[i].line,
                        "raw `as_mut_slice` outside gpusim/src/buffer.rs; device memory must be mutated through checked views".to_string(),
                    ));
                }
                "run_blocks" => {
                    if ident_at(toks, i.wrapping_sub(1)) == Some("fn") {
                        continue;
                    }
                    if call_paren(toks, i).is_none() {
                        continue;
                    }
                    let charged = enclosing_fn(&self.fns, i)
                        .map(|f| self.fns[f].has_charge)
                        .unwrap_or(false);
                    if !charged {
                        out.push(Finding::new(
                            "uncharged_launch",
                            &self.path,
                            toks[i].line,
                            "`run_blocks` in a function that never charges the device ledger; simulated launches must be accounted".to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Determinism-hazard lints for device-charged library code:
    /// `HashMap`/`HashSet` (iteration order varies run to run) and unordered
    /// parallel float reductions (`par_iter().…sum()`).
    pub fn hazard_findings(&self) -> Vec<Finding> {
        const PAR: &[&str] = &[
            "par_iter",
            "par_iter_mut",
            "into_par_iter",
            "par_chunks",
            "par_chunks_mut",
            "par_windows",
            "par_bridge",
            "par_split",
            "par_drain",
        ];
        const REDUCE: &[&str] = &["sum", "product", "reduce", "reduce_with"];
        let mut out = Vec::new();
        let mut seen_lines = BTreeSet::new();
        let toks = &self.toks;
        for i in 0..toks.len() {
            if self.masked[i] {
                continue;
            }
            let Some(id) = ident_at(toks, i) else {
                continue;
            };
            if (id == "HashMap" || id == "HashSet") && seen_lines.insert(toks[i].line) {
                out.push(Finding::new(
                    "hashmap_iteration",
                    &self.path,
                    toks[i].line,
                    format!(
                        "`{id}` in device-charged library code; iteration order is nondeterministic — use BTreeMap/BTreeSet or a sorted layout to keep runs bit-identical"
                    ),
                ));
                continue;
            }
            if !PAR.contains(&id) || call_paren(toks, i).is_none() {
                continue;
            }
            // Scan the rest of the expression at relative depth 0 for a
            // floating-point-unfriendly reduction. Closure bodies sit at
            // depth > 0, so per-item `iter().sum()` inside a map is fine.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut steps = 0usize;
            while j < toks.len() && steps < 300 {
                match &toks[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                        if depth == 0 && toks[j].is_punct('}') {
                            break;
                        }
                    }
                    TokKind::Punct(';') | TokKind::Punct(',') if depth == 0 => break,
                    TokKind::Ident(m)
                        if depth == 0
                            && REDUCE.contains(&m.as_str())
                            && call_paren(toks, j).is_some() =>
                    {
                        out.push(Finding::new(
                            "unordered_float_reduce",
                            &self.path,
                            toks[j].line,
                            format!(
                                "parallel `{id}` chain ends in `{m}`; unordered reduction makes float results depend on thread scheduling — reduce per-chunk sequentially, then combine in index order"
                            ),
                        ));
                        break;
                    }
                    _ => {}
                }
                j += 1;
                steps += 1;
            }
        }
        out
    }
}

/// Attach waivers to findings. A valid waiver (known rule + reason) marks a
/// finding waived when it sits on the finding's own lines or directly above
/// them — a contiguous block of waiver comment lines counts as one position,
/// so several rules can be waived for the same site, stacked. Waivers
/// without a reason or naming an unknown rule suppress nothing and are
/// reported as `waiver_without_reason`.
pub fn apply_waivers(findings: &mut Vec<Finding>, files: &[&SourceFile]) {
    for f in findings.iter_mut() {
        let Some(sf) = files.iter().find(|s| s.path == f.file) else {
            continue;
        };
        // Charge- and metric-site findings may span multiple lines;
        // everything else is single-line.
        let span_end = sf
            .charges
            .iter()
            .find(|c| c.line == f.line)
            .map(|c| c.end_line)
            .or_else(|| {
                sf.metrics
                    .iter()
                    .find(|m| m.line == f.line)
                    .map(|m| m.end_line)
            })
            .unwrap_or(f.line);
        let waiver_lines: BTreeSet<u32> = sf.waivers.iter().map(|w| w.line).collect();
        for w in &sf.waivers {
            if w.rule != f.rule || w.reason.is_none() {
                continue;
            }
            // Extend through a contiguous stack of waiver lines below this
            // one, then require adjacency to the finding.
            let mut eff = w.line;
            while waiver_lines.contains(&(eff + 1)) {
                eff += 1;
            }
            if eff + 1 >= f.line && w.line <= span_end {
                f.waived = true;
                f.waiver_reason = w.reason.clone();
                break;
            }
        }
    }
    for sf in files {
        for w in &sf.waivers {
            if w.reason.is_some() && RULE_IDS.contains(&w.rule.as_str()) {
                continue;
            }
            let msg = if RULE_IDS.contains(&w.rule.as_str()) {
                format!(
                    "waiver `lint:allow({})` has no reason; write `lint:allow({}): <why this site is exempt>`",
                    w.rule, w.rule
                )
            } else {
                format!(
                    "waiver names unknown rule `{}`; known rules: {}",
                    w.rule,
                    RULE_IDS.join(", ")
                )
            };
            findings.push(Finding::new("waiver_without_reason", &sf.path, w.line, msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiline_charge_site_is_found_with_phase() {
        let src = "fn go(dev: &Device) {\n    dev.charge_kernel(\n        \"hist_gmem\",\n        Phase::Histogram,\n        &cost,\n    );\n}\n";
        let sf = SourceFile::parse("x.rs", src);
        assert_eq!(sf.charges.len(), 1);
        let c = &sf.charges[0];
        assert_eq!(c.names, vec!["hist_gmem"]);
        assert_eq!(c.phase.as_deref(), Some("Histogram"));
        assert_eq!(c.line, 2);
        assert_eq!(c.end_line, 6);
        assert!(!c.is_ns);
    }

    #[test]
    fn charge_site_in_comment_or_string_is_not_a_site() {
        let src = r####"
fn a() {
    // dev.charge_kernel("ghost", Phase::Other, &c);
    /* dev.charge_kernel("ghost2", Phase::Other, &c); */
    let doc = r#"charge_kernel("ghost3", Phase::Other)"#;
    let s = "charge_kernel(\"ghost4\", ...)";
}
"####;
        let sf = SourceFile::parse("x.rs", src);
        assert!(sf.charges.is_empty());
    }

    #[test]
    fn local_binding_resolves_both_branch_names() {
        let src = "fn h(ctx: &Ctx) {\n    let name = if ctx.packed { \"hist_gmem_packed\" } else { \"hist_gmem\" };\n    ctx.device.charge_kernel(name, Phase::Histogram, &c);\n}\n";
        let sf = SourceFile::parse("x.rs", src);
        assert_eq!(sf.charges.len(), 1);
        assert_eq!(sf.charges[0].names, vec!["hist_gmem", "hist_gmem_packed"]);
    }

    #[test]
    fn parameter_fed_charge_is_dynamic() {
        let src = "fn prim(dev: &Device, name: &'static str) {\n    dev.charge_kernel(name, Phase::Other, &c);\n}\n";
        let sf = SourceFile::parse("x.rs", src);
        assert_eq!(sf.charges.len(), 1);
        assert!(sf.charges[0].names.is_empty());
    }

    #[test]
    fn cfg_test_sites_are_masked() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(dev: &Device) { dev.charge_kernel(\"k\", Phase::Other, &c); }\n}\nfn real(dev: &Device) { dev.charge_ns(\"dtoh\", Phase::Transfer, 1.0); }\n";
        let sf = SourceFile::parse("x.rs", src);
        let live: Vec<_> = sf.charges.iter().filter(|c| !c.is_test).collect();
        assert_eq!(live.len(), 1);
        assert!(live[0].is_ns);
        assert_eq!(live[0].names, vec!["dtoh"]);
        assert_eq!(sf.charges.len(), 2);
        assert!(sf.charges.iter().any(|c| c.is_test));
    }

    #[test]
    fn fn_table_tracks_prof_trace_and_calls() {
        let src = "fn outer(d: &Device) {\n    let _s = d.prof_scope(\"round\", None);\n    inner(d);\n}\nfn inner(d: &Device) {\n    d.charge_kernel(\"k_one\", Phase::Sketch, &c);\n    trace_k_one(d);\n}\n";
        let sf = SourceFile::parse("x.rs", src);
        let outer = sf.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = sf.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.opens_prof);
        assert!(outer.calls.contains("inner"));
        assert!(inner.has_charge);
        assert!(inner.has_trace);
    }

    #[test]
    fn scope_literals_collected_outside_tests() {
        let src = "fn tr(san: &Sanitizer) {\n    let s = san.scope(\"hist_subtract\");\n    s.touch(0);\n}\n#[cfg(test)]\nmod t { fn x(san: &Sanitizer) { san.scope(\"test_only\"); } }\n";
        let sf = SourceFile::parse("x.rs", src);
        assert!(sf.scope_names.contains("hist_subtract"));
        assert!(!sf.scope_names.contains("test_only"));
    }

    #[test]
    fn waiver_parsing_reason_and_reasonless() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(sanitize): replay declared in trace module\n    // lint:allow(unwrap_in_lib)\n    x.unwrap()\n}\n";
        let sf = SourceFile::parse("x.rs", src);
        assert_eq!(sf.waivers.len(), 2);
        assert_eq!(sf.waivers[0].rule, "sanitize");
        assert_eq!(
            sf.waivers[0].reason.as_deref(),
            Some("replay declared in trace module")
        );
        assert_eq!(sf.waivers[1].rule, "unwrap_in_lib");
        assert!(sf.waivers[1].reason.is_none());
    }

    #[test]
    fn reasonless_waiver_does_not_suppress_and_is_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint:allow(unwrap_in_lib)\n}\n";
        let sf = SourceFile::parse("lib.rs", src);
        let mut findings = sf.style_findings();
        apply_waivers(&mut findings, &[&sf]);
        assert!(findings
            .iter()
            .any(|f| f.rule == "unwrap_in_lib" && !f.waived));
        assert!(findings.iter().any(|f| f.rule == "waiver_without_reason"));
    }

    #[test]
    fn reasoned_waiver_suppresses_but_is_reported() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(unwrap_in_lib): invariant, x checked by caller\n    x.unwrap()\n}\n";
        let sf = SourceFile::parse("lib.rs", src);
        let mut findings = sf.style_findings();
        apply_waivers(&mut findings, &[&sf]);
        let f = findings.iter().find(|f| f.rule == "unwrap_in_lib").unwrap();
        assert!(f.waived);
        assert_eq!(
            f.waiver_reason.as_deref(),
            Some("invariant, x checked by caller")
        );
        assert!(!findings.iter().any(|f| f.rule == "waiver_without_reason"));
    }

    #[test]
    fn stacked_waivers_cover_one_site() {
        let src = "fn f(g: &Grid, x: Option<u32>) -> u32 {\n    // lint:allow(uncharged_launch): combinator, caller charges\n    // lint:allow(unwrap_in_lib): invariant, x checked by caller\n    g.run_blocks(|b| b); x.unwrap()\n}\n";
        let sf = SourceFile::parse("lib.rs", src);
        let mut findings = sf.style_findings();
        apply_waivers(&mut findings, &[&sf]);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.waived), "{findings:?}");
    }

    #[test]
    fn hashmap_hazard_fires_outside_tests_only() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, f32>) {}\n#[cfg(test)]\nmod t { use std::collections::HashMap; }\n";
        let sf = SourceFile::parse("x.rs", src);
        let h = sf.hazard_findings();
        assert_eq!(
            h.iter().filter(|f| f.rule == "hashmap_iteration").count(),
            2
        );
    }

    #[test]
    fn par_sum_fires_but_inner_sequential_sum_does_not() {
        let bad = "fn f(v: &[f32]) -> f32 { v.par_iter().map(|x| x * 0.5).sum() }\n";
        let good = "fn g(v: &[Vec<f32>]) -> Vec<f32> { v.par_iter().map(|r| r.iter().sum::<f32>()).collect() }\n";
        let b = SourceFile::parse("b.rs", bad).hazard_findings();
        assert_eq!(
            b.iter()
                .filter(|f| f.rule == "unordered_float_reduce")
                .count(),
            1
        );
        let g = SourceFile::parse("g.rs", good).hazard_findings();
        assert!(g.iter().all(|f| f.rule != "unordered_float_reduce"));
    }

    #[test]
    fn par_for_each_is_fine() {
        let src = "fn f(v: &mut [f32]) { v.par_iter_mut().for_each(|x| *x += 1.0); }\n";
        let h = SourceFile::parse("x.rs", src).hazard_findings();
        assert!(h.is_empty());
    }

    #[test]
    fn uncharged_launch_flags_only_uncharged_fns() {
        let src = "fn bad(g: &Grid) { g.run_blocks(|b| {}); }\nfn good(g: &Grid, d: &Device) { g.run_blocks(|b| {}); d.charge_kernel(\"k_two\", Phase::Other, &c); }\n";
        let sf = SourceFile::parse("x.rs", src);
        let s = sf.style_findings();
        assert_eq!(s.iter().filter(|f| f.rule == "uncharged_launch").count(), 1);
        assert_eq!(s[0].line, 1);
    }
}
