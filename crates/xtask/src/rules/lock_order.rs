//! R8 `lock_order` — locks acquire in one declared order; SeqCst is an
//! inventoried privilege.
//!
//! `xtask.toml` declares the workspace lock acquisition order
//! (`[lock_order] order = [...]`, outermost first) over *named* locks —
//! struct fields or bindings like `service` and `cache`. Within one
//! function, acquiring a lock that sorts earlier in the order while a
//! later one was acquired above it is flagged: that is the shape every
//! AB/BA deadlock starts as, and the chaos tests only sample it while
//! this rule sees every path. The scan is lexical (an acquisition
//! earlier in the function body is treated as potentially still held),
//! so a re-acquire after a provable drop takes the escape hatch with the
//! proof in the reason.
//!
//! The same section's `seqcst_files` allowlist confines
//! `Ordering::SeqCst` to named files: a SeqCst anywhere else is an
//! *escalation* — it changes the whole crate's synchronization cost
//! profile — and is flagged even when `seqcst_justify`'s comment is
//! present.

use super::{Diagnostic, FileCtx, Rule};
use crate::source::line_has_token;

/// Runs the rule over one file.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    check_acquisition_order(ctx, out);
    check_seqcst_escalation(ctx, out);
}

fn check_acquisition_order(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let order = &ctx.config.lock_order;
    if order.is_empty() {
        return;
    }
    let rank_of = |name: &str| order.iter().position(|o| o == name);
    for (fn_name, start, end) in &ctx.file.fn_spans {
        // (rank, line idx, lock name) acquisitions in body order.
        let mut held: Vec<(usize, usize, String)> = Vec::new();
        // The last non-blank code line above `i`: where rustfmt leaves
        // the receiver of a `.lock()` it wraps onto its own line.
        let mut prev = "";
        for i in *start..=(*end).min(ctx.file.code.len().saturating_sub(1)) {
            let code = ctx.file.code[i].as_str();
            let names = if ctx.testish(i) {
                Vec::new()
            } else {
                lock_acquisitions(code, prev)
            };
            if !code.trim().is_empty() {
                prev = code;
            }
            for name in names {
                let Some(rank) = rank_of(&name) else {
                    continue;
                };
                if let Some((prev_rank, prev_line, prev_name)) =
                    held.iter().find(|(r, _, _)| *r > rank)
                {
                    ctx.emit(
                        out,
                        Rule::LockOrder,
                        i,
                        format!(
                            "`{name}` (order #{rank}) acquired after `{prev_name}` \
                             (order #{prev_rank}, line {prev_line}) in `{fn_name}`: \
                             the declared order in xtask.toml is outermost-first; \
                             reorder the acquisitions or prove the earlier guard is \
                             dropped and add `// lint: allow(lock_order) — <proof>`",
                            prev_line = prev_line + 1,
                        ),
                    );
                }
                held.push((rank, i, name));
            }
        }
    }
}

fn check_seqcst_escalation(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let rel = ctx.rel.to_string_lossy().replace('\\', "/");
    if ctx
        .config
        .seqcst_files
        .iter()
        .any(|f| rel.ends_with(f.as_str()))
    {
        return;
    }
    for (i, code) in ctx.file.code.iter().enumerate() {
        if ctx.testish(i) {
            continue;
        }
        if line_has_token(code, "SeqCst") {
            ctx.emit(
                out,
                Rule::LockOrder,
                i,
                "`SeqCst` escalation: this file is not in the `seqcst_files` \
                 allowlist in xtask.toml — relax the ordering, or add the file \
                 to the inventory alongside its justification"
                    .to_string(),
            );
        }
    }
}

/// Extracts the receiver names of `.lock()` / `.read()` / `.write()`
/// calls on a code line: the last path segment before the method, so
/// `self.cache.lock()` yields `cache`. A call that begins the line (a
/// chain rustfmt wrapped) takes the last identifier of `prev`, the code
/// line above it.
fn lock_acquisitions(code: &str, prev: &str) -> Vec<String> {
    let mut hits: Vec<(usize, String)> = Vec::new();
    for method in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(method) {
            let at = from + pos;
            let before = match code[..at].trim() {
                "" => prev,
                _ => &code[..at],
            };
            let recv: String = before
                .trim_end()
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if !recv.is_empty() {
                hits.push((at, recv));
            }
            from = at + method.len();
        }
    }
    hits.sort_by_key(|(at, _)| *at);
    hits.into_iter().map(|(_, name)| name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_receiver_names() {
        assert_eq!(
            lock_acquisitions("let g = self.cache.lock();", ""),
            ["cache"]
        );
        assert_eq!(
            lock_acquisitions("service.read(); self.cache.lock();", ""),
            ["service", "cache"]
        );
        assert!(lock_acquisitions("file.read_to_string(&mut s)", "").is_empty());
    }

    #[test]
    fn wrapped_call_takes_receiver_from_line_above() {
        let src = "self.completions\n    .lock()";
        let (prev, code) = src.split_once('\n').unwrap();
        assert_eq!(lock_acquisitions(code, prev), ["completions"]);
        // A receiver on the call's own line wins over the line above.
        assert_eq!(lock_acquisitions("    cache.lock()", "service"), ["cache"]);
        // A call on a call result names no lock, wrapped or not.
        assert!(lock_acquisitions("    .get().lock()", "service").is_empty());
    }
}
