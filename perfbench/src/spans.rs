//! Traced runs: the benchmark's own spans around each public call (one id
//! per request or step, in `dims[0..2]`) plus the spans the crates already
//! record, kept in memory and turned into the per-layer self-time table and
//! a validated Chrome trace.

use std::collections::BTreeMap;
use std::path::Path;

use mtlsplit_obs::{self as obs, SpanKind, SpanRecord};

/// Stop draining this long before a traced window ends, so the span rings
/// still hold the window's last requests for the Chrome trace.
pub const FINAL_UNDRAINED_NS: u64 = 30_000_000;

/// Opens a benchmark span tagged with the request or step id it belongs
/// to. Inert while tracing is off.
pub fn bench_span(name: &'static str, id: u64) -> obs::Span {
    obs::span_dims(name, SpanKind::Custom, [id as u32, (id >> 32) as u32, 0, 0])
}

/// The pass a layer span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// Planned inference (under an `infer` plan span).
    Infer,
    /// Training forward.
    TrainFwd,
    /// Training backward.
    Backward,
}

impl Pass {
    /// The pass's name in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Pass::Infer => "infer",
            Pass::TrainFwd => "train_fwd",
            Pass::Backward => "backward",
        }
    }
}

/// Spans collected from every thread's ring, by thread ordinal.
#[derive(Default)]
pub struct SpanStore {
    threads: BTreeMap<u64, Vec<SpanRecord>>,
    /// Spans overwritten in a ring before a drain reached them.
    pub dropped: u64,
}

impl SpanStore {
    /// Moves every recorded span out of the rings into the store. Kernel
    /// spans are not kept: the table needs layers and their parents only.
    /// A span that closes between the export and the reset is lost.
    pub fn drain(&mut self) {
        for thread in obs::export() {
            self.dropped += thread.dropped;
            self.threads.entry(thread.thread_ord).or_default().extend(
                thread
                    .spans
                    .into_iter()
                    .filter(|span| span.kind != SpanKind::Kernel),
            );
        }
        obs::reset();
    }

    /// Self time of every layer span — its duration minus the layer spans
    /// nested directly inside it — summed by `(layer name, pass)`, in ns.
    pub fn layer_self_ns(&self) -> BTreeMap<(&'static str, Pass), u64> {
        let mut table = BTreeMap::new();
        for spans in self.threads.values() {
            for (span, pass, self_ns) in classify_layers(spans) {
                *table.entry((span.name, pass)).or_insert(0) += self_ns;
            }
        }
        table
    }
}

/// Resolves the nesting of one thread's spans and yields each layer span
/// with its pass and self time.
///
/// Inference layers sit under an `infer` plan span. Training layers run
/// outside any plan span, so their pass is read from the order the layers
/// of one container ran in: a forward pass visits layer indices upwards, a
/// backward pass downwards. A lone span whose direction cannot be told is
/// counted as forward. A drain can lose a span (see [`SpanStore::drain`]);
/// layers orphaned that way on an inference thread still count as
/// inference.
fn classify_layers(spans: &[SpanRecord]) -> Vec<(SpanRecord, Pass, u64)> {
    let mut order: Vec<SpanRecord> = spans.to_vec();
    order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut parent: Vec<Option<usize>> = vec![None; order.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, span) in order.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if order[top].start_ns <= span.start_ns && span.end_ns <= order[top].end_ns {
                break;
            }
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }
    let is_layer = |i: usize| order[i].kind == SpanKind::Layer;
    let mut child_layer_ns = vec![0u64; order.len()];
    for i in 0..order.len() {
        if let Some(p) = parent[i].filter(|&p| is_layer(i) && is_layer(p)) {
            child_layer_ns[p] += order[i].duration_ns();
        }
    }
    // Pass of every layer span; `None` for top-level training layers until
    // the direction pass below resolves them.
    let mut pass: Vec<Option<Pass>> = vec![None; order.len()];
    let mut top_level: Vec<usize> = Vec::new();
    for i in (0..order.len()).filter(|&i| is_layer(i)) {
        let mut ancestor = parent[i];
        while let Some(a) = ancestor {
            if is_layer(a) {
                pass[i] = pass[a];
                break;
            }
            if order[a].kind == SpanKind::Plan {
                pass[i] = match order[a].name {
                    "infer" => Some(Pass::Infer),
                    "backward" => Some(Pass::Backward),
                    _ => Some(Pass::TrainFwd),
                };
                break;
            }
            ancestor = parent[a];
        }
        if ancestor.is_none() {
            top_level.push(i);
        }
    }
    // A layer span whose plan span was lost to a drain race sits at the
    // top level too. Threads that run inference plans run no training, so
    // their top-level layers are inference.
    let infers = order
        .iter()
        .any(|s| s.kind == SpanKind::Plan && s.name == "infer");
    if infers {
        for &i in &top_level {
            pass[i] = Some(Pass::Infer);
        }
        top_level.clear();
    }
    let index = |i: usize| order[i].dims[0];
    let mut start = 0;
    while start < top_level.len() {
        let mut end = start + 1;
        let direction = top_level
            .get(end)
            .map(|&next| index(next).cmp(&index(top_level[start])));
        let run_pass = match direction {
            Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Less) => {
                let direction = direction.expect("matched Some");
                while end < top_level.len()
                    && index(top_level[end]).cmp(&index(top_level[end - 1])) == direction
                {
                    end += 1;
                }
                if direction == std::cmp::Ordering::Greater {
                    Pass::TrainFwd
                } else {
                    Pass::Backward
                }
            }
            _ => Pass::TrainFwd,
        };
        for &i in &top_level[start..end] {
            pass[i] = Some(run_pass);
        }
        start = end;
    }
    // Nested layers of a top-level training layer inherit its pass.
    for i in 0..order.len() {
        if pass[i].is_none() && is_layer(i) {
            let mut ancestor = parent[i];
            while let Some(a) = ancestor {
                if pass[a].is_some() {
                    pass[i] = pass[a];
                    break;
                }
                ancestor = parent[a];
            }
        }
    }
    (0..order.len())
        .filter(|&i| is_layer(i))
        .map(|i| {
            (
                order[i],
                pass[i].unwrap_or(Pass::TrainFwd),
                order[i].duration_ns().saturating_sub(child_layer_ns[i]),
            )
        })
        .collect()
}

/// Renders the spans still in the rings as a Chrome trace, validates it
/// with `obs::validate_chrome_trace` and writes it to `path` if given.
/// Returns a one-line summary.
///
/// # Errors
///
/// An invalid trace or a failed write.
pub fn export_chrome_trace(path: Option<&Path>) -> Result<String, String> {
    let json = obs::chrome_trace_json();
    let summary = obs::validate_chrome_trace(&json)?;
    if let Some(path) = path {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(format!(
        "{} events over {} threads, {} us",
        summary.events, summary.threads, summary.duration_us
    ))
}

/// Sets the `layer.*` metrics from a traced window of `ops` operations
/// and notes layers outside the registered types.
pub fn report_layers(report: &mut crate::metrics::Report, store: &SpanStore, ops: u64) {
    let mut unregistered = Vec::new();
    for ((name, pass), self_ns) in store.layer_self_ns() {
        let per_op_ms = self_ns as f64 / ops.max(1) as f64 / 1e6;
        if crate::metrics::LAYER_TYPES.contains(&name) {
            report.set(&crate::metrics::layer_metric(name, pass.label()), per_op_ms);
        } else {
            unregistered.push(format!("{name}.{}={per_op_ms:.6}ms", pass.label()));
        }
    }
    if !unregistered.is_empty() {
        report.note("unregistered_layers", unregistered.join(" "));
    }
    report.note("trace_spans_dropped", store.dropped.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, kind: SpanKind, index: u32, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id: start,
            name,
            kind,
            start_ns: start,
            end_ns: end,
            depth: 0,
            dims: [index, 1, 0, 0],
        }
    }

    #[test]
    fn training_layers_split_into_forward_and_backward_runs() {
        // A three-layer net: forward 0,1,2 then backward 2,1,0, under a
        // step span.
        let spans = vec![
            span("bench.train_step", SpanKind::Custom, 0, 0, 100),
            span("Linear", SpanKind::Layer, 0, 1, 5),
            span("Relu", SpanKind::Layer, 1, 6, 8),
            span("Linear", SpanKind::Layer, 2, 9, 12),
            span("Linear", SpanKind::Layer, 2, 13, 20),
            span("Relu", SpanKind::Layer, 1, 21, 22),
            span("Linear", SpanKind::Layer, 0, 23, 30),
        ];
        let passes: Vec<(u64, Pass, u64)> = classify_layers(&spans)
            .iter()
            .map(|(s, p, ns)| (s.start_ns, *p, *ns))
            .collect();
        assert_eq!(
            passes,
            vec![
                (1, Pass::TrainFwd, 4),
                (6, Pass::TrainFwd, 2),
                (9, Pass::TrainFwd, 3),
                (13, Pass::Backward, 7),
                (21, Pass::Backward, 1),
                (23, Pass::Backward, 7),
            ]
        );
    }

    #[test]
    fn layers_on_an_inference_thread_are_inference_even_when_orphaned() {
        // The second layer's plan span was lost to a drain race.
        let spans = vec![
            span("infer", SpanKind::Plan, 0, 0, 10),
            span("Linear", SpanKind::Layer, 0, 1, 9),
            span("Linear", SpanKind::Layer, 0, 21, 29),
            span("Relu", SpanKind::Layer, 1, 30, 31),
        ];
        assert!(classify_layers(&spans)
            .iter()
            .all(|(_, pass, _)| *pass == Pass::Infer));
    }

    #[test]
    fn self_time_excludes_nested_layers() {
        let spans = vec![
            span("infer", SpanKind::Plan, 0, 0, 100),
            span("Sequential", SpanKind::Layer, 0, 1, 51),
            span("Linear", SpanKind::Layer, 0, 2, 22),
            span("Relu", SpanKind::Layer, 1, 23, 33),
        ];
        let classified = classify_layers(&spans);
        assert_eq!(classified[0].0.name, "Sequential");
        assert_eq!(classified[0].2, 50 - 30);
        assert!(classified.iter().all(|(_, p, _)| *p == Pass::Infer));
    }
}
