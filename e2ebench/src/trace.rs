//! In-memory spans: name, start, end, parent and request id, written
//! out as JSON lines when the run ends. A span's self time is its
//! duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const ROOT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// A disabled tracer reads no clock and keeps no spans; running the
    /// same code with one prices tracing itself.
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        if self.enabled {
            let t = self.now();
            self.spans[id as usize].end_ns = t;
        }
    }

    /// Rename an open or closed span (a no-op when disabled).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        if self.enabled {
            self.spans[id as usize].name = name;
        }
    }

    /// Duration of a closed span, ns (0 when disabled).
    pub fn duration_ns(&self, id: u32) -> u64 {
        if self.enabled {
            let s = &self.spans[id as usize];
            s.end_ns - s.start_ns
        } else {
            0
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = std::hint::black_box(f());
        self.end(id);
        r
    }

    /// Self time of every span, in ns.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: (count, mean duration µs, mean self time µs).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let selfs = self.self_times();
        let mut acc: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        acc.into_iter()
            .map(|(k, (n, d, own))| {
                (
                    k,
                    (n, d as f64 / n as f64 / 1e3, own as f64 / n as f64 / 1e3),
                )
            })
            .collect()
    }

    /// Mean duration in µs of the spans named `name` (0 when none ran).
    pub fn mean_us(&self, name: &str) -> (f64, usize) {
        let (mut n, mut total) = (0usize, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            n += 1;
            total += s.end_ns - s.start_ns;
        }
        if n == 0 {
            (0.0, 0)
        } else {
            (total as f64 / n as f64 / 1e3, n)
        }
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times();
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans.push(Span {
            name: "root",
            start_ns: 0,
            end_ns: 100,
            parent: ROOT,
            req: 0,
        });
        t.spans.push(Span {
            name: "a",
            start_ns: 10,
            end_ns: 40,
            parent: 0,
            req: 0,
        });
        t.spans.push(Span {
            name: "b",
            start_ns: 30,
            end_ns: 50,
            parent: 0,
            req: 0,
        });
        assert_eq!(t.self_times(), vec![60, 30, 20]);
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_keeps_nothing() {
        let mut t = Tracer::off();
        let root = t.begin("root", ROOT, 0);
        assert_eq!(t.span("a", root, 0, || 7), 7);
        t.rename(root, "renamed");
        t.end(root);
        assert!(t.spans.is_empty());
        assert_eq!(t.duration_ns(root), 0);
    }
}
