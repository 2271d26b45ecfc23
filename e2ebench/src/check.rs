//! Reply checks. Every reply must parse, be the type its request asks
//! for, carry the request's line (the query tag is `t<line>`), and
//! contain its query nodes. A deterministic sample of query replies, and
//! every fresh read, is kept for a deep check against an in-process
//! [`dmcs_engine::Session`] on the same epoch ([`compare`]).

use crate::loadgen::{Class, Kind, Op};
use dmcs_engine::output::Json;

/// Every `SAMPLE_EVERY`-th query reply of a class is deep-checked.
const SAMPLE_EVERY: usize = 64;
/// Rejected replies kept verbatim for the report.
const KEEP_REJECTS: usize = 5;

/// A reply kept for the deep check, with the daemon (round) and epoch it
/// answered against.
pub struct Sample {
    pub round: usize,
    pub version: u64,
    pub nodes: Vec<u64>,
    pub k: usize,
    pub reply: Json,
}

/// An acknowledged update, in acknowledgement order.
pub struct Applied {
    pub round: usize,
    pub version: u64,
    pub add: bool,
    pub u: u64,
    pub v: u64,
}

#[derive(Default)]
pub struct Checker {
    /// Which daemon process the replies come from (each round starts one).
    pub round: usize,
    pub checked: usize,
    /// Code-8 refusals (each also fails its op).
    pub overloaded: usize,
    pub rejects: Vec<String>,
    pub samples: Vec<Sample>,
    pub updates: Vec<Applied>,
    per_class: [usize; 5],
}

fn class_slot(c: Class) -> usize {
    match c {
        Class::Cold => 0,
        Class::Hot => 1,
        Class::Multi => 2,
        Class::TopK => 3,
        Class::Fresh => 4,
    }
}

fn get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing {key:?}"))
}

fn u64s(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    get(v, key)?
        .as_arr()
        .ok_or_else(|| format!("{key:?} is not an array"))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("{key:?} holds a non-id")))
        .collect()
}

fn sorted(nodes: &[u64]) -> Vec<u64> {
    let mut s = nodes.to_vec();
    s.sort_unstable();
    s
}

/// A community array must list distinct ids in ascending order, contain
/// every query node, and match its `size` member.
fn check_community(obj: &Json, nodes: &[u64]) -> Result<(), String> {
    let community = u64s(obj, "community")?;
    if community.windows(2).any(|w| w[0] >= w[1]) {
        return Err("community is not strictly ascending".into());
    }
    if let Some(q) = nodes.iter().find(|q| community.binary_search(q).is_err()) {
        return Err(format!("community lacks query node {q}"));
    }
    let size = get(obj, "size")?.as_u64().ok_or("size is not an integer")?;
    if size != community.len() as u64 {
        return Err(format!("size {size} but {} members", community.len()));
    }
    get(obj, "dm")?.as_f64().ok_or("dm is not a number")?;
    Ok(())
}

impl Checker {
    /// Check one reply to `op`, sent as line `line_no` of its connection.
    /// `pinned` is the connection's pinned snapshot version (updated by
    /// repin replies).
    pub fn check(
        &mut self,
        op: &Op,
        line_no: u64,
        line: &str,
        pinned: &mut u64,
    ) -> Result<(), String> {
        self.checked += 1;
        let reply = Json::parse(line).map_err(|e| format!("unparsable reply: {e}"))?;
        let ty = get(&reply, "type")?
            .as_str()
            .ok_or("type is not a string")?;
        if ty == "error" {
            if get(&reply, "code")?.as_u64() == Some(8) {
                self.overloaded += 1;
            }
            return Err("error reply".into());
        }
        match &op.kind {
            Kind::Query { nodes, k, class } => {
                let want = if *k > 0 { "topk" } else { "response" };
                if ty != want {
                    return Err(format!("type {ty:?}, expected {want:?}"));
                }
                let tag = get(&reply, "tag")?.as_str().ok_or("tag is not a string")?;
                if tag != format!("t{line_no}") {
                    return Err(format!("tag {tag:?} answers another line than {line_no}"));
                }
                if u64s(&reply, "query")? != sorted(nodes) {
                    return Err("query echo differs from the request".into());
                }
                if get(&reply, "ok")?.as_bool() != Some(true) {
                    return Err("ok is not true".into());
                }
                if *k > 0 {
                    if get(&reply, "k")?.as_u64() != Some(*k as u64) {
                        return Err("k echo differs from the request".into());
                    }
                    let rounds = get(&reply, "rounds")?
                        .as_arr()
                        .ok_or("rounds is not an array")?;
                    let first = rounds.first().ok_or("no top-k round")?;
                    check_community(first, nodes)?;
                } else {
                    check_community(&reply, nodes)?;
                }
                let slot = class_slot(*class);
                self.per_class[slot] += 1;
                if *class == Class::Fresh || self.per_class[slot] % SAMPLE_EVERY == 1 {
                    self.samples.push(Sample {
                        round: self.round,
                        version: *pinned,
                        nodes: nodes.clone(),
                        k: *k,
                        reply,
                    });
                }
            }
            Kind::Update { add, u, v } => {
                let action = if *add { "add" } else { "del" };
                if ty != "update" || get(&reply, "action")?.as_str() != Some(action) {
                    return Err(format!("expected an {action} update reply"));
                }
                if get(&reply, "u")?.as_u64() != Some(*u) || get(&reply, "v")?.as_u64() != Some(*v)
                {
                    return Err("update echo differs from the request".into());
                }
                let version = get(&reply, "version")?
                    .as_u64()
                    .ok_or("version is not an integer")?;
                self.updates.push(Applied {
                    round: self.round,
                    version,
                    add: *add,
                    u: *u,
                    v: *v,
                });
            }
            Kind::Repin => {
                if ty != "repin" {
                    return Err(format!("type {ty:?}, expected \"repin\""));
                }
                *pinned = get(&reply, "version")?
                    .as_u64()
                    .ok_or("version is not an integer")?;
            }
        }
        Ok(())
    }

    /// Keep the first few failed checks (or deep comparisons) for the report.
    pub fn reject(&mut self, what: impl std::fmt::Display, why: &str, line: &str) {
        if self.rejects.len() < KEEP_REJECTS {
            let mut line = line.to_string();
            line.truncate(200);
            self.rejects.push(format!("{what}: {why}: {line}"));
        }
    }
}

/// Deep check: the daemon's reply must carry exactly the community and
/// DM (every round for top-k) of `expected`, the same request answered
/// in process on the same epoch.
pub fn compare(reply: &Json, expected: &Json) -> Result<(), String> {
    fn same(a: &Json, b: &Json) -> Result<(), String> {
        for key in ["community", "dm", "size"] {
            if a.get(key) != b.get(key) {
                return Err(format!("{key} differs from the in-process answer"));
            }
        }
        Ok(())
    }
    match (reply.get("rounds"), expected.get("rounds")) {
        (Some(Json::Arr(a)), Some(Json::Arr(b))) => {
            if a.len() != b.len() {
                return Err("top-k round count differs from the in-process answer".into());
            }
            a.iter().zip(b).try_for_each(|(x, y)| same(x, y))
        }
        (None, None) => same(reply, expected),
        _ => Err("reply shape differs from the in-process answer".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcs_engine::output::response_json;
    use dmcs_engine::{AlgoSpec, QueryRequest, Session};
    use dmcs_graph::{GraphBuilder, Snapshot};

    /// A correct reply to `{"op":"query","nodes":[0],"tag":"t1"}` as the
    /// daemon would render it, and the matching op.
    fn good_reply() -> (Op, String) {
        let g =
            GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let mut session = Session::new(Snapshot::freeze(g), &AlgoSpec::new("fpa")).unwrap();
        let resp = session
            .query(&QueryRequest::new(vec![0]).with_tag("t1"))
            .unwrap();
        let op = Op::query(0, 0, vec![0], 0, Class::Cold);
        (op, response_json(&resp, None).render())
    }

    fn check(op: &Op, line: &str) -> Result<(), String> {
        Checker::default().check(op, 1, line, &mut 0)
    }

    #[test]
    fn accepts_a_correct_reply_and_its_deep_check() {
        let (op, line) = good_reply();
        assert_eq!(check(&op, &line), Ok(()));
        let reply = Json::parse(&line).unwrap();
        assert_eq!(compare(&reply, &reply), Ok(()));
    }

    #[test]
    fn rejects_corrupted_replies() {
        let (op, line) = good_reply();
        let corruptions = [
            line.replacen("\"tag\":\"t1\"", "\"tag\":\"t2\"", 1),
            line.replacen("\"type\":\"response\"", "\"type\":\"topk\"", 1),
            line.replacen("\"community\":[0,", "\"community\":[", 1),
            line.replacen("\"ok\":true", "\"ok\":false", 1),
            line[..line.len() - 1].to_string(),
        ];
        for bad in &corruptions {
            assert_ne!(&line, bad, "corruption must change the reply");
            assert!(check(&op, bad).is_err(), "accepted {bad}");
        }
        // A well-formed reply with another DM passes the shape check but
        // fails the deep check against the in-process answer.
        let reply = Json::parse(&line).unwrap();
        let dm = reply.get("dm").and_then(Json::as_f64).unwrap();
        let other = line.replacen(
            &format!("\"dm\":{dm}"),
            &format!("\"dm\":{}", dm + 0.125),
            1,
        );
        assert!(check(&op, &other).is_ok());
        assert!(compare(&Json::parse(&other).unwrap(), &reply).is_err());
    }

    #[test]
    fn counts_overload_refusals_as_failures() {
        let (op, _) = good_reply();
        let mut c = Checker::default();
        let refusal = r#"{"type":"error","line":1,"code":8,"error":"overloaded"}"#;
        assert!(c.check(&op, 1, refusal, &mut 0).is_err());
        assert_eq!(c.overloaded, 1);
    }
}
