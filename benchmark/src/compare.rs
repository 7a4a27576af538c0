//! `compare A B`: two sets of saved runs, side by side.
//!
//! `A` and `B` are files or directories of files holding the standard
//! output of benchmark runs (one run or several concatenated). Each result
//! line is matched with the metadata line before it. For every workload and
//! metric the report gives each side's median and quartiles and the share
//! of pairs (the i-th run of A against the i-th run of B, in file order) B
//! won, and labels each end-to-end metric by its bound in BENCHMARK.json:
//!
//! * `improved`: B wins at least 90% of pairs and the medians differ by
//!   more than A's quartile spread;
//! * `unresolved`: a side's quartile spread exceeds the bound, unless every
//!   run of B is better than every run of A;
//! * `worse`: B's median is worse than A's by more than the bound;
//! * `unchanged`: otherwise.
//!
//! `agree` says whether the medians lie within the bound of each other.
//! The exit code is nonzero when any metric is `worse`; with `--same`, for
//! two sets of runs of one commit, also when any medians disagree.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

struct Bound {
    higher_is_better: bool,
    bound: f64,
}

/// Runs of one side, by (workload, traced), each a metric → value map.
type Side = BTreeMap<(String, bool), Vec<BTreeMap<String, f64>>>;

fn files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut out: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    out.sort();
    Ok(out)
}

fn load(path: &Path) -> Result<Side, String> {
    let mut side = Side::new();
    for file in files(path)? {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let mut meta: Option<(String, bool)> = None;
        for line in text.lines().filter(|l| l.starts_with('{')) {
            let Ok(v) = json::parse(line) else { continue };
            if let Some(m) = v.get("meta") {
                let workload = m.get("workload").and_then(Json::as_str).unwrap_or_default();
                let traced = m.get("trace").and_then(Json::as_f64) == Some(1.0);
                meta = Some((workload.to_string(), traced));
            } else if let (Some(metrics), Some(key)) = (v.get("metrics"), meta.take()) {
                let values = metrics
                    .as_obj()
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect();
                side.entry(key).or_default().push(values);
            }
        }
    }
    if side.is_empty() {
        return Err(format!("{}: no result lines found", path.display()));
    }
    Ok(side)
}

fn bounds(spec: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    Ok(v.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let higher_is_better = m.get("better")?.as_str()? == "higher";
            Some((name, Bound { higher_is_better, bound: m.get("bound")?.as_f64()? }))
        })
        .collect())
}

/// `x` to four significant digits, for the table.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 { 0 } else { 3 - x.abs().log10().floor() as i32 };
    format!("{x:.*}", digits.max(0) as usize)
}

/// The label, the agreement, and B's share of pairs won for one metric
/// (see the module docs).
fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (&'static str, bool, f64) {
    let (ma, mb) = (median(a), median(b));
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = |q: [f64; 3], m: f64| (q[2] - q[0]) / m.abs().max(f64::MIN_POSITIVE);
    let worse_by =
        if bound.higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let label =
        if pairs > 0 && wins * 10 >= pairs * 9 && better(mb, ma) && (mb - ma).abs() > qa[2] - qa[0]
        {
            "improved"
        } else if spread(qa, ma) > bound.bound || spread(qb, mb) > bound.bound {
            if all_better {
                "unchanged"
            } else {
                "unresolved"
            }
        } else if worse_by > bound.bound {
            "worse"
        } else {
            "unchanged"
        };
    let agree = (ma - mb).abs() <= bound.bound * mb.abs();
    (label, agree, wins as f64 / pairs.max(1) as f64)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut same = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--same" => same = true,
            "--spec" => match it.next() {
                Some(p) => spec = PathBuf::from(p),
                None => {
                    eprintln!("--spec needs a path");
                    return ExitCode::from(2);
                }
            },
            _ => paths.push(PathBuf::from(a)),
        }
    }
    let [a, b] = paths.as_slice() else {
        eprintln!("usage: compare A B [--same] [--spec BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let loaded = (|| Ok::<_, String>((load(a)?, load(b)?, bounds(&spec)?)))();
    let (side_a, side_b, bounds) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (mut worse, mut disagree) = (0usize, 0usize);
    println!(
        "{:<22} {:<36} {:>28} {:>28} {:>6} {:<10} agree",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "label"
    );
    for (key, runs_a) in &side_a {
        let Some(runs_b) = side_b.get(key) else {
            println!("{}{}: only in A", key.0, if key.1 { " (traced)" } else { "" });
            continue;
        };
        let names: Vec<&String> = runs_a[0].keys().collect();
        for name in names {
            let col = |runs: &[BTreeMap<String, f64>]| {
                runs.iter().filter_map(|r| r.get(name).copied()).collect::<Vec<f64>>()
            };
            let (va, vb) = (col(runs_a), col(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let show = |v: &[f64]| {
                let q = quartiles(v);
                format!("{} [{}, {}]", sig(median(v)), sig(q[0]), sig(q[2]))
            };
            let (label, agree, wins) = match bounds.get(name) {
                Some(bound) => {
                    let (label, agree, wins) = judge(&va, &vb, bound);
                    worse += usize::from(label == "worse");
                    disagree += usize::from(!agree);
                    (label, if agree { "yes" } else { "no" }, format!("{:.0}%", 100.0 * wins))
                }
                None => ("-", "-", "-".to_string()),
            };
            let workload = format!("{}{}", key.0, if key.1 { " (traced)" } else { "" });
            println!(
                "{workload:<22} {name:<36} {:>28} {:>28} {wins:>6} {label:<10} {agree}",
                show(&va),
                show(&vb)
            );
        }
    }
    println!("{worse} end-to-end metric(s) worse; {disagree} pair(s) of medians apart by more than the bound");
    if worse > 0 || (same && disagree > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_labels_by_bound_and_pairs() {
        let lower = Bound { higher_is_better: false, bound: 0.10 };
        let a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(&a, &a, &lower), ("unchanged", true, 0.0));
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&a, &faster, &lower), ("improved", false, 1.0));
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&a, &slower, &lower), ("worse", false, 0.0));
        let noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 10.0, 10.0];
        assert_eq!(judge(&a, &noisy, &lower).0, "unresolved");
        let higher = Bound { higher_is_better: true, bound: 0.10 };
        assert_eq!(judge(&a, &faster, &higher).0, "worse");
    }

    #[test]
    fn sig_keeps_four_significant_digits() {
        assert_eq!(sig(39830.359), "39830");
        assert_eq!(sig(1.03624), "1.036");
        assert_eq!(sig(0.0182), "0.01820");
        assert_eq!(sig(0.0), "0");
    }
}
