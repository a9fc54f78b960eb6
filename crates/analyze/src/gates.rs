//! Declarative gates (`gates/*.toml`): one reduction of one source's rows,
//! compared with a threshold. A violation fails CI, as bench drift does.

use crate::primitives::{p99, runs, window_funnel, FunnelOutcome};
use crate::rows::{CmpOp, Counters, Pred, Row, Val, OPS};
use crate::toml::{parse_tables, TomlTable, TomlVal};
use crate::{by_name, name_of, Run};
use serde::Serialize;
use std::ops::Range;
use std::path::Path;

/// Which rows a gate reads (`rows.rs` says what each holds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    Report,
    Trace,
    Counters,
}

const SOURCES: [(&str, Source); 3] = [
    ("report", Source::Report),
    ("trace", Source::Trace),
    ("counters", Source::Counters),
];

/// How a gate folds its rows into the number it compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reduce {
    /// Column `of` on the last row.
    Last,
    /// The rows where `where` holds.
    Count,
    /// The longest maximal run of rows where `where` holds (0 if none).
    RunMax,
    /// The nearest-rank p99 of those runs' lengths (0 if none).
    RunP99,
    /// The funnel over `steps`: completed / entered, 1 if none entered.
    FunnelCompletion,
    /// The funnel's instances entered.
    FunnelEntered,
}

const REDUCES: [(&str, Reduce); 6] = [
    ("last", Reduce::Last),
    ("count", Reduce::Count),
    ("run_max", Reduce::RunMax),
    ("run_p99", Reduce::RunP99),
    ("funnel_completion", Reduce::FunnelCompletion),
    ("funnel_entered", Reduce::FunnelEntered),
];

impl Reduce {
    fn is_funnel(self) -> bool {
        matches!(self, Reduce::FunnelCompletion | Reduce::FunnelEntered)
    }

    /// The operand keys the reduction takes besides the common five.
    fn keys(self) -> &'static [&'static str] {
        match self {
            Reduce::Last => &["of"],
            Reduce::Count | Reduce::RunMax | Reduce::RunP99 => &["where"],
            Reduce::FunnelCompletion | Reduce::FunnelEntered => &["steps", "window"],
        }
    }
}

/// One parsed gate.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Unique across the loaded files.
    pub name: String,
    pub source: Source,
    reduce: Reduce,
    /// `last`: the column it reads.
    of: String,
    /// `count` / `run_*`: the rows that count (every row without `where`).
    filter: Pred,
    /// `funnel_*`: the ordered steps, and how far in row time the last
    /// may follow the first.
    steps: Vec<Pred>,
    window: u64,
    op: CmpOp,
    threshold: f64,
}

/// One gate's outcome — serialized into the machine-readable report.
#[derive(Clone, Debug, Serialize)]
pub struct GateResult {
    pub name: String,
    pub source: String,
    pub reduce: String,
    /// NaN when evaluation failed.
    pub actual: f64,
    pub op: String,
    pub threshold: f64,
    pub pass: bool,
    /// Row and run counts or the funnel's instances — or the error text
    /// when evaluation failed, which is always a failure.
    pub detail: String,
}

impl Gate {
    /// Parses one `[[gate]]` table. `origin` names the file for errors.
    fn from_table(table: &TomlTable, origin: &str) -> Result<Gate, String> {
        let Ok(Some(name)) = table.get_str("name") else {
            return Err(format!("{origin}: gate without a string `name`"));
        };
        let at = |msg: String| format!("{origin}: gate {name:?}: {msg}");
        let source = pick(table, "source", &SOURCES).map_err(&at)?;
        let reduce = pick(table, "reduce", &REDUCES).map_err(&at)?;
        let op = pick(table, "op", &OPS).map_err(&at)?;
        let keys = reduce.keys();
        let common = ["name", "source", "reduce", "op", "threshold"];
        let r = name_of(&REDUCES, reduce);
        let stray = |k: &&String| !common.contains(&k.as_str()) && !keys.contains(&k.as_str());
        if let Some(key) = table.entries.iter().map(|(k, _)| k).find(stray) {
            return Err(at(format!("`{key}` does not apply to reduce = {r:?}")));
        }
        if let Some(key) = keys
            .iter()
            .find(|&&k| k != "where" && table.get(k).is_none())
        {
            return Err(at(format!("reduce = {r:?} needs `{key}`")));
        }
        let pred = |text: &str| Pred::parse(text).map_err(|e| at(format!("{text:?}: {e}")));
        let of = table.get_str("of").map_err(&at)?.unwrap_or_default();
        let filter = table.get_str("where").map_err(&at)?;
        let filter = filter.map_or(Ok(Pred::default()), pred)?;
        let steps = match table.get("steps") {
            None => Vec::new(),
            Some(TomlVal::StrArr(texts)) if (1..=32).contains(&texts.len()) => {
                texts.iter().map(|t| pred(t)).collect::<Result<_, _>>()?
            }
            Some(_) => return Err(at("`steps` must be an array of 1..=32 predicates".into())),
        };
        let window = match table.get_num("window").map_err(&at)? {
            Some(w) if w < 0.0 || w.fract() != 0.0 => {
                return Err(at("`window` must be a non-negative integer".into()))
            }
            w => w.unwrap_or(0.0) as u64,
        };
        let threshold = table.get_num("threshold").map_err(&at)?;
        let threshold = threshold.ok_or_else(|| at("missing numeric threshold".into()))?;
        Ok(Gate {
            name: name.to_owned(),
            source,
            reduce,
            of: of.to_owned(),
            filter,
            steps,
            window,
            op,
            threshold,
        })
    }

    /// Evaluates the gate; an evaluation error (a missing artifact, an
    /// unknown column) is a failing result, never a silent pass.
    fn evaluate(&self, run: &Run) -> GateResult {
        let (actual, pass, detail) = match self.measure(run) {
            Ok((actual, detail)) => (actual, self.op.holds(actual, self.threshold), detail),
            Err(msg) => (f64::NAN, false, format!("evaluation failed: {msg}")),
        };
        GateResult {
            name: self.name.clone(),
            source: name_of(&SOURCES, self.source).to_owned(),
            reduce: name_of(&REDUCES, self.reduce).to_owned(),
            actual,
            op: self.op.symbol().to_owned(),
            threshold: self.threshold,
            pass,
            detail,
        }
    }

    fn measure(&self, run: &Run) -> Result<(f64, String), String> {
        let trace = run.trace.as_ref().ok_or("no trace artifact was given");
        match self.source {
            Source::Report => {
                let report = run.report.as_ref().ok_or("no report artifact was given")?;
                self.reduce_rows(&report.samples)
            }
            Source::Counters => self.reduce_rows(&[Counters(trace?)]),
            // Span timestamps restart on each track, so a trace funnel
            // runs per track and merges.
            Source::Trace if self.reduce.is_funnel() => {
                let trace = trace?;
                let mut merged = FunnelOutcome::default();
                for track in trace.track_names() {
                    merged.merge(self.funnel(trace.events.iter().filter(|e| e.track == track))?);
                }
                Ok(self.funnel_result(merged))
            }
            Source::Trace => self.reduce_rows(&trace?.events),
        }
    }

    fn reduce_rows<R: Row>(&self, rows: &[R]) -> Result<(f64, String), String> {
        let mask = || -> Result<Vec<bool>, String> {
            rows.iter().map(|row| self.filter.holds(row)).collect()
        };
        let over = format!("over {} row(s)", rows.len());
        Ok(match self.reduce {
            Reduce::Last => match rows.last().ok_or("last of zero rows")?.get(&self.of) {
                Some(Val::Num(x)) => (x, over),
                Some(Val::Str(s)) => return Err(format!("{:?} is the string {s:?}", self.of)),
                None => return Err(format!("unknown column {:?}", self.of)),
            },
            Reduce::Count => {
                let n = mask()?.into_iter().filter(|&on| on).count();
                (n as f64, format!("{n} of {} row(s)", rows.len()))
            }
            Reduce::RunMax | Reduce::RunP99 => {
                let lens: Vec<usize> = runs(&mask()?).iter().map(Range::len).collect();
                let actual = match self.reduce {
                    Reduce::RunMax => lens.iter().max().copied().unwrap_or(0),
                    _ => p99(&lens),
                };
                (actual as f64, format!("{} run(s) {over}", lens.len()))
            }
            Reduce::FunnelCompletion | Reduce::FunnelEntered => {
                self.funnel_result(self.funnel(rows.iter())?)
            }
        })
    }

    fn funnel<'r, R: Row + 'r>(
        &self,
        rows: impl Iterator<Item = &'r R>,
    ) -> Result<FunnelOutcome, String> {
        let mut events = Vec::new();
        for row in rows {
            let mut bits = 0u32;
            for (i, step) in self.steps.iter().enumerate() {
                bits |= u32::from(step.holds(row)?) << i;
            }
            events.push((row.ts(), bits));
        }
        Ok(window_funnel(&events, self.steps.len(), self.window))
    }

    fn funnel_result(&self, o: FunnelOutcome) -> (f64, String) {
        let (done, entered, deepest) = (o.completed, o.entered, o.deepest);
        let detail = format!("{done}/{entered} instance(s) completed, deepest step {deepest}");
        match self.reduce {
            Reduce::FunnelEntered => (entered as f64, detail),
            _ => (o.completion(), detail),
        }
    }
}

/// The value of `key`, one of the names in `names`.
fn pick<T: Copy>(table: &TomlTable, key: &str, names: &[(&str, T)]) -> Result<T, String> {
    let expected = names.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ");
    match table.get_str(key)? {
        Some(s) => by_name(names, s).ok_or_else(|| format!("unknown {key} {s:?} ({expected})")),
        None => Err(format!("missing {key} ({expected})")),
    }
}

/// Parses every `[[gate]]` in one gate-file text. `origin` names the file
/// for error messages. Tables not named `gate` are an error.
pub fn parse_gate_file(text: &str, origin: &str) -> Result<Vec<Gate>, String> {
    let tables = parse_tables(text).map_err(|e| format!("{origin}: {e}"))?;
    let mut gates = Vec::new();
    for (header, table) in &tables {
        if header != "gate" {
            return Err(format!(
                "{origin}: unexpected table [[{header}]] (only [[gate]] is allowed)"
            ));
        }
        gates.push(Gate::from_table(table, origin)?);
    }
    if gates.is_empty() {
        return Err(format!("{origin}: no [[gate]] tables"));
    }
    Ok(gates)
}

/// Loads the gates at `path`: one file, or every `*.toml` in a directory
/// in name order. A gate name may appear once across all of them.
pub fn load_gates(path: &Path) -> Result<Vec<Gate>, String> {
    let unreadable = |p: &Path, e: std::io::Error| format!("cannot read {}: {e}", p.display());
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| unreadable(path, e))? {
            let file = entry.map_err(|e| unreadable(path, e))?.path();
            if file.extension().is_some_and(|e| e == "toml") {
                files.push(file);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(format!("{}: no *.toml gate files found", path.display()));
        }
    } else {
        files.push(path.to_owned());
    }
    let mut gates: Vec<Gate> = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| unreadable(file, e))?;
        for gate in parse_gate_file(&text, &file.display().to_string())? {
            if gates.iter().any(|g| g.name == gate.name) {
                return Err(format!(
                    "duplicate gate name {:?} across gate files",
                    gate.name
                ));
            }
            gates.push(gate);
        }
    }
    Ok(gates)
}

/// Evaluates the gates in order.
pub fn evaluate_gates(gates: &[Gate], run: &Run) -> Vec<GateResult> {
    gates.iter().map(|gate| gate.evaluate(run)).collect()
}

/// Renders results as the human-readable table `repro analyze` prints.
/// Violations (and only violations) carry a `FAIL` marker plus their
/// detail line, so a failing CI log names every broken gate.
pub fn render_table(results: &[GateResult]) -> String {
    let name_w = results.iter().map(|r| r.name.len()).fold(4, usize::max);
    let row = |[a, b, c, d, e, f]: [&str; 6]| {
        format!("{a:<name_w$}  {b:<17}  {c:>12}  {d:^2}  {e:>12}  {f}\n")
    };
    let mut out = row(["gate", "reduce", "actual", "op", "threshold", "result"]);
    for r in results {
        let (actual, threshold) = (format_num(r.actual), format_num(r.threshold));
        let verdict = if r.pass { "ok" } else { "FAIL" };
        out += &row([&r.name, &r.reduce, &actual, &r.op, &threshold, verdict]);
        if !r.pass {
            out += &format!("{:<name_w$}    ^ {}\n", "", r.detail);
        }
    }
    let (n, failed) = (results.len(), results.iter().filter(|r| !r.pass).count());
    out + &format!("{n} gate(s): {} passed, {failed} failed\n", n - failed)
}

fn format_num(x: f64) -> String {
    match x {
        _ if x.is_nan() => "-".to_owned(),
        _ if x == x.trunc() && x.abs() < 1e15 => format!("{}", x as i64),
        _ => format!("{x:.4}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD: &str = "[[gate]]\nname = \"g\"\nop = \"<=\"\nthreshold = 1\n";

    fn gate_from(body: &str) -> Result<Gate, String> {
        parse_gate_file(&format!("{HEAD}{body}"), "test.toml").map(|mut g| g.remove(0))
    }

    #[test]
    fn load_errors_name_the_file_and_the_gate() {
        for (body, needle) in [
            ("source = \"report\"\nreduce = \"count\"\nwhere = \"heavy >\"\n", "expected a value"),
            ("source = \"report\"\nreduce = \"sum\"\n", "unknown reduce"),
            ("source = \"log\"\nreduce = \"count\"\n", "unknown source"),
            ("reduce = \"count\"\n", "missing source"),
            ("source = \"report\"\nreduce = \"last\"\n", "needs `of`"),
            ("source = \"report\"\nreduce = \"last\"\nof = \"heavy\"\nwhere = \"heavy > 0\"\n", "does not apply"),
            ("source = \"report\"\nreduce = \"count\"\nmetric = \"p99\"\n", "`metric` does not apply"),
            ("source = \"report\"\nreduce = \"count\"\nwhere = 1\n", "must be a string"),
            ("source = \"trace\"\nreduce = \"funnel_entered\"\nsteps = []\nwindow = 1\n", "1..=32 predicates"),
            ("source = \"trace\"\nreduce = \"funnel_entered\"\nsteps = [\"ts > 0\"]\nwindow = 1.5\n", "non-negative integer"),
        ] {
            let err = gate_from(body).unwrap_err();
            assert!(err.starts_with("test.toml: gate \"g\": "), "{err}");
            assert!(err.contains(needle), "{body:?}: {err}");
        }
        assert!(parse_gate_file("[[other]]\nname = \"x\"\n", "t").is_err());
        assert!(parse_gate_file("# nothing\n", "t").is_err());
    }

    #[test]
    fn missing_artifacts_and_unknown_columns_fail_the_gate() {
        let run = Run::default();
        let gate = gate_from("source = \"report\"\nreduce = \"last\"\nof = \"heavy\"\n").unwrap();
        let result = gate.evaluate(&run);
        assert!(!result.pass && result.actual.is_nan());
        assert!(
            result.detail.contains("no report artifact"),
            "{}",
            result.detail
        );
        let counters = gate_from("source = \"counters\"\nreduce = \"last\"\nof = \"x\"\n").unwrap();
        let results = evaluate_gates(&[gate, counters], &run);
        assert!(results[1].detail.contains("no trace artifact"));
        let table = render_table(&results);
        assert!(table.contains("FAIL") && table.ends_with("2 gate(s): 0 passed, 2 failed\n"));

        let mut run = Run::default();
        run.load("t.ndjson", &proxbal_trace::Trace::enabled("x").to_ndjson())
            .unwrap();
        let gate =
            gate_from("source = \"trace\"\nreduce = \"count\"\nwhere = \"bogus > 0\"\n").unwrap();
        // Zero events: nothing to evaluate the predicate on.
        assert!(gate.evaluate(&run).pass);
    }

    /// An epoch row: its index and its heavy count; balanced when 0.
    struct Epoch(u64, f64);

    impl Row for Epoch {
        fn get(&self, name: &str) -> Option<Val<'_>> {
            match name {
                "heavy" => Some(Val::Num(self.1)),
                "balanced" => Some(Val::Num(f64::from(u8::from(self.1 == 0.0)))),
                _ => None,
            }
        }
        fn ts(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn reductions_over_rows() {
        let heavy = [0, 2, 3, 0, 1, 1, 1, 0, 4];
        let rows: Vec<Epoch> = (0..).zip(heavy).map(|(e, h)| Epoch(e, h.into())).collect();
        let actual = |body: &str| {
            let gate = gate_from(&format!("source = \"report\"\n{body}")).unwrap();
            gate.reduce_rows(&rows).map(|(a, _)| a)
        };
        assert_eq!(actual("reduce = \"last\"\nof = \"heavy\""), Ok(4.0));
        assert_eq!(actual("reduce = \"last\"\nof = \"balanced\""), Ok(0.0));
        assert_eq!(actual("reduce = \"count\"\nwhere = \"heavy > 0\""), Ok(6.0));
        assert_eq!(actual("reduce = \"count\""), Ok(9.0));
        assert_eq!(
            actual("reduce = \"run_max\"\nwhere = \"heavy > 0\""),
            Ok(3.0)
        );
        assert_eq!(
            actual("reduce = \"run_p99\"\nwhere = \"heavy > 0\""),
            Ok(3.0)
        );
        assert_eq!(
            actual("reduce = \"run_max\"\nwhere = \"heavy > 9\""),
            Ok(0.0)
        );
        assert_eq!(
            actual("reduce = \"run_p99\"\nwhere = \"heavy > 9\""),
            Ok(0.0)
        );
        let funnel = "steps = [\"heavy > 0\", \"balanced == true\"]\nwindow = 2";
        // Opens at 1 (closes at 3), at 4 (expires at 7, past the window)
        // and at 8 (never closes).
        assert_eq!(
            actual(&format!("reduce = \"funnel_entered\"\n{funnel}")),
            Ok(3.0)
        );
        assert_eq!(
            actual(&format!("reduce = \"funnel_completion\"\n{funnel}")),
            Ok(1.0 / 3.0)
        );
        assert!(actual("reduce = \"last\"\nof = \"bogus\"").is_err());
        assert!(
            gate_from("source = \"report\"\nreduce = \"last\"\nof = \"heavy\"")
                .unwrap()
                .reduce_rows::<Epoch>(&[])
                .is_err()
        );
    }
}
