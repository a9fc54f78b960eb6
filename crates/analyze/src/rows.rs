//! The rows a gate reads, and the one predicate form over them (`where`
//! and each funnel step): `clause (and clause)*`, a clause being `column op
//! (number | 'string' | true | false | column)`, `op` one of `< <= > >= ==
//! !=`. `true`/`false` are 1/0, as boolean columns read; strings compare
//! only with strings, by `==` or `!=`. A column the row lacks is an error:
//! a typo must fail a gate, not pass it.

use crate::name_of;
use crate::{ParsedEvent, ParsedTrace};
use proxbal_sim::engine::EpochSample;
use proxbal_trace::EventKind;
use std::cmp::Ordering::{self, Equal, Greater, Less};

/// One cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Val<'a> {
    Num(f64),
    Str(&'a str),
}

/// A row of a gate source.
pub(crate) trait Row {
    /// Column `name`, or `None` when the source has no such column.
    fn get(&self, name: &str) -> Option<Val<'_>>;
    /// The row's timestamp for windowed funnels.
    fn ts(&self) -> u64 {
        0
    }
}

/// The `report` source: every [`EpochSample`] field; the timestamp is the
/// epoch index.
impl Row for EpochSample {
    fn get(&self, name: &str) -> Option<Val<'_>> {
        let n = |x: usize| Val::Num(x as f64);
        Some(match name {
            "epoch" => n(self.epoch),
            "alive_peers" => n(self.alive_peers),
            "gini" => Val::Num(self.gini),
            "heavy" => n(self.heavy),
            "joins" => n(self.joins),
            "crashes" => n(self.crashes),
            "stale_links" => n(self.stale_links),
            "repair_reattached" => n(self.repair_reattached),
            "repair_pruned" => n(self.repair_pruned),
            "maintenance_rounds" => n(self.maintenance_rounds),
            "balanced" => n(self.balanced.into()),
            "emergency" => n(self.emergency.into()),
            "balance_passes" => n(self.balance_passes),
            "moved" => Val::Num(self.moved),
            "transfers" => n(self.transfers),
            "messages" => n(self.messages),
            "des_messages" => n(self.des_messages),
            "des_retries" => n(self.des_retries),
            _ => return None,
        })
    }

    fn ts(&self) -> u64 {
        self.epoch as u64
    }
}

/// The `trace` source: `track`, `name`, `kind` (`"span"`/`"instant"`),
/// `ts` and `dur`; the timestamp is the event's virtual time, which
/// restarts on each track.
impl Row for ParsedEvent {
    fn get(&self, name: &str) -> Option<Val<'_>> {
        Some(match name {
            "track" => Val::Str(&self.track),
            "name" => Val::Str(&self.name),
            "kind" => Val::Str(match self.kind {
                EventKind::Span => "span",
                EventKind::Instant => "instant",
            }),
            "ts" => Val::Num(self.ts as f64),
            "dur" => Val::Num(self.dur as f64),
            _ => return None,
        })
    }

    fn ts(&self) -> u64 {
        self.ts
    }
}

/// The `counters` source: one row in which every name resolves — an
/// absent counter reads 0, as `Trace::counter` does, so a gate on a
/// counter that never fired holds on its value, not on its absence.
pub(crate) struct Counters<'a>(pub &'a ParsedTrace);

impl Row for Counters<'_> {
    fn get(&self, name: &str) -> Option<Val<'_>> {
        Some(Val::Num(self.0.any_counter(name)))
    }
}

const STR_CMP: &str = "strings compare only with strings, by == or !=";

/// A comparison, in predicates and in a gate's threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Two-character symbols first, so lexing takes the longest match.
pub(crate) const OPS: [(&str, CmpOp); 6] = [
    ("<=", CmpOp::Le),
    (">=", CmpOp::Ge),
    ("==", CmpOp::Eq),
    ("!=", CmpOp::Ne),
    ("<", CmpOp::Lt),
    (">", CmpOp::Gt),
];

impl CmpOp {
    pub(crate) fn symbol(self) -> &'static str {
        name_of(&OPS, self)
    }

    /// Whether `actual op threshold` holds; NaN on either side fails.
    pub(crate) fn holds(self, actual: f64, threshold: f64) -> bool {
        actual.partial_cmp(&threshold).is_some_and(|o| self.test(o))
    }

    fn test(self, o: Ordering) -> bool {
        use CmpOp::*;
        matches!(
            (self, o),
            (Lt | Le | Ne, Less) | (Le | Ge | Eq, Equal) | (Gt | Ge | Ne, Greater)
        )
    }
}

/// A parsed predicate: its clauses, all of which must hold (the default,
/// no clause, holds on every row).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Pred(Vec<(String, CmpOp, Tok)>);

/// A lexed token; a clause's right-hand side is a `Num`, a `Str` or a
/// `Word` naming a column.
#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Word(String),
    Num(f64),
    Str(String),
    Op(CmpOp),
}

fn lex(text: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    let mut rest = text.trim_start();
    while let Some(c) = rest.chars().next() {
        let len = if c == '\'' || c == '"' {
            let end = rest[1..].find(c).ok_or("unterminated string")?;
            toks.push(Tok::Str(rest[1..1 + end].to_owned()));
            end + 2
        } else if let Some(&(sym, op)) = OPS.iter().find(|(sym, _)| rest.starts_with(sym)) {
            toks.push(Tok::Op(op));
            sym.len()
        } else {
            let len = rest
                .find(|c: char| c.is_whitespace() || "<>=!'\"".contains(c))
                .unwrap_or(rest.len());
            let word = &rest[..len];
            toks.push(match (word, word.parse()) {
                ("true", _) => Tok::Num(1.0),
                ("false", _) => Tok::Num(0.0),
                (_, Ok(x)) => Tok::Num(x),
                _ if word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                    && word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') =>
                {
                    Tok::Word(word.to_owned())
                }
                _ => return Err(format!("unexpected {rest:?}")),
            });
            len
        };
        rest = rest[len..].trim_start();
    }
    Ok(toks)
}

impl Pred {
    /// Parses `clause (and clause)*`.
    pub(crate) fn parse(text: &str) -> Result<Pred, String> {
        let mut toks = lex(text)?.into_iter();
        let mut clauses = Vec::new();
        loop {
            let column = match toks.next() {
                Some(Tok::Word(w)) if w != "and" => w,
                other => return Err(format!("expected a column, got {other:?}")),
            };
            let Some(Tok::Op(op)) = toks.next() else {
                return Err(format!("expected < <= > >= == != after {column:?}"));
            };
            match toks.next() {
                Some(Tok::Word(w)) if w == "and" => {
                    return Err(format!("no value after {column:?}"))
                }
                Some(rhs @ (Tok::Word(_) | Tok::Num(_) | Tok::Str(_))) => {
                    clauses.push((column, op, rhs))
                }
                other => return Err(format!("expected a value, got {other:?}")),
            }
            match toks.next() {
                None => return Ok(Pred(clauses)),
                Some(Tok::Word(w)) if w == "and" => {}
                Some(other) => return Err(format!("expected `and`, got {other:?}")),
            }
        }
    }

    /// Whether every clause holds on `row`, left to right: a clause after
    /// one that fails is not evaluated.
    pub(crate) fn holds(&self, row: &impl Row) -> Result<bool, String> {
        let column = |name: &str| {
            row.get(name)
                .ok_or_else(|| format!("unknown column {name:?}"))
        };
        for (lhs, op, rhs) in &self.0 {
            let rhs = match rhs {
                Tok::Num(x) => Val::Num(*x),
                Tok::Str(s) => Val::Str(s),
                Tok::Word(name) => column(name)?,
                Tok::Op(_) => unreachable!("parse admits no operator as a value"),
            };
            let holds = match (column(lhs)?, rhs) {
                (Val::Str(x), Val::Str(y)) if matches!(op, CmpOp::Eq | CmpOp::Ne) => {
                    op.test(x.cmp(y))
                }
                // Unordered (NaN) numbers are unequal and nothing else.
                (Val::Num(x), Val::Num(y)) => {
                    x.partial_cmp(&y).map_or(*op == CmpOp::Ne, |o| op.test(o))
                }
                (a, b) => return Err(format!("{a:?} {} {b:?}: {STR_CMP}", op.symbol())),
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;
    use proxbal_trace::Trace;

    #[test]
    fn event_columns_and_unknown_names() {
        let mut t = Trace::enabled("repro");
        t.span("round/vsa", 3, 5);
        t.instant("kt/stale", 7);
        let parsed = ParsedTrace::of(&t).unwrap();
        let [span, instant] = &parsed.events[..] else {
            panic!("two events expected")
        };
        assert_eq!(span.get("name"), Some(Val::Str("round/vsa")));
        assert_eq!(span.get("kind"), Some(Val::Str("span")));
        assert_eq!(span.get("dur"), Some(Val::Num(5.0)));
        assert_eq!(instant.get("kind"), Some(Val::Str("instant")));
        assert_eq!((span.ts(), instant.ts()), (3, 7));
        assert_eq!(span.get("args.pairings"), None);
        assert_eq!(span.get("bogus"), None);
    }

    #[test]
    fn counters_read_both_kinds_and_absent_as_zero() {
        let mut t = Trace::enabled("x");
        t.count("des_retries", 4);
        t.count_f64("vst_moved_load", 2.5);
        let parsed = ParsedTrace::of(&t).unwrap();
        let row = Counters(&parsed);
        assert_eq!(row.get("des_retries"), Some(Val::Num(4.0)));
        assert_eq!(row.get("vst_moved_load"), Some(Val::Num(2.5)));
        assert_eq!(row.get("missing_counter"), Some(Val::Num(0.0)));
    }

    struct R(&'static [(&'static str, Val<'static>)]);

    impl Row for R {
        fn get(&self, name: &str) -> Option<Val<'_>> {
            self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
        }
        fn ts(&self) -> u64 {
            0
        }
    }

    const ROW: R = R(&[
        ("heavy", Val::Num(3.0)),
        ("stale_links", Val::Num(2.0)),
        ("repair_reattached", Val::Num(1.0)),
        ("balanced", Val::Num(1.0)),
        ("name", Val::Str("round/vsa")),
    ]);

    fn eval(text: &str) -> Result<bool, String> {
        Pred::parse(text)?.holds(&ROW)
    }

    #[test]
    fn clauses_literals_and_columns() {
        assert_eq!(eval("heavy > 0"), Ok(true));
        assert_eq!(eval("heavy>=3 and heavy<=3"), Ok(true));
        assert_eq!(eval("heavy != 3"), Ok(false));
        assert_eq!(eval("heavy == -1.5"), Ok(false));
        assert_eq!(eval("repair_reattached < stale_links"), Ok(true));
        assert_eq!(eval("balanced == true and heavy == 0"), Ok(false));
        assert_eq!(eval("balanced == 1"), Ok(true));
        assert_eq!(eval("name == 'round/vsa'"), Ok(true));
        assert_eq!(eval("name != \"round/lbi\""), Ok(true));
    }

    #[test]
    fn unknown_columns_and_string_order_fail_but_short_circuit() {
        assert!(eval("bogus > 0").unwrap_err().contains("unknown column"));
        assert!(eval("heavy > bogus").is_err());
        assert!(eval("name < 'z'").is_err());
        assert!(eval("heavy == 'x'").is_err());
        // A clause after a failing one is not evaluated.
        assert_eq!(eval("heavy == 0 and bogus > 0"), Ok(false));
        assert!(eval("heavy > 0 and bogus > 0").is_err());
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "heavy",
            "heavy >",
            "heavy = 1",
            "1 < heavy",
            "heavy > 0 and",
            "heavy > 0 or heavy < 0",
            "heavy > 0 heavy",
            "heavy > 'open",
            "heavy > 1x",
            "last(heavy) > 0",
            "heavy > and",
        ] {
            assert!(Pred::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn threshold_comparisons() {
        assert!(CmpOp::Le.holds(4.0, 4.0) && !CmpOp::Lt.holds(4.0, 4.0));
        assert!(CmpOp::Ge.holds(1.0, 1.0) && CmpOp::Gt.holds(2.0, 1.0));
        assert!(CmpOp::Eq.holds(0.0, 0.0) && CmpOp::Ne.holds(1.0, 0.0));
        assert!(!CmpOp::Ne.holds(f64::NAN, 0.0) && !CmpOp::Eq.holds(f64::NAN, 0.0));
        for (sym, op) in OPS {
            assert_eq!((by_name(&OPS, sym), op.symbol()), (Some(op), sym));
        }
        assert_eq!(by_name(&OPS, "="), None);
    }
}
