//! Output checks that share no code with the system under test: row
//! digests, a hash join, a merge, a sort order and an average, all
//! computed here from the generated input rows.

use crate::queries::Template;
use ocas_engine::{RelSpec, RowBuf, RowGen};
use std::collections::HashMap;

/// The rows a relation spec generates with a seed: the generator's eager
/// oracle path (`RowGen::generate_all`), the same rows `Runtime::run_plan`
/// streams for relation `i` with seed `seed + i`.
pub fn input_rows(spec: &RelSpec, seed: u64) -> RowBuf {
    RowGen::from_spec(spec, seed).generate_all()
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 64-bit hash of one row.
pub fn row_hash(row: &[i64]) -> u64 {
    row.iter().fold(0x9e37_79b9_7f4a_7c15, |h, &v| {
        mix(h ^ (v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15))
    })
}

/// A join output row with its two input halves in a canonical order:
/// equivalence modulo field order lets a synthesized join emit `<s, r>`
/// where the specification emits `<r, s>`.
fn canonical_join_row(row: &[i64]) -> [i64; 4] {
    let (a, b) = ([row[0], row[1]], [row[2], row[3]]);
    if a <= b {
        [a[0], a[1], b[0], b[1]]
    } else {
        [b[0], b[1], a[0], a[1]]
    }
}

/// Order constraint on an output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Order {
    /// Any order (a bag).
    Any,
    /// Non-decreasing rows.
    NonDecreasing,
    /// Strictly increasing rows.
    Increasing,
    /// Exactly this sequence, given as an order-sensitive digest.
    Exact(u64),
}

/// What a correct output looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub rows: u64,
    /// Order-insensitive digest: wrapping sum of row hashes.
    pub bag: u64,
    pub order: Order,
    /// Rows are join outputs compared modulo the order of their halves.
    pub join_rows: bool,
}

fn bag_digest(rows: &RowBuf) -> u64 {
    rows.iter()
        .fold(0u64, |acc, r| acc.wrapping_add(row_hash(r)))
}

fn ordered_digest(rows: impl Iterator<Item = u64>) -> u64 {
    rows.fold(0xcbf2_9ce4_8422_2325, |acc, h| mix(acc ^ h))
}

/// The expected output of `template` over its generated inputs.
pub fn expect(template: Template, inputs: &[RowBuf]) -> Expect {
    let plain = |rows: u64, bag: u64, order: Order| Expect {
        rows,
        bag,
        order,
        join_rows: false,
    };
    match template {
        Template::Sort => plain(
            inputs[0].len() as u64,
            bag_digest(&inputs[0]),
            Order::NonDecreasing,
        ),
        Template::Union => plain(
            (inputs[0].len() + inputs[1].len()) as u64,
            bag_digest(&inputs[0]).wrapping_add(bag_digest(&inputs[1])),
            Order::NonDecreasing,
        ),
        Template::Dedup => {
            let mut distinct: Vec<i64> = inputs[0].iter().map(|r| r[0]).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let bag = distinct
                .iter()
                .fold(0u64, |acc, &v| acc.wrapping_add(row_hash(&[v])));
            plain(distinct.len() as u64, bag, Order::Increasing)
        }
        Template::Agg => {
            let n = inputs[0].len() as i128;
            let sum: i128 = inputs[0].iter().map(|r| i128::from(r[0])).sum();
            let avg = if n == 0 { 0 } else { (sum / n) as i64 };
            plain(1, row_hash(&[avg]), Order::Any)
        }
        Template::Zip5 => {
            let n = inputs[0].len();
            let row = |i: usize| -> Vec<i64> { inputs.iter().map(|c| c.row(i)[0]).collect() };
            let hashes: Vec<u64> = (0..n).map(|i| row_hash(&row(i))).collect();
            let bag = hashes.iter().fold(0u64, |a, &h| a.wrapping_add(h));
            plain(
                n as u64,
                bag,
                Order::Exact(ordered_digest(hashes.into_iter())),
            )
        }
        Template::Grace | Template::Bnl => {
            let mut by_key: HashMap<i64, Vec<i64>> = HashMap::new();
            for r in inputs[0].iter() {
                by_key.entry(r[0]).or_default().push(r[1]);
            }
            let (mut rows, mut bag) = (0u64, 0u64);
            for s in inputs[1].iter() {
                for &r1 in by_key.get(&s[0]).map_or(&[][..], Vec::as_slice) {
                    rows += 1;
                    bag = bag.wrapping_add(row_hash(&canonical_join_row(&[s[0], r1, s[0], s[1]])));
                }
            }
            Expect {
                rows,
                bag,
                order: Order::Any,
                join_rows: true,
            }
        }
    }
}

/// Checks an output against an expectation; the error names the first
/// property that fails.
pub fn check(out: &RowBuf, want: &Expect) -> Result<(), String> {
    if out.len() as u64 != want.rows {
        return Err(format!("{} rows, expected {}", out.len(), want.rows));
    }
    let hashes: Vec<u64> = if want.join_rows {
        if out.width() != 4 {
            return Err(format!("join rows of width {}", out.width()));
        }
        out.iter()
            .map(|r| row_hash(&canonical_join_row(r)))
            .collect()
    } else {
        out.iter().map(row_hash).collect()
    };
    let bag = hashes.iter().fold(0u64, |a, &h| a.wrapping_add(h));
    if bag != want.bag {
        return Err("row multiset differs".into());
    }
    let pairs = || (1..out.len()).map(|i| (out.row(i - 1), out.row(i)));
    match want.order {
        Order::Any => Ok(()),
        Order::NonDecreasing => match pairs().position(|(a, b)| a > b) {
            None => Ok(()),
            Some(i) => Err(format!("rows {i} and {} out of order", i + 1)),
        },
        Order::Increasing => match pairs().position(|(a, b)| a >= b) {
            None => Ok(()),
            Some(i) => Err(format!("rows {i} and {} not strictly increasing", i + 1)),
        },
        Order::Exact(d) if d == ordered_digest(hashes.into_iter()) => Ok(()),
        Order::Exact(_) => Err("row sequence differs".into()),
    }
}

/// The rows of an interpreter result: join rows `<<a, b>, <c, d>>`
/// flatten to `[a, b, c, d]`, integers to one-column rows.
pub fn value_rows(v: &ocal::Value) -> Result<Vec<Vec<i64>>, String> {
    fn flatten(v: &ocal::Value, out: &mut Vec<i64>) -> Result<(), String> {
        match v {
            ocal::Value::Int(n) => {
                out.push(*n);
                Ok(())
            }
            ocal::Value::Tuple(items) => items.iter().try_for_each(|x| flatten(x, out)),
            other => Err(format!("unexpected value {other}")),
        }
    }
    let items: Vec<&ocal::Value> = match v {
        ocal::Value::List(items) => items.iter().collect(),
        scalar => vec![scalar],
    };
    items
        .into_iter()
        .map(|x| {
            let mut row = Vec::new();
            flatten(x, &mut row).map(|_| row)
        })
        .collect()
}

/// Rows sorted canonically, join rows with their halves in canonical
/// order: the form in which an interpreter result and a program output
/// are compared.
pub fn canonical_rows(rows: Vec<Vec<i64>>, join_rows: bool) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> = rows
        .into_iter()
        .map(|r| {
            if join_rows && r.len() == 4 {
                canonical_join_row(&r).to_vec()
            } else {
                r
            }
        })
        .collect();
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_expectation_matches_a_nested_loop() {
        let r = RowBuf::from_vec(vec![1, 10, 2, 20, 1, 11], 2);
        let s = RowBuf::from_vec(vec![1, 7, 3, 8], 2);
        let want = expect(Template::Grace, &[r, s]);
        // <1,10,1,7> and <1,11,1,7>; the second emitted with swapped halves.
        let out = RowBuf::from_vec(vec![1, 10, 1, 7, 1, 7, 1, 11], 4);
        assert_eq!(check(&out, &want), Ok(()));
        let wrong = RowBuf::from_vec(vec![1, 10, 1, 7, 1, 7, 1, 12], 4);
        assert!(check(&wrong, &want).is_err());
    }

    #[test]
    fn order_constraints_are_enforced() {
        let input = RowBuf::from_vec(vec![3, 1, 2, 2], 1);
        let want = expect(Template::Sort, std::slice::from_ref(&input));
        assert_eq!(check(&RowBuf::from_vec(vec![1, 2, 2, 3], 1), &want), Ok(()));
        assert!(check(&RowBuf::from_vec(vec![2, 1, 2, 3], 1), &want).is_err());
        let want = expect(Template::Dedup, &[RowBuf::from_vec(vec![1, 2, 2, 3], 1)]);
        assert_eq!(check(&RowBuf::from_vec(vec![1, 2, 3], 1), &want), Ok(()));
        let cols: Vec<RowBuf> = (0..5)
            .map(|c| RowBuf::from_vec(vec![c, c + 10], 1))
            .collect();
        let want = expect(Template::Zip5, &cols);
        let zipped = RowBuf::from_vec(vec![0, 1, 2, 3, 4, 10, 11, 12, 13, 14], 5);
        assert_eq!(check(&zipped, &want), Ok(()));
        let swapped = RowBuf::from_vec(vec![10, 11, 12, 13, 14, 0, 1, 2, 3, 4], 5);
        assert!(check(&swapped, &want).is_err());
    }

    #[test]
    fn average_truncates_like_the_interpreter() {
        let want = expect(Template::Agg, &[RowBuf::from_vec(vec![1, 2, 4], 1)]);
        assert_eq!(check(&RowBuf::from_vec(vec![2], 1), &want), Ok(()));
        assert!(check(&RowBuf::from_vec(vec![3], 1), &want).is_err());
    }
}
