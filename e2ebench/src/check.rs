//! Output checks that do not use RouLette's engine: results are compared
//! with the vectorized query-at-a-time engine (DBMS-V), and streamed rows
//! are re-hashed on the client.

use roulette_exec::{row_hash, QueryResult};

/// Indices of the queries whose completed result differs from the
/// reference. Queries that did not complete are failures, counted
/// elsewhere, and are not compared.
pub fn mismatches(got: &[QueryResult], want: &[QueryResult]) -> Vec<usize> {
    let mut bad: Vec<usize> = got
        .iter()
        .zip(want)
        .enumerate()
        .filter(|(_, (g, w))| g.is_complete() && (g.rows, g.checksum) != (w.rows, w.checksum))
        .map(|(i, _)| i)
        .collect();
    // A missing result is a mismatch too.
    bad.extend(want.len().min(got.len())..want.len().max(got.len()));
    bad
}

/// Row count and checksum of streamed rows, computed as the engine's
/// sinks compute them: the wrapping sum of [`row_hash`] over every row.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RowTally {
    pub rows: u64,
    pub checksum: u64,
}

impl RowTally {
    pub fn add(&mut self, values: &[i64]) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(row_hash(values));
    }

    /// Whether the streamed rows add up to the terminal `OK rows checksum`.
    pub fn matches(&self, rows: u64, checksum: u64) -> bool {
        (self.rows, self.checksum) == (rows, checksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roulette_baselines::{ExecMode, QatEngine};
    use roulette_exec::RouletteEngine;
    use roulette_query::generator::chains_queries;
    use roulette_storage::datagen::chains::{generate, ChainsParams};

    fn results() -> (Vec<QueryResult>, Vec<QueryResult>, Vec<Vec<Vec<i64>>>) {
        let ds = generate(
            ChainsParams {
                chains: 2,
                relations: 5,
                domain: 32,
                hub_rows: 512,
            },
            3,
        );
        let mut queries = chains_queries(&ds, 6, 3).unwrap();
        let sel = ds.catalog.relation(ds.meta.hub).column_id("sel").unwrap();
        for q in &mut queries {
            q.projections = vec![(ds.meta.hub, sel)];
        }
        let engine = RouletteEngine::new(&ds.catalog, Default::default());
        let got = engine.execute_batch(&queries).unwrap().per_query;
        let qat = QatEngine::new(&ds.catalog, ExecMode::Vectorized, 7);
        let want = qat.execute_serial(&queries);
        let rows = queries.iter().map(|q| qat.execute_collect(q).1).collect();
        (got, want, rows)
    }

    #[test]
    fn agreeing_results_pass() {
        let (got, want, _) = results();
        assert!(
            want.iter().any(|r| r.rows > 0),
            "workload must produce rows"
        );
        assert!(mismatches(&got, &want).is_empty());
    }

    #[test]
    fn one_perturbed_checksum_fails() {
        let (mut got, want, _) = results();
        got[2].checksum ^= 1 << 17;
        assert_eq!(mismatches(&got, &want), vec![2]);
    }

    #[test]
    fn one_dropped_row_fails() {
        let (mut got, want, _) = results();
        let i = want.iter().position(|r| r.rows > 0).unwrap();
        got[i].rows -= 1;
        assert_eq!(mismatches(&got, &want), vec![i]);
        let (got, mut short, _) = results();
        short.pop();
        assert_eq!(mismatches(&got, &short), vec![got.len() - 1]);
    }

    #[test]
    fn streamed_rows_must_add_up_to_the_terminal_line() {
        let (_, want, rows) = results();
        let i = want.iter().position(|r| r.rows > 1).unwrap();
        let mut tally = RowTally::default();
        rows[i].iter().for_each(|r| tally.add(r));
        assert!(tally.matches(want[i].rows, want[i].checksum));

        let mut dropped = RowTally::default();
        rows[i][1..].iter().for_each(|r| dropped.add(r));
        assert!(!dropped.matches(want[i].rows, want[i].checksum));

        let mut perturbed = RowTally::default();
        rows[i].iter().for_each(|r| perturbed.add(r));
        perturbed.checksum ^= 1;
        assert!(!perturbed.matches(want[i].rows, want[i].checksum));
    }
}
