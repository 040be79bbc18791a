//! Small numeric helpers: percentiles, the seeded shuffle, process memory,
//! and the order-independent row digest the answer checks compare.

use rand::rngs::SmallRng;
use rand::Rng;

use wireframe::query::EmbeddingSet;

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks. `values` need not be sorted; empty input is 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Half-width, in percentile points, of the band [`band_percentile`]
/// averages over.
const BAND: f64 = 2.5;

/// The `p`-th percentile as runs report it: the mean of the samples
/// between the `p - 2.5`th and `p + 2.5`th percentiles. A workload mixes
/// queries of very different cost in equal numbers, so a plain 50th or 90th
/// percentile can fall exactly between two queries' samples and read one
/// sample's tail; the band average reads the samples around it instead.
pub fn band_percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let last = (sorted.len() - 1) as f64;
    let lo = (((p - BAND).max(0.0) / 100.0) * last).floor() as usize;
    let hi = (((p + BAND).min(100.0) / 100.0) * last).ceil() as usize;
    mean(&sorted[lo..=hi])
}

/// The median of `values` (0 for empty input).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean of `values` (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Slices a run's samples are cut into for [`windowed`].
pub const WINDOWS: usize = 5;

/// The `p`-th percentile of a main loop: each client's samples, in order,
/// are cut into [`WINDOWS`] consecutive slices of whole rounds (`per_round`
/// samples each); slice `w` of every client is pooled; the result is the
/// median over slices of the pooled slice's [`band_percentile`]. Whole
/// rounds keep every slice's mix of queries the same, and a stall that hits
/// one part of a run moves one slice, not the result.
pub fn windowed(clients: &[&[f64]], per_round: usize, p: f64) -> f64 {
    let slices: Vec<f64> = (0..WINDOWS)
        .filter_map(|w| {
            let pooled: Vec<f64> = clients
                .iter()
                .flat_map(|s| s[slice(s.len(), per_round, w)].iter())
                .copied()
                .collect();
            (!pooled.is_empty()).then(|| band_percentile(&pooled, p))
        })
        .collect();
    median(&slices)
}

/// Read throughput as runs report it: per slice (as in [`windowed`]),
/// the sum over clients of reads completed divided by the time that
/// client spent in requests; the median over slices. `clients` holds each
/// client's `(is_read, latency_ms)` in order.
pub fn windowed_rate(clients: &[&[(bool, f64)]], per_round: usize) -> f64 {
    let slices: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            clients
                .iter()
                .map(|s| {
                    let part = &s[slice(s.len(), per_round, w)];
                    let reads = part.iter().filter(|(read, _)| *read).count() as f64;
                    let busy_s = part.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3;
                    if busy_s > 0.0 {
                        reads / busy_s
                    } else {
                        0.0
                    }
                })
                .sum()
        })
        .filter(|&rate| rate > 0.0)
        .collect();
    median(&slices)
}

/// Index range of slice `w` of `len` samples, cut on round boundaries.
fn slice(len: usize, per_round: usize, w: usize) -> std::ops::Range<usize> {
    let rounds = len / per_round.max(1);
    let at = |k: usize| (rounds * k / WINDOWS) * per_round;
    at(w)..if w + 1 == WINDOWS { len } else { at(w + 1) }
}

/// Fisher–Yates shuffle driven by the workload's seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Resident set size of this process in MiB, from `/proc/self/status`.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An order-independent digest of an answer: each row is hashed with its
/// columns in variable order (so engines projecting in different column
/// orders agree), and the row hashes are summed, so the digest is a
/// function of the multiset of rows alone.
pub fn digest(rows: &EmbeddingSet) -> u64 {
    let schema = rows.schema();
    let mut columns: Vec<usize> = (0..schema.len()).collect();
    columns.sort_by_key(|&i| schema[i]);
    rows.rows().fold(0u64, |acc, row| {
        let h = columns.iter().fold(0x243F_6A88_85A3_08D3u64, |h, &c| {
            mix(h ^ u64::from(row[c].0))
        });
        acc.wrapping_add(h)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_percentile_averages_around_the_rank() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(band_percentile(&v, 50.0), 50.0);
        assert_eq!(band_percentile(&v, 90.0), 90.0);
        assert_eq!(band_percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-9);
    }
}
