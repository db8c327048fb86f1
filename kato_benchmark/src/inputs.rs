//! Benchmark inputs, generated from the workload seed alone.

/// SplitMix64: the one source of input randomness in the benchmark.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        SeedStream(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A run seed small enough to print and echo exactly as a JSON number.
    pub fn next_seed(&mut self) -> u64 {
        self.next_u64() >> 24
    }
}

/// Seed of the panel: the inputs every run times and rates, whatever its
/// seed (see `PanelTimes` and `Quality`).
pub const PANEL_SEED: u64 = 0x4B41_544F;

/// Optimiser seeds for the sizing runs of a `bo_*` workload.
pub fn run_seeds(workload_seed: u64, n: usize) -> Vec<u64> {
    let mut stream = SeedStream::new(workload_seed);
    (0..n).map(|_| stream.next_seed()).collect()
}

/// What the benchmark expects a line of the serving stream to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    /// A sizing request with a seed not sent before.
    Fresh,
    /// A byte-identical repeat of an earlier sizing request.
    Repeat,
    /// `{"op":"health"}`.
    Health,
}

/// One line of the serving stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamLine {
    pub kind: LineKind,
    pub scenario: &'static str,
    pub tech: &'static str,
    pub line: String,
}

/// Scenarios the serving stream sizes, each on both tech nodes.
pub const SERVE_SCENARIOS: [&str; 2] = ["opamp2", "folded_cascode"];
/// Simulation budget of every serving request.
pub const SERVE_BUDGET: usize = 40;

/// The NDJSON request stream of `serve_bank`, in rounds. Each round sends
/// one 180 nm request and one 40 nm request of a scenario (alternating
/// scenarios between rounds), a repeat of an earlier request, and every
/// fourth round a health probe. The first request of each scenario runs
/// cold and writes the bank; every later one warm-starts from it, reading
/// a bank that grows by two runs a round.
pub fn request_stream(workload_seed: u64, rounds: usize) -> Vec<StreamLine> {
    let mut stream = SeedStream::new(workload_seed ^ 0x5EED_5E7E);
    let mut out: Vec<StreamLine> = Vec::new();
    let mut sent: Vec<usize> = Vec::new();
    let mut next_id = 0;
    let mut request = |scenario: &'static str, tech: &'static str, seed: u64| {
        next_id += 1;
        StreamLine {
            kind: LineKind::Fresh,
            scenario,
            tech,
            line: format!(
                "{{\"id\":\"r{next_id}\",\"scenario\":\"{scenario}\",\"tech\":\"{tech}\",\"seed\":{seed},\"budget\":{SERVE_BUDGET}}}"
            ),
        }
    };
    for round in 0..rounds {
        let scenario = SERVE_SCENARIOS[round % SERVE_SCENARIOS.len()];
        for tech in ["180nm", "40nm"] {
            sent.push(out.len());
            out.push(request(scenario, tech, stream.next_seed()));
        }
        let pick = sent[(stream.next_u64() % sent.len() as u64) as usize];
        out.push(StreamLine {
            kind: LineKind::Repeat,
            ..out[pick].clone()
        });
        if round % 4 == 3 {
            out.push(StreamLine {
                kind: LineKind::Health,
                scenario: "",
                tech: "",
                line: "{\"op\":\"health\"}".to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(run_seeds(7, 32), run_seeds(7, 32));
        assert_ne!(run_seeds(7, 32), run_seeds(8, 32));
        assert_eq!(request_stream(7, 12), request_stream(7, 12));
        assert_ne!(request_stream(7, 12), request_stream(8, 12));
    }

    #[test]
    fn stream_mixes_every_line_kind() {
        let lines = request_stream(3, 8);
        for kind in [LineKind::Fresh, LineKind::Repeat, LineKind::Health] {
            assert!(lines.iter().any(|l| l.kind == kind), "{kind:?}");
        }
        for l in lines.iter().filter(|l| l.kind == LineKind::Fresh) {
            assert!(
                kato_serve::SizingRequest::parse(&l.line).is_ok(),
                "{}",
                l.line
            );
        }
    }
}
