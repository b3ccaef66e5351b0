//! Gradient-boosted decision-tree ensemble inference.
//!
//! The §5.3 macro-benchmark reproduces Owaida et al.'s distributed
//! decision-tree inference: a trained ensemble is offloaded to the FPGA
//! once, then tuples stream through a pipelined scoring engine in a
//! GPU-like pattern (load batch → compute → copy results back), with
//! double buffering hiding the transfer behind compute.
//!
//! This module implements real ensembles (deterministic synthetic
//! generation, software reference inference) and the accelerator timing
//! model: a scoring pipeline with a fixed initiation interval per tuple,
//! replicated per engine, whose throughput scales with the platform's
//! achievable clock — which is exactly why Enzian's -3 speed grade part
//! wins Fig. 9.

use enzian_sim::{Duration, SimRng, Time};

/// A feature vector scored by the ensemble.
pub type Tuple = Vec<f32>;

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Split {
        feature: u16,
        threshold: f32,
        left: u32,
        right: u32,
    },
    Leaf(f32),
}

/// One regression tree with array-packed nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Scores one tuple.
    ///
    /// # Panics
    ///
    /// Panics if the tuple has fewer features than the tree references.
    pub fn score(&self, tuple: &[f32]) -> f32 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if tuple[usize::from(*feature)] < *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Generates a random full tree of `depth` over `features` features.
    fn generate(rng: &mut SimRng, depth: u32, features: u16) -> Tree {
        assert!(depth >= 1 && features >= 1);
        let mut nodes = Vec::new();
        // Build level by level: internal nodes then leaves.
        fn build(rng: &mut SimRng, nodes: &mut Vec<Node>, depth: u32, features: u16) -> u32 {
            if depth == 0 {
                nodes.push(Node::Leaf((rng.next_f64() as f32) * 2.0 - 1.0));
                return (nodes.len() - 1) as u32;
            }
            let idx = nodes.len();
            nodes.push(Node::Leaf(0.0)); // placeholder
            let feature = rng.next_below(u64::from(features)) as u16;
            let threshold = (rng.next_f64() as f32) * 2.0 - 1.0;
            let left = build(rng, nodes, depth - 1, features);
            let right = build(rng, nodes, depth - 1, features);
            nodes[idx] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
            idx as u32
        }
        build(rng, &mut nodes, depth, features);
        Tree { nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes (never true for generated trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A boosted ensemble: the sum of its trees' scores.
#[derive(Debug, Clone, PartialEq)]
pub struct Ensemble {
    trees: Vec<Tree>,
    features: u16,
}

impl Ensemble {
    /// Generates a deterministic synthetic ensemble.
    ///
    /// # Panics
    ///
    /// Panics on zero trees/depth/features.
    pub fn generate(seed: u64, trees: usize, depth: u32, features: u16) -> Self {
        assert!(trees >= 1, "empty ensemble");
        let mut rng = SimRng::seed_from(seed);
        Ensemble {
            trees: (0..trees)
                .map(|_| Tree::generate(&mut rng, depth, features))
                .collect(),
            features,
        }
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Features each tuple must carry.
    pub fn num_features(&self) -> u16 {
        self.features
    }

    /// Software reference inference for one tuple.
    pub fn score(&self, tuple: &[f32]) -> f32 {
        assert_eq!(
            tuple.len(),
            usize::from(self.features),
            "tuple feature count mismatch"
        );
        self.trees.iter().map(|t| t.score(tuple)).sum()
    }

    /// Software inference over a batch.
    pub fn score_batch(&self, tuples: &[Tuple]) -> Vec<f32> {
        tuples.iter().map(|t| self.score(t)).collect()
    }

    /// Generates a deterministic tuple batch for this ensemble.
    pub fn generate_tuples(&self, seed: u64, count: usize) -> Vec<Tuple> {
        let mut rng = SimRng::seed_from(seed);
        (0..count)
            .map(|_| {
                (0..self.features)
                    .map(|_| (rng.next_f64() as f32) * 2.0 - 1.0)
                    .collect()
            })
            .collect()
    }
}

/// Platform-specific accelerator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Achieved fabric clock for this design on this platform.
    pub clock_hz: u64,
    /// Parallel scoring engines instantiated (1 or 2 in Fig. 9).
    pub engines: u32,
    /// Initiation interval: cycles between tuple issues per engine (the
    /// design accepts one tuple per 6 cycles: 96 trees on 16 tree
    /// processors).
    pub initiation_interval: u32,
    /// Pipeline fill depth in cycles.
    pub pipeline_depth: u32,
    /// Host link bandwidth available for tuple/result movement,
    /// bytes/sec (the workload needs no more than 4 GB/s, §5.3).
    pub link_bytes_per_sec: f64,
}

impl AcceleratorConfig {
    /// Throughput of the scoring pipeline alone, tuples/sec.
    pub fn pipeline_tuples_per_sec(&self) -> f64 {
        self.clock_hz as f64 * f64::from(self.engines) / f64::from(self.initiation_interval)
    }
}

/// Result of one accelerated batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// The scores, bit-identical to software inference.
    pub scores: Vec<f32>,
    /// Completion time.
    pub done: Time,
}

/// The offload engine: functional scoring plus pipeline/transfer timing
/// with double buffering.
#[derive(Debug, Clone)]
pub struct GbdtAccelerator {
    ensemble: Ensemble,
    config: AcceleratorConfig,
    tuples_scored: u64,
}

impl GbdtAccelerator {
    /// Loads `ensemble` into an accelerator with `config` (the model
    /// offload step, not part of the measured time).
    pub fn new(ensemble: Ensemble, config: AcceleratorConfig) -> Self {
        assert!(config.engines >= 1 && config.initiation_interval >= 1);
        GbdtAccelerator {
            ensemble,
            config,
            tuples_scored: 0,
        }
    }

    /// The loaded ensemble.
    pub fn ensemble(&self) -> &Ensemble {
        &self.ensemble
    }

    /// The platform configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Total tuples scored.
    pub fn tuples_scored(&self) -> u64 {
        self.tuples_scored
    }

    /// Streams a batch through the engine(s) starting at `now`: tuples
    /// are fetched from host memory, scored in the pipeline, and results
    /// written back, with transfers double-buffered against compute.
    pub fn score_batch(&mut self, now: Time, tuples: &[Tuple]) -> BatchResult {
        let done = now + self.batch_timing(tuples.len());
        let scores = self.ensemble.score_batch(tuples);
        BatchResult { scores, done }
    }

    /// How long a batch of `n` tuples takes from issue to its last
    /// result, counting the tuples as scored. The time depends only on
    /// `n`, never on the tuples' values.
    fn batch_timing(&mut self, n: usize) -> Duration {
        assert!(n > 0, "empty batch");
        self.tuples_scored += n as u64;
        let n = n as f64;
        let tuple_bytes = 4.0 * f64::from(self.ensemble.features);
        let result_bytes = 4.0;
        // Double buffering: steady state is limited by the slower of
        // compute and transfer; the pipeline fill and the first/last
        // chunk transfers appear once.
        let compute = n / self.config.pipeline_tuples_per_sec();
        let transfer = n * (tuple_bytes + result_bytes) / self.config.link_bytes_per_sec;
        let steady = compute.max(transfer);
        let fill = f64::from(self.config.pipeline_depth) / self.config.clock_hz as f64;
        Duration::from_secs_f64(steady + fill)
    }

    /// Measured throughput in tuples/sec for a batch issued at `now`.
    /// The pipeline's timing depends only on the batch size, so the
    /// tuples are counted as scored without computing their scores
    /// (see [`GbdtAccelerator::score_batch`] for the scores).
    pub fn measure_throughput(&mut self, now: Time, tuples: &[Tuple]) -> f64 {
        let done = now + self.batch_timing(tuples.len());
        tuples.len() as f64 / done.since(now).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ensemble() -> Ensemble {
        Ensemble::generate(7, 32, 6, 16)
    }

    fn enzian_config() -> AcceleratorConfig {
        AcceleratorConfig {
            clock_hz: 288_000_000,
            engines: 1,
            initiation_interval: 6,
            pipeline_depth: 120,
            link_bytes_per_sec: 9e9,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Ensemble::generate(1, 8, 5, 10);
        let b = Ensemble::generate(1, 8, 5, 10);
        assert_eq!(a, b);
        let c = Ensemble::generate(2, 8, 5, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn tree_depth_and_size() {
        let e = Ensemble::generate(3, 4, 6, 8);
        for t in &e.trees {
            // A full binary tree of depth 6: 2^7 - 1 nodes.
            assert_eq!(t.len(), 127);
        }
    }

    #[test]
    fn accelerator_matches_software_bit_for_bit() {
        let e = ensemble();
        let tuples = e.generate_tuples(9, 1000);
        let expected = e.score_batch(&tuples);
        let mut acc = GbdtAccelerator::new(e, enzian_config());
        let result = acc.score_batch(Time::ZERO, &tuples);
        assert_eq!(result.scores, expected);
        assert_eq!(acc.tuples_scored(), 1000);
    }

    #[test]
    fn throughput_tracks_clock() {
        let e = ensemble();
        let tuples = e.generate_tuples(9, 100_000);
        let mut enzian = GbdtAccelerator::new(e.clone(), enzian_config());
        let mut f1 = GbdtAccelerator::new(
            e,
            AcceleratorConfig {
                clock_hz: 144_000_000,
                ..enzian_config()
            },
        );
        let t_enzian = enzian.measure_throughput(Time::ZERO, &tuples);
        let t_f1 = f1.measure_throughput(Time::ZERO, &tuples);
        let ratio = t_enzian / t_f1;
        assert!(
            (1.9..2.1).contains(&ratio),
            "clock scaling ratio {ratio:.2}"
        );
        // Enzian lands at ~48 Mtuples/s (Fig. 9).
        assert!(
            (45e6..50e6).contains(&t_enzian),
            "Enzian throughput {:.1} Mt/s",
            t_enzian / 1e6
        );
    }

    #[test]
    fn two_engines_double_throughput() {
        let e = ensemble();
        let tuples = e.generate_tuples(9, 100_000);
        let mut one = GbdtAccelerator::new(e.clone(), enzian_config());
        let mut two = GbdtAccelerator::new(
            e,
            AcceleratorConfig {
                engines: 2,
                ..enzian_config()
            },
        );
        let r = two.measure_throughput(Time::ZERO, &tuples)
            / one.measure_throughput(Time::ZERO, &tuples);
        assert!((1.9..2.1).contains(&r), "engine scaling {r:.2}");
    }

    #[test]
    fn measured_throughput_is_the_scored_batch_timing() {
        let e = ensemble();
        let tuples = e.generate_tuples(9, 5_000);
        let now = Time::ZERO + Duration::from_us(3);
        let mut scored = GbdtAccelerator::new(e.clone(), enzian_config());
        let mut measured = GbdtAccelerator::new(e, enzian_config());
        let r = scored.score_batch(now, &tuples);
        let expect = tuples.len() as f64 / r.done.since(now).as_secs_f64();
        let tput = measured.measure_throughput(now, &tuples);
        assert_eq!(tput.to_bits(), expect.to_bits());
        assert_eq!(measured.tuples_scored(), scored.tuples_scored());
        assert_eq!(measured.tuples_scored(), 5_000);
    }

    #[test]
    fn transfer_bound_when_link_is_slow() {
        let e = ensemble();
        let tuples = e.generate_tuples(9, 50_000);
        let mut starved = GbdtAccelerator::new(
            e,
            AcceleratorConfig {
                link_bytes_per_sec: 0.5e9, // 0.5 GB/s
                ..enzian_config()
            },
        );
        let tput = starved.measure_throughput(Time::ZERO, &tuples);
        // 68 B/tuple at 0.5 GB/s: ~7.3 Mt/s, far below the pipeline's 48.
        assert!(
            tput < 10e6,
            "transfer-starved throughput {:.1} Mt/s",
            tput / 1e6
        );
    }

    #[test]
    fn workload_stays_under_4_gbytes_per_sec() {
        // §5.3: "uses no more than 4 GB/s of bandwidth between the FPGA
        // and host memory."
        let cfg = enzian_config();
        let bytes_per_tuple = 4.0 * 16.0 + 4.0;
        let demand = cfg.pipeline_tuples_per_sec() * bytes_per_tuple;
        assert!(demand < 4e9, "demand {demand:.2e} B/s");
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_feature_count_panics() {
        let e = ensemble();
        e.score(&[0.0; 3]);
    }
}
