//! The evaluation engine: the batch execution path that builds the `Fmm`
//! a request [`Shape`] names over the process-wide [`PlanRegistry`], fans
//! a coalesced batch through [`Fmm::evaluate_requests`] and slices each
//! request's result back out. The registry is the only cache: an `Fmm` is
//! a cheap view over the translation set and plans it holds, so the engine
//! builds one per batch and keeps none.

use crate::batcher::Job;
use crate::metrics::Metrics;
use crate::protocol::{EvalResponse, Shape};
use fmm_core::{BatchRequest, Fmm, FmmConfig, PlanRegistry, Precision};
use fmm_tree::SEPARATION;
use std::sync::Arc;

/// Depth bound on requests: deeper hierarchies than this are almost
/// certainly hostile (8^9 boxes) rather than useful.
const MAX_DEPTH: u32 = 7;

pub struct Engine {
    registry: Arc<PlanRegistry>,
    pub metrics: Arc<Metrics>,
}

impl Engine {
    pub fn new(registry_capacity: usize) -> Self {
        Engine {
            registry: Arc::new(PlanRegistry::new(registry_capacity)),
            metrics: Arc::new(Metrics::default()),
        }
    }

    pub fn registry(&self) -> &Arc<PlanRegistry> {
        &self.registry
    }

    fn config_for(shape: &Shape) -> Result<FmmConfig, String> {
        if shape.depth < 2 || shape.depth > MAX_DEPTH {
            return Err(format!(
                "depth {} out of the served range 2..={}",
                shape.depth, MAX_DEPTH
            ));
        }
        if shape.order == 0 || shape.order > 16 {
            return Err(format!(
                "order {} out of the served range 1..=16",
                shape.order
            ));
        }
        // The method's near-field separation is two; the wire field only
        // names it.
        if i32::from(shape.separation) != SEPARATION {
            return Err(format!(
                "separation {} is not served (the method's is {SEPARATION})",
                shape.separation
            ));
        }
        let mut cfg = FmmConfig::order(shape.order as usize).depth(shape.depth);
        if shape.mixed {
            cfg = cfg.precision(Precision::Mixed);
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// The `Fmm` serving `shape` (`forces` is a call argument, not part of
    /// the configuration): its translation set and plans come from the
    /// shared registry, built only by the first shape that needs them.
    pub fn fmm_for(&self, shape: &Shape) -> Result<Fmm, String> {
        let cfg = Self::config_for(shape)?;
        Fmm::with_registry(cfg, Arc::clone(&self.registry)).map_err(|e| e.to_string())
    }

    /// Execute one coalesced batch and deliver each job its slice. Every
    /// job receives exactly one message, success or failure.
    pub fn run_batch(&self, shape: Shape, jobs: Vec<Job>) {
        let m = &self.metrics;
        Metrics::inc(&m.batches_total);
        Metrics::add(&m.batched_requests_total, jobs.len() as u64);
        if jobs.len() == 1 {
            Metrics::inc(&m.solo_batches_total);
        }
        let particles: usize = jobs.iter().map(|j| j.positions.len()).sum();
        Metrics::add(&m.particles_total, particles as u64);

        let fail_all = |jobs: &[Job], msg: &str| {
            Metrics::add(&m.errors_total, jobs.len() as u64);
            for j in jobs {
                let _ = j.tx.send(Err(msg.to_string()));
            }
        };

        let fmm = match self.fmm_for(&shape) {
            Ok(f) => f,
            Err(e) => return fail_all(&jobs, &e),
        };
        let requests: Vec<BatchRequest> = jobs
            .iter()
            .map(|j| BatchRequest {
                positions: &j.positions,
                charges: &j.charges,
            })
            .collect();
        let out = match fmm.evaluate_requests(&requests, shape.forces) {
            Ok(o) => o,
            Err(e) => return fail_all(&jobs, &e.to_string()),
        };
        let batch_size = jobs.len();
        for (i, j) in jobs.iter().enumerate() {
            let resp = EvalResponse {
                potentials: out.potentials_of(i).to_vec(),
                fields: out.fields_of(i).map(|f| f.to_vec()),
                batch_size,
            };
            let _ = j.tx.send(Ok(resp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_sync::mpsc;

    fn shape() -> Shape {
        Shape {
            order: 3,
            depth: 2,
            separation: 2,
            mixed: false,
            forces: false,
        }
    }

    /// A job of `n` particles and the receiver of its reply.
    fn job(seed: usize, n: usize) -> (Job, mpsc::Receiver<Result<EvalResponse, String>>) {
        let (tx, rx) = mpsc::sync_channel(1);
        let positions = (0..n)
            .map(|j| {
                let f = (seed * 37 + j) as f64 / 40.0;
                [f % 1.0, (f * 1.7) % 1.0, (f * 2.3) % 1.0]
            })
            .collect();
        let charges = (0..n)
            .map(|j| if j % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let job = Job {
            positions,
            charges,
            tx,
        };
        (job, rx)
    }

    #[test]
    fn shapes_share_one_set_and_one_plan_per_depth() {
        let eng = Engine::new(8);
        let mut seed = 0;
        for round in 0..2 {
            for depth in [2, 3] {
                for mixed in [false, true] {
                    for forces in [false, true] {
                        let s = Shape {
                            order: 5,
                            depth,
                            mixed,
                            forces,
                            ..shape()
                        };
                        seed += 1;
                        let (j, rx) = job(seed, 48);
                        let (positions, charges) = (j.positions.clone(), j.charges.clone());
                        eng.run_batch(s, vec![j]);
                        let got = rx.recv().unwrap().unwrap();
                        let solo = Fmm::new(Engine::config_for(&s).unwrap()).unwrap();
                        let want = if forces {
                            solo.evaluate_forces(&positions, &charges).unwrap()
                        } else {
                            solo.evaluate(&positions, &charges).unwrap()
                        };
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got.potentials), bits(&want.potentials), "{s:?}");
                        let flat = |f: Option<Vec<[f64; 3]>>| f.map(|f| bits(&f.concat()));
                        assert_eq!(flat(got.fields), flat(want.fields), "{s:?}");
                        let st = eng.registry().stats();
                        assert_eq!(st.set_builds, 1, "round {round}, {s:?}");
                    }
                }
            }
        }
        // One plan per depth, whatever the precision or the fields.
        assert_eq!(eng.registry().stats().plan_builds, 2);
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let eng = Engine::new(8);
        let mut s = shape();
        s.depth = 1;
        assert!(eng.fmm_for(&s).is_err());
        s = shape();
        s.separation = 3;
        assert!(eng.fmm_for(&s).is_err());
        // Any separation but two is refused by name before any build.
        s.separation = 1;
        let err = eng.fmm_for(&s).err().unwrap();
        assert!(err.contains("separation 1"), "{err}");
        assert_eq!(eng.registry().stats().set_builds, 0);
    }

    #[test]
    fn run_batch_answers_every_job() {
        let eng = Engine::new(8);
        let (jobs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|i| job(i, 32)).unzip();
        eng.run_batch(shape(), jobs);
        for rx in rxs {
            let resp = rx.recv().unwrap().unwrap();
            assert_eq!(resp.potentials.len(), 32);
            assert_eq!(resp.batch_size, 3);
        }
        assert_eq!(eng.registry().stats().plan_builds, 1);
    }
}
