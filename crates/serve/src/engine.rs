//! The evaluation engine: a cache of `Fmm` instances keyed by request
//! [`Shape`] (fields or not is a call argument, not part of the key), all
//! sharing one process-wide [`PlanRegistry`], plus the batch execution
//! path that fans a coalesced batch through [`Fmm::evaluate_requests`]
//! and slices each request's result back out.

use crate::batcher::Job;
use crate::metrics::Metrics;
use crate::protocol::{EvalResponse, Shape};
use fmm_core::{BatchRequest, Fmm, FmmConfig, PlanRegistry, Precision, Separation};
use fmm_sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Depth bound on requests: deeper hierarchies than this are almost
/// certainly hostile (8^9 boxes) rather than useful.
const MAX_DEPTH: u32 = 7;

pub struct Engine {
    registry: Arc<PlanRegistry>,
    // det: keyed lookups only; never iterated.
    fmms: RwLock<HashMap<Shape, Arc<Fmm>>>,
    pub metrics: Arc<Metrics>,
}

impl Engine {
    pub fn new(registry_capacity: usize) -> Self {
        Engine {
            registry: Arc::new(PlanRegistry::new(registry_capacity)),
            // det: see the field justification.
            fmms: RwLock::new(HashMap::new()),
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
        let separation = match shape.separation {
            1 => Separation::One,
            2 => Separation::Two,
            d => return Err(format!("separation {} not in {{1, 2}}", d)),
        };
        let mut cfg = FmmConfig::order(shape.order as usize)
            .depth(shape.depth)
            .separation(separation);
        if shape.mixed {
            cfg = cfg.precision(Precision::Mixed);
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// The `Fmm` instance serving `shape`, built on first use. Shapes
    /// that differ only in `forces` share one instance and its translation
    /// set. All instances resolve plans from the shared registry, so a new
    /// tenant whose plan key matches a resident one costs zero plan builds.
    pub fn fmm_for(&self, shape: &Shape) -> Result<Arc<Fmm>, String> {
        let key = Shape {
            forces: false,
            ..*shape
        };
        if let Some(f) = self.fmms.read().unwrap().get(&key) {
            return Ok(Arc::clone(f));
        }
        let cfg = Self::config_for(&key)?;
        let built = Arc::new(
            Fmm::with_registry(cfg, Arc::clone(&self.registry)).map_err(|e| e.to_string())?,
        );
        let mut w = self.fmms.write().unwrap();
        // Double-check: another tenant may have built it while we did.
        Ok(Arc::clone(w.entry(key).or_insert(built)))
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

    #[test]
    fn instances_are_cached_and_share_the_registry() {
        let eng = Engine::new(8);
        let a = eng.fmm_for(&shape()).unwrap();
        let b = eng.fmm_for(&shape()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let mut forces = shape();
        forces.forces = true;
        // Fields are a call argument: a forces-only difference is the
        // same instance, translation set and plan.
        let c = eng.fmm_for(&forces).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        a.plan_for(2);
        c.plan_for(2);
        assert_eq!(eng.registry().stats().plan_builds, 1);
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
    }

    #[test]
    fn run_batch_answers_every_job() {
        let eng = Engine::new(8);
        let mut jobs = Vec::new();
        let mut rxs = Vec::new();
        for i in 0..3 {
            let (tx, rx) = mpsc::sync_channel(1);
            jobs.push(Job {
                positions: (0..32)
                    .map(|j| {
                        let f = (i * 37 + j) as f64 / 40.0;
                        [f % 1.0, (f * 1.7) % 1.0, (f * 2.3) % 1.0]
                    })
                    .collect(),
                charges: vec![1.0; 32],
                tx,
            });
            rxs.push(rx);
        }
        eng.run_batch(shape(), jobs);
        for rx in rxs {
            let resp = rx.recv().unwrap().unwrap();
            assert_eq!(resp.potentials.len(), 32);
            assert_eq!(resp.batch_size, 3);
        }
        assert_eq!(eng.registry().stats().plan_builds, 1);
    }
}
