//! A structural proxy of LULESH2 — the DOE shock-hydrodynamics miniapp
//! used in §V of the paper.
//!
//! The paper's LULESH2 measurements are functions of the *trace shape*:
//! the number of distinct functions per process (≈410), the highly
//! loopy per-cycle call structure (→ compression and NLR reduction),
//! and the inter-rank dependencies that let one stalled rank block all
//! others. This proxy reproduces that shape:
//!
//! * the real LULESH phase tree — `LagrangeLeapFrog` →
//!   (`LagrangeNodal` → force calculation, halo exchange,
//!   `LagrangeElements` → kinematics/EOS, `CalcTimeConstraintsForElems`);
//! * **parametric per-region kernel families**
//!   (`EvalEOSForElems_R<r>`, `CalcMonotonicQRegionForElems_R<r>`, …) —
//!   LULESH2's material regions — which push the distinct-function
//!   count into the hundreds, configurable via
//!   [`LuleshConfig::regions`];
//! * per-element inner loops over small real arrays (volume/stress
//!   updates), which give ParLOT-style traces their loop structure;
//! * ring halo exchange (`CommSend`/`CommRecv` wrapping
//!   `MPI_Send`/`MPI_Recv`) and a `TimeIncrement` `MPI_Allreduce`
//!   per cycle;
//! * OpenMP teams inside the nodal and element phases.
//!
//! The §V fault: [`LuleshFault::SkipLagrangeLeapFrog`] makes one rank
//! skip the whole phase — including its halo sends — so its neighbours
//! block in `CommRecv`, progress stalls globally, and every trace is
//! truncated (the paper: "the fault in process 2 prevents other
//! processes from making progress").

use dt_trace::FunctionRegistry;
use mpisim::{run, MpiError, Rank, ReduceOp, RunOutcome, SimConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fault injected into the LULESH proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuleshFault {
    /// The designated rank never invokes `LagrangeLeapFrog` (§V: rank 2).
    SkipLagrangeLeapFrog {
        /// The faulty rank.
        rank: u32,
    },
    /// The designated rank skips the `TimeIncrement` `MPI_Allreduce`
    /// and runs straight into the halo exchange: its neighbours sit in
    /// the collective waiting for it, while it blocks in `CommRecv`
    /// waiting for them — a true wait-for cycle through a collective
    /// (`hbcheck` HB001).
    SkipCollective {
        /// The faulty rank.
        rank: u32,
    },
}

/// Configuration of one LULESH-proxy execution.
#[derive(Debug, Clone)]
pub struct LuleshConfig {
    /// MPI ranks (the paper runs 8).
    pub ranks: u32,
    /// OpenMP team size per rank (the paper runs 4).
    pub threads: u32,
    /// Simulation cycles (the paper runs single-cycle).
    pub cycles: u32,
    /// Material regions — drives the distinct-function count.
    pub regions: u32,
    /// Elements per region — drives the call count / loop length.
    pub elems_per_region: u32,
    /// Optional fault.
    pub fault: Option<LuleshFault>,
}

impl LuleshConfig {
    /// The paper's setup: 8 ranks × 4 threads, single cycle, with
    /// enough regions to reach ≈400 distinct functions.
    pub fn paper(fault: Option<LuleshFault>) -> LuleshConfig {
        LuleshConfig {
            ranks: 8,
            threads: 4,
            cycles: 1,
            regions: 45,
            elems_per_region: 24,
            fault,
        }
    }

    /// §V fault: rank 2 skips `LagrangeLeapFrog`.
    pub fn skip_bug() -> LuleshFault {
        LuleshFault::SkipLagrangeLeapFrog { rank: 2 }
    }

    /// Full-scale configuration for the §V trace-statistics experiment
    /// (E8): ≈410 distinct functions and hundreds of thousands of
    /// calls per process, like the paper's single-cycle LULESH2 run.
    pub fn paper_scale() -> LuleshConfig {
        LuleshConfig {
            ranks: 8,
            threads: 4,
            cycles: 1,
            regions: 75,
            elems_per_region: 300,
            fault: None,
        }
    }
}

/// Mutable domain state: small but real hydro-ish arrays.
struct Domain {
    volumes: Vec<f64>,
    energies: Vec<f64>,
    dt: f64,
}

impl Domain {
    fn new(cfg: &LuleshConfig, rank: u32) -> Domain {
        let n = (cfg.regions * cfg.elems_per_region) as usize;
        Domain {
            volumes: (0..n)
                .map(|i| 1.0 + ((i as f64) + f64::from(rank)) * 1e-4)
                .collect(),
            energies: vec![1.0e5; n],
            dt: 1e-7,
        }
    }

    fn region_slice(&mut self, cfg: &LuleshConfig, r: u32) -> (usize, usize) {
        let per = cfg.elems_per_region as usize;
        let start = r as usize * per;
        (start, start + per)
    }
}

const SETUP_FUNCTIONS: &[&str] = &[
    "InitMeshDecomp",
    "BuildMesh",
    "SetupThreadSupportStructures",
    "CreateRegionIndexSets",
    "SetupSymmetryPlanes",
    "SetupElementConnectivities",
    "SetupBoundaryConditions",
    "AllocateNodePersistent",
    "AllocateElemPersistent",
    "AllocateGradients",
    "AllocateStrains",
    "SetupCommBuffers",
    "InitStressTermsForElems",
    "CalcElemVolume",
    "VerifyAndWriteFinalOutput",
];

/// Nodal phase: force calculation + position/velocity updates.
fn lagrange_nodal(rank: &Rank, cfg: &LuleshConfig, dom: &mut Domain) {
    let tr = rank.tracer();
    let nodal = tr.enter("LagrangeNodal");
    {
        let forces = tr.enter("CalcForceForNodes");
        let vf = tr.enter("CalcVolumeForceForElems");
        tr.leaf("InitStressTermsForElems");
        {
            let integ = tr.enter("IntegrateStressForElems");
            // OpenMP team partitions regions among worker threads.
            let work: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
            let work2 = work.clone();
            let cfg2 = cfg.clone();
            rank.omp_parallel_mw(
                cfg.threads,
                |_omp| {},
                move |omp| {
                    for r in omp.static_iters(cfg2.regions) {
                        let scope = omp.tracer().enter(&format!("IntegrateStressForElems_R{r}"));
                        let mut acc = 0u64;
                        for _e in 0..cfg2.elems_per_region {
                            omp.tracer().leaf("CalcElemShapeFunctionDerivatives");
                            omp.tracer().leaf("SumElemStressesToNodeForces");
                            acc = acc.wrapping_add(1);
                        }
                        work2.fetch_add(acc, Ordering::Relaxed);
                        drop(scope);
                    }
                },
            );
            drop(integ);
        }
        {
            let hg = tr.enter("CalcHourglassControlForElems");
            tr.leaf("CalcFBHourglassForceForElems");
            drop(hg);
        }
        drop(vf);
        drop(forces);
    }
    tr.leaf("CalcAccelerationForNodes");
    tr.leaf("ApplyAccelerationBoundaryConditionsForNodes");
    tr.leaf("CalcVelocityForNodes");
    tr.leaf("CalcPositionForNodes");
    // Touch the domain so the phase does real work.
    for v in dom.volumes.iter_mut() {
        *v *= 1.0 + dom.dt;
    }
    drop(nodal);
}

/// Ring halo exchange: even ranks send first.
fn halo_exchange(rank: &Rank, _cfg: &LuleshConfig, dom: &Domain) -> Result<(), MpiError> {
    let tr = rank.tracer();
    let me = rank.rank();
    let n = rank.size();
    let neighbors: Vec<u32> = [me.checked_sub(1), me.checked_add(1).filter(|&x| x < n)]
        .into_iter()
        .flatten()
        .collect();
    let payload = vec![dom.volumes.len() as i64, (dom.dt * 1e12) as i64];
    if me.is_multiple_of(2) {
        for &nb in &neighbors {
            let s = tr.enter("CommSend");
            rank.send(nb, 7, &payload)?;
            drop(s);
        }
        for &nb in &neighbors {
            let s = tr.enter("CommRecv");
            let _ = rank.recv(nb, 7)?;
            drop(s);
        }
    } else {
        for &nb in &neighbors {
            let s = tr.enter("CommRecv");
            let _ = rank.recv(nb, 7)?;
            drop(s);
        }
        for &nb in &neighbors {
            let s = tr.enter("CommSend");
            rank.send(nb, 7, &payload)?;
            drop(s);
        }
    }
    Ok(())
}

/// Element phase: kinematics, artificial viscosity, EOS per region.
fn lagrange_elements(rank: &Rank, cfg: &LuleshConfig, dom: &mut Domain) {
    let tr = rank.tracer();
    let elems = tr.enter("LagrangeElements");
    {
        let k = tr.enter("CalcLagrangeElements");
        tr.leaf("CalcKinematicsForElems");
        drop(k);
    }
    {
        let q = tr.enter("CalcQForElems");
        tr.leaf("CalcMonotonicQGradientsForElems");
        for r in 0..cfg.regions {
            tr.leaf(&format!("CalcMonotonicQRegionForElems_R{r}"));
        }
        drop(q);
    }
    {
        let apply = tr.enter("ApplyMaterialPropertiesForElems");
        for r in 0..cfg.regions {
            let eos = tr.enter(&format!("EvalEOSForElems_R{r}"));
            let (s, e) = dom.region_slice(cfg, r);
            // Six leaves per element: with returns kept this is a
            // 12-symbol loop body — foldable at K = 50 but not K = 10,
            // which is what makes the paper's §V NLR-reduction numbers
            // K-dependent.
            for i in s..e {
                tr.leaf("CalcEnergyForElems");
                tr.leaf("CalcPressureForElems");
                tr.leaf("CalcSoundSpeedForElems");
                tr.leaf("CalcElemVolumeDerivative");
                tr.leaf("ApplyMonotonicQForElems");
                tr.leaf("UpdateElemEnergy");
                // Real-ish EOS update.
                dom.energies[i] = (dom.energies[i] * dom.volumes[i]).max(1e-12);
            }
            drop(eos);
        }
        drop(apply);
    }
    tr.leaf("UpdateVolumesForElems");
    drop(elems);
}

fn calc_time_constraints(rank: &Rank, cfg: &LuleshConfig, dom: &mut Domain) {
    let tr = rank.tracer();
    let tc = tr.enter("CalcTimeConstraintsForElems");
    for r in 0..cfg.regions {
        tr.leaf(&format!("CalcCourantConstraintForElems_R{r}"));
        tr.leaf(&format!("CalcHydroConstraintForElems_R{r}"));
    }
    dom.dt = (dom.dt * 1.02).min(1e-5);
    drop(tc);
}

/// Run the LULESH proxy.
pub fn run_lulesh(cfg: &LuleshConfig, registry: Arc<FunctionRegistry>) -> RunOutcome {
    let cfg = cfg.clone();
    let sim = SimConfig::new(cfg.ranks).with_watchdog(std::time::Duration::from_secs(30));
    run(sim, registry, move |rank| {
        let tr = rank.tracer();
        let main = tr.enter("main");
        rank.init()?;
        let me = rank.comm_rank()?;
        let _ = rank.comm_size()?;
        for f in SETUP_FUNCTIONS.iter().take(SETUP_FUNCTIONS.len() - 1) {
            tr.leaf(f);
        }
        let mut dom = Domain::new(&cfg, me);
        rank.barrier()?;

        let skip = matches!(
            cfg.fault,
            Some(LuleshFault::SkipLagrangeLeapFrog { rank: fr }) if fr == me
        );
        let skip_coll = matches!(
            cfg.fault,
            Some(LuleshFault::SkipCollective { rank: fr }) if fr == me
        );
        for _cycle in 0..cfg.cycles {
            if !skip_coll {
                let ti = tr.enter("TimeIncrement");
                let gdt = rank.allreduce(&[(dom.dt * 1e12) as i64], ReduceOp::Min)?;
                dom.dt = gdt[0] as f64 / 1e12;
                drop(ti);
            }
            if skip {
                // §V fault: the whole Lagrange phase — including the
                // halo sends other ranks wait for — is skipped.
                continue;
            }
            let llf = tr.enter("LagrangeLeapFrog");
            lagrange_nodal(rank, &cfg, &mut dom);
            halo_exchange(rank, &cfg, &dom)?;
            lagrange_elements(rank, &cfg, &mut dom);
            calc_time_constraints(rank, &cfg, &mut dom);
            drop(llf);
        }
        let total_e: f64 = dom.energies.iter().sum();
        let _ = rank.reduce(&[total_e as i64], ReduceOp::Sum, 0)?;
        if me == 0 {
            tr.leaf("VerifyAndWriteFinalOutput");
        }
        rank.finalize()?;
        drop(main);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_trace::{TraceId, TraceSetStats};

    fn registry() -> Arc<FunctionRegistry> {
        Arc::new(FunctionRegistry::new())
    }

    fn tiny(fault: Option<LuleshFault>) -> LuleshConfig {
        LuleshConfig {
            ranks: 4,
            threads: 3,
            cycles: 2,
            regions: 6,
            elems_per_region: 5,
            fault,
        }
    }

    fn call_names(out: &RunOutcome, id: TraceId) -> Vec<String> {
        out.traces
            .get(id)
            .unwrap()
            .calls()
            .map(|e| out.traces.registry.name(e.fn_id()))
            .collect()
    }

    #[test]
    fn normal_run_completes() {
        let out = run_lulesh(&tiny(None), registry());
        assert!(!out.deadlocked, "{:?}", out.errors);
        assert!(out.errors.is_empty());
        let names = call_names(&out, TraceId::master(1));
        assert!(names.contains(&"LagrangeLeapFrog".to_string()));
        assert!(names.contains(&"EvalEOSForElems_R0".to_string()));
        assert!(names.contains(&"CommSend".to_string()));
        assert_eq!(names.last().unwrap(), "MPI_Finalize");
        assert_eq!(
            names.iter().filter(|n| *n == "LagrangeLeapFrog").count(),
            2,
            "one LagrangeLeapFrog per cycle"
        );
    }

    #[test]
    fn distinct_function_count_scales_with_regions() {
        let out = run_lulesh(&tiny(None), registry());
        let stats = TraceSetStats::measure(&out.traces);
        let distinct = stats.avg_distinct_per_process();
        // 6 regions × 5 families + fixed names: comfortably over 40.
        assert!(distinct > 40.0, "got {distinct}");
        // Paper-scale config reaches ≈400 (not run here: slower).
    }

    #[test]
    fn traces_are_loopy_enough_for_nlr() {
        let out = run_lulesh(&tiny(None), registry());
        let stats = TraceSetStats::measure(&out.traces);
        assert!(
            stats.overall_ratio() > 5.0,
            "compression ratio {} too low for loopy traces",
            stats.overall_ratio()
        );
    }

    #[test]
    fn skip_fault_stalls_everyone_and_truncates() {
        let out = run_lulesh(
            &tiny(Some(LuleshFault::SkipLagrangeLeapFrog { rank: 2 })),
            registry(),
        );
        assert!(out.deadlocked);
        // Rank 2 skipped the phase: no LagrangeLeapFrog in its trace.
        let t2 = call_names(&out, TraceId::master(2));
        assert!(!t2.contains(&"LagrangeLeapFrog".to_string()));
        // Its neighbours died inside the halo exchange.
        let t1 = out.traces.get(TraceId::master(1)).unwrap();
        assert!(t1.truncated);
        let last = t1.iter().next_back().unwrap();
        assert_eq!(out.traces.registry.name(last.fn_id()), "MPI_Recv");
    }

    #[test]
    fn skip_collective_is_a_true_wait_cycle_through_the_collective() {
        let reg = registry();
        let out = run_lulesh(
            &tiny(Some(LuleshFault::SkipCollective { rank: 2 })),
            reg.clone(),
        );
        assert!(out.deadlocked);
        // Rank 1 sits in the allreduce waiting for rank 2; rank 2 sits
        // in the halo receive waiting for rank 1 — a genuine cycle.
        let progress: Vec<_> = out
            .traces
            .iter()
            .map(|t| hbcheck::expanded::summarize(t.id, &t.events, t.truncated))
            .collect();
        let report = hbcheck::analyze(&out.hb, &progress, &reg);
        let cycle = report
            .diagnostics()
            .iter()
            .find(|d| d.code == hbcheck::HbCode::WaitCycle)
            .expect("HB001 must fire on the skipped-collective deadlock");
        assert!(
            cycle.message.contains("rank 1 blocked in MPI_Allreduce"),
            "{}",
            cycle.message
        );
        assert!(
            cycle
                .message
                .contains("rank 2 blocked in MPI_Recv(src=1, tag=7)"),
            "{}",
            cycle.message
        );
    }

    #[test]
    fn worker_threads_trace_region_kernels() {
        let out = run_lulesh(&tiny(None), registry());
        // Worker 1 of rank 0 ran some IntegrateStressForElems regions.
        let w = call_names(&out, TraceId::new(0, 1));
        assert!(
            w.iter().any(|n| n.starts_with("IntegrateStressForElems_R")),
            "{w:?}"
        );
        assert!(w.iter().any(|n| n == "CalcElemShapeFunctionDerivatives"));
    }

    #[test]
    fn deterministic_master_call_shapes() {
        let shape = |out: &RunOutcome| call_names(out, TraceId::master(0));
        let a = run_lulesh(&tiny(None), registry());
        let b = run_lulesh(&tiny(None), registry());
        assert_eq!(shape(&a), shape(&b));
    }
}
