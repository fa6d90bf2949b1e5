//! The one interpreter of [`TaskOp`]s: [`run`] looks at the op's kind,
//! locks the tiles and step cells its indices name, and calls the kernel.
//! What the task costs is not measured here: it is a closed form of the op
//! ([`TaskOp::cost`]).

use luqr_kernels::blas::{gemm, trsm, Diag, Side, Trans, UpLo};
use luqr_kernels::incpiv::{gessm, ssssm, tstrf};
use luqr_kernels::lu::getrf_continue;
use luqr_kernels::qr::{geqrt, tpmqrt, tpqrt, unmqr};
use luqr_kernels::Mat;

use crate::config::{Decision, StepRecord};
use crate::criteria::{decide, CritOutcome, DomainCritData, PanelCritData};
use crate::op::TaskOp;
use crate::panel::{apply_swap_plan, factor_diagonal_domain, with_stacked, PanelFactorization};
use crate::state::{RunCtx, StepCells, StepData};

/// Execute `op` against the run's tiles and step cells. A gated op whose
/// branch lost the step's decision does nothing.
pub(crate) fn run(op: TaskOp, ctx: &RunCtx) {
    use TaskOp::*;
    let k = op.step();
    let cells = ctx.steps.get(k);
    if op.gate().want().is_some_and(|want| cells.decided() != want) {
        return;
    }
    match op {
        Backup { i, .. } => backup(ctx, cells, k, i as usize),
        Crit { d, .. } => crit(ctx, cells, k, d as usize),
        Panel { .. } => trial_panel(ctx, cells, k),
        PanelA2 { .. } => a2_panel(ctx, cells, k),
        Prop { i, .. } => propagate(ctx, cells, k, i as usize),
        PanelLu { .. } => simple_panel(ctx, cells, k),
        Getrf { .. } => incpiv_diag(ctx, cells, k),
        SwpInit { j, .. } => swap_init(ctx, cells, k, j as usize),
        PivSwp { j, g, .. } => pivot_swap(ctx, cells, k, j as usize, g),
        TrsmTop { j, .. } => trsm_top(ctx, cells, k, j as usize),
        Trsm { i, .. } => trsm_eliminate(ctx, k, i as usize),
        Gemm { i, j, .. } => gemm_update(ctx, k, i as usize, j as usize),
        Geqrt { i, .. } => geqrt_tile(ctx, cells, k, i as usize),
        Unmqr { i, j, .. } => qt_apply(ctx, cells, k, i as usize, j as usize),
        Ormqr { j, .. } => qt_apply(ctx, cells, k, k, j as usize),
        Tpqrt { v, e, ts, .. } => kill(ctx, cells, k, v as usize, e as usize, ts),
        Tpmqrt { v, e, j, ts, .. } => {
            kill_update(ctx, cells, k, v as usize, e as usize, j as usize, ts)
        }
        Gessm { j, .. } => incpiv_gessm(ctx, cells, k, j as usize),
        Tstrf { i, .. } => incpiv_tstrf(ctx, cells, k, i as usize),
        Ssssm { i, j, .. } => incpiv_ssssm(ctx, cells, k, i as usize, j as usize),
    }
}

/// Run `f` on the top-left `rows x cols` of `tile`, copying through a
/// sub-matrix when the tile is larger (border tiles, R-region operations).
fn with_sub<R>(tile: &mut Mat, rows: usize, cols: usize, f: impl FnOnce(&mut Mat) -> R) -> R {
    if tile.dims() == (rows, cols) {
        f(tile)
    } else {
        let mut s = tile.sub(0, 0, rows, cols);
        let r = f(&mut s);
        tile.set_sub(0, 0, &s);
        r
    }
}

/// `tile` itself when it already is `rows x cols` (every tile but the
/// ragged edge), else a copy of its top-left `rows x cols`, parked in
/// `copy` — so the common case borrows in place.
fn top_left<'a>(tile: &'a Mat, rows: usize, cols: usize, copy: &'a mut Option<Mat>) -> &'a Mat {
    if tile.dims() == (rows, cols) {
        tile
    } else {
        copy.insert(tile.sub(0, 0, rows, cols))
    }
}

// --- hybrid panel phase -----------------------------------------------------

fn backup(ctx: &RunCtx, cells: &StepCells, k: usize, i: usize) {
    *cells.data().backup[i].lock() = Some(ctx.aug.tile_ref(i, k).lock().clone());
}

/// One node reduces the column norms of its off-trial panel rows locally
/// (the paper's communication-avoiding criterion all-reduce).
fn crit(ctx: &RunCtx, cells: &StepCells, k: usize, d: usize) {
    let rows = &cells.plan.crit_groups[d].1;
    let guards: Vec<_> = rows
        .iter()
        .map(|&i| ctx.aug.tile_ref(i, k).lock())
        .collect();
    let data = DomainCritData::from_tiles(guards.iter().map(|g| &**g));
    let _ = cells.data().crit[d].set(data);
}

/// Evaluate the criterion on the trial's and the off-trial groups' data,
/// record the step, and publish the decision.
fn decide_step(
    ctx: &RunCtx,
    cells: &StepCells,
    data: &StepData,
    k: usize,
    crit_panel: &PanelCritData,
    forced_qr: bool,
) {
    let domains: Vec<DomainCritData> = data
        .crit
        .iter()
        .map(|c| c.get().cloned().unwrap_or_default())
        .collect();
    let outcome = if forced_qr {
        CritOutcome {
            decision: Decision::Qr,
            lhs: 0.0,
            rhs: f64::INFINITY,
        }
    } else {
        decide(ctx.criterion(), k, crit_panel, &domains)
    };
    let panel_norm = crit_panel
        .below_diag_max_norm1
        .max(domains.iter().map(|d| d.max_tile_norm1).fold(0.0, f64::max));
    ctx.shared.records.lock().push(StepRecord {
        k,
        decision: outcome.decision,
        lhs: outcome.lhs,
        rhs: outcome.rhs,
        panel_norm,
    });
    let _ = cells.decision.set(outcome.decision);
}

/// Variant A1: trial LU of the diagonal domain, criterion evaluation
/// against the collected off-trial data, and the step's decision + record.
fn trial_panel(ctx: &RunCtx, cells: &StepCells, k: usize) {
    let data = cells.data();
    let mut guards: Vec<_> = cells
        .plan
        .trial_rows
        .iter()
        .map(|&i| ctx.aug.tile_ref(i, k).lock())
        .collect();
    let mut refs: Vec<&mut Mat> = guards.iter_mut().map(|g| &mut **g).collect();
    let (pf, crit_panel) = match factor_diagonal_domain(&mut refs, 4) {
        Ok(pf) => {
            let crit = pf.crit.clone();
            (Some(pf), crit)
        }
        Err((e, crit)) => {
            ctx.shared.fail(format!("panel {k}: {e}"));
            (None, crit)
        }
    };
    // An unfactorable panel forces the QR path.
    decide_step(ctx, cells, &data, k, &crit_panel, pf.is_none());
    if let Some(pf) = pf {
        let _ = data.panel.set(pf);
    }
}

/// Variant A2 (paper §II-C1): the trial factors the diagonal tile by QR, so
/// a rejected trial is already the first kernel of the QR step. The
/// criterion sees the tile's pre-factorization column norms and the `R`
/// factor's inverse-norm estimate.
fn a2_panel(ctx: &RunCtx, cells: &StepCells, k: usize) {
    let mut g = ctx.aug.tile_ref(k, k).lock();
    // Pre-factorization criterion data from the tile itself.
    let mut crit = PanelCritData {
        local_col_max: (0..g.cols()).map(|j| g.col_max_abs_from(j, 0)).collect(),
        ..Default::default()
    };
    let tf = geqrt(&mut g, ctx.opts.ib);
    crit.pivot_abs = (0..g.rows().min(g.cols()))
        .map(|j| g[(j, j)].abs())
        .collect();
    let est = luqr_kernels::norm_est::invnorm_est_r(&g, 4);
    crit.inv_norm_recip = if est > 0.0 { 1.0 / est } else { 0.0 };
    let data = cells.data();
    *data.tf[k].lock() = Some(tf);
    decide_step(ctx, cells, &data, k, &crit, false);
    let _ = data
        .panel
        .set(PanelFactorization::new(Vec::new(), crit, vec![g.rows()]));
}

/// Restore the trial tile from its backup when the decision was QR (the LU
/// trial is then dead weight), or drop the backup on an LU decision.
fn propagate(ctx: &RunCtx, cells: &StepCells, k: usize, i: usize) {
    let saved = cells.data().backup[i]
        .lock()
        .take()
        .expect("backup missing");
    if cells.decided() == Decision::Qr {
        *ctx.aug.tile_ref(i, k).lock() = saved;
    }
}

// --- baseline panels --------------------------------------------------------

/// LU NoPiv (pivots inside the diagonal tile) or, `full_panel`, LUPP
/// (pivots across the whole panel). Both continue LAPACK-style past zero
/// pivots (NaN flood, recorded in the shared state).
fn simple_panel(ctx: &RunCtx, cells: &StepCells, k: usize) {
    let mut guards: Vec<_> = cells
        .plan
        .trial_rows
        .iter()
        .map(|&i| ctx.aug.tile_ref(i, k).lock())
        .collect();
    let heights: Vec<usize> = guards.iter().map(|g| g.rows()).collect();
    let mut refs: Vec<&mut Mat> = guards.iter_mut().map(|g| &mut **g).collect();
    let (ipiv, info) = with_stacked(&mut refs, getrf_continue);
    if let Some(step) = info {
        ctx.shared
            .fail(format!("zero pivot at step {k} (panel column {step})"));
    }
    let _ = cells.data().panel.set(PanelFactorization::new(
        ipiv,
        PanelCritData::default(),
        heights,
    ));
}

/// IncPiv diagonal GETRF: in-tile partial pivoting, continuing past zero
/// pivots.
fn incpiv_diag(ctx: &RunCtx, cells: &StepCells, k: usize) {
    let mut t = ctx.aug.tile_ref(k, k).lock();
    let (ipiv, info) = getrf_continue(&mut t);
    if let Some(step) = info {
        ctx.shared
            .fail(format!("zero pivot at step {k} (column {step})"));
    }
    let _ = cells.data().panel.set(PanelFactorization::new(
        ipiv,
        PanelCritData::default(),
        vec![t.rows()],
    ));
}

// --- the LU step ------------------------------------------------------------

fn swap_init(ctx: &RunCtx, cells: &StepCells, k: usize, j: usize) {
    *cells.data().scratch[j].lock() = Some(ctx.aug.tile_ref(k, j).lock().clone());
}

/// One node exchanges *its own* rows of column `j` with the pivot block
/// (ScaLAPACK PDLASWP-style); group 0 also applies the permutation inside
/// the pivot block.
fn pivot_swap(ctx: &RunCtx, cells: &StepCells, k: usize, j: usize, g: u32) {
    let data = cells.data();
    let pf = data.panel.get().expect("panel missing");
    let nbk = ctx.aug.tile_cols(k);
    let rows = cells.plan.swap_rows(g);
    let spans: Vec<(usize, usize)> = rows
        .iter()
        .map(|&(i, off)| (off, ctx.aug.tile_rows(i)))
        .collect();
    let plan = pf.swap_plan(cells.plan.total_rows, nbk, &spans);
    let snapshot = data.scratch[j].lock();
    let orig = snapshot.as_ref().expect("missing swap snapshot");
    let mut top = ctx.aug.tile_ref(k, j).lock();
    let mut guards: Vec<_> = rows
        .iter()
        .map(|&(i, off)| (off, ctx.aug.tile_ref(i, j).lock()))
        .collect();
    let mut refs: Vec<(usize, &mut Mat)> = guards.iter_mut().map(|(o, g)| (*o, &mut **g)).collect();
    apply_swap_plan(&plan, orig, &mut top, &mut refs, g == 0);
}

/// Top solve: `U_kj = L11⁻¹ (P C)_top`.
fn trsm_top(ctx: &RunCtx, cells: &StepCells, k: usize, j: usize) {
    let _ = cells.data().panel.get().expect("panel missing");
    let nbk = ctx.aug.tile_cols(k);
    let l11 = ctx.aug.tile_ref(k, k).lock();
    // The solve reads only the strictly-lower triangle (unit diagonal).
    let mut copy = None;
    let l_top = top_left(&l11, nbk.min(l11.rows()), nbk.min(l11.cols()), &mut copy);
    let mut top = ctx.aug.tile_ref(k, j).lock();
    trsm(
        Side::Left,
        UpLo::Lower,
        Trans::NoTrans,
        Diag::Unit,
        1.0,
        l_top,
        &mut top,
    );
}

/// Eliminate: `A_ik <- A_ik U_kk⁻¹` (TRSM against the upper triangle of
/// the factored diagonal tile — `U_kk`, or `R` in variant A2).
fn trsm_eliminate(ctx: &RunCtx, k: usize, i: usize) {
    let nbk = ctx.aug.tile_cols(k);
    let kk = ctx.aug.tile_ref(k, k).lock();
    let mut copy = None;
    let u = top_left(&kk, nbk, nbk, &mut copy);
    let mut ik = ctx.aug.tile_ref(i, k).lock();
    trsm(
        Side::Right,
        UpLo::Upper,
        Trans::NoTrans,
        Diag::NonUnit,
        1.0,
        u,
        &mut ik,
    );
}

/// Schur update `A_ij -= A_ik A_kj`.
fn gemm_update(ctx: &RunCtx, k: usize, i: usize, j: usize) {
    let nbk = ctx.aug.tile_cols(k);
    let ik = ctx.aug.tile_ref(i, k).lock();
    let kj = ctx.aug.tile_ref(k, j).lock();
    // Only the top nbk rows of A_kj participate.
    let mut copy = None;
    let kj_top = top_left(&kj, nbk, kj.cols(), &mut copy);
    let mut ij = ctx.aug.tile_ref(i, j).lock();
    gemm(
        Trans::NoTrans,
        Trans::NoTrans,
        -1.0,
        &ik,
        kj_top,
        1.0,
        &mut ij,
    );
}

// --- the QR step ------------------------------------------------------------

fn geqrt_tile(ctx: &RunCtx, cells: &StepCells, k: usize, i: usize) {
    let f = geqrt(&mut ctx.aug.tile_ref(i, k).lock(), ctx.opts.ib);
    *cells.data().tf[i].lock() = Some(f);
}

/// `A_row,j <- Qᵀ A_row,j` (UNMQR) for the reflectors held in panel tile
/// `(row, k)`: the QR step's GEQRT updates and variant A2's pivot-row
/// apply.
fn qt_apply(ctx: &RunCtx, cells: &StepCells, k: usize, row: usize, j: usize) {
    let v = ctx.aug.tile_ref(row, k).lock();
    let data = cells.data();
    let tf = data.tf[row].lock();
    let mut c = ctx.aug.tile_ref(row, j).lock();
    unmqr(
        Trans::Trans,
        &v,
        tf.as_ref().expect("missing T factor"),
        &mut c,
    );
}

/// TS kills take a full square victim (`l = 0`); TT kills a triangular one
/// (`l` = its, possibly short, row count).
fn kill_l(ts: bool, vm: usize, nbk: usize) -> usize {
    if ts {
        0
    } else {
        vm.min(nbk)
    }
}

/// TSQRT / TTQRT of a victim/eliminator pair.
fn kill(ctx: &RunCtx, cells: &StepCells, k: usize, v: usize, e: usize, ts: bool) {
    let (vm, nbk) = ctx.aug.tile_dims(v, k);
    let mut eg = ctx.aug.tile_ref(e, k).lock();
    let mut vg = ctx.aug.tile_ref(v, k).lock();
    let f = with_sub(&mut eg, nbk, nbk, |r| {
        with_sub(&mut vg, vm, nbk, |b| {
            tpqrt(kill_l(ts, vm, nbk), r, b, ctx.opts.ib)
        })
    });
    *cells.data().tf[v].lock() = Some(f);
}

/// TSMQR / TTMQR: the kill's trailing update on the pair of rows.
fn kill_update(ctx: &RunCtx, cells: &StepCells, k: usize, v: usize, e: usize, j: usize, ts: bool) {
    let (vm, nbk) = ctx.aug.tile_dims(v, k);
    let w = ctx.aug.tile_cols(j);
    let vsg = ctx.aug.tile_ref(v, k).lock();
    let mut copy = None;
    let vview = top_left(&vsg, vm, nbk, &mut copy);
    let data = cells.data();
    let tf = data.tf[v].lock();
    let tfr = tf.as_ref().expect("missing T factor");
    let mut top = ctx.aug.tile_ref(e, j).lock();
    let mut bot = ctx.aug.tile_ref(v, j).lock();
    with_sub(&mut top, nbk, w, |a| {
        with_sub(&mut bot, vm, w, |b| {
            tpmqrt(Trans::Trans, kill_l(ts, vm, nbk), vview, tfr, a, b)
        })
    });
}

// --- LU IncPiv --------------------------------------------------------------

fn incpiv_gessm(ctx: &RunCtx, cells: &StepCells, k: usize, j: usize) {
    let nbk = ctx.aug.tile_cols(k);
    let w = ctx.aug.tile_cols(j);
    let data = cells.data();
    let pf = data.panel.get().expect("diag LU missing");
    let lu = ctx.aug.tile_ref(k, k).lock();
    // GESSM reads only the unit-lower part of the LU tile.
    let mut copy = None;
    let lu_sq = top_left(&lu, nbk.min(lu.rows()), nbk, &mut copy);
    let mut c = ctx.aug.tile_ref(k, j).lock();
    with_sub(&mut c, lu_sq.rows(), w, |top| gessm(lu_sq, &pf.ipiv, top));
}

fn incpiv_tstrf(ctx: &RunCtx, cells: &StepCells, k: usize, i: usize) {
    let nbk = ctx.aug.tile_cols(k);
    let mut ug = ctx.aug.tile_ref(k, k).lock();
    let mut ag = ctx.aug.tile_ref(i, k).lock();
    let mut l = Mat::zeros(ag.rows(), nbk);
    let piv = match with_sub(&mut ug, nbk, nbk, |u| tstrf(u, &mut ag, &mut l)) {
        Ok(piv) => piv,
        Err(e) => {
            ctx.shared.fail(format!("TSTRF({i},{k}): {e}"));
            Vec::new()
        }
    };
    let _ = cells.data().l[i].set((l, piv));
}

fn incpiv_ssssm(ctx: &RunCtx, cells: &StepCells, k: usize, i: usize, j: usize) {
    let nbk = ctx.aug.tile_cols(k);
    let w = ctx.aug.tile_cols(j);
    let data = cells.data();
    let (l, piv) = data.l[i].get().expect("TSTRF output missing");
    let mut top = ctx.aug.tile_ref(k, j).lock();
    let mut bot = ctx.aug.tile_ref(i, j).lock();
    with_sub(&mut top, nbk, w, |t| ssssm(l, piv, t, &mut bot));
}
