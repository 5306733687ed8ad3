#include "cloverleaf/cloverleaf_ops.hpp"

#include <algorithm>
#include <cmath>

namespace cloverleaf {

using ops::Access;
using ops::Range;

namespace {
constexpr std::array<ops::index_t, ops::kMaxDim> kHalo = {2, 2, 0};
}

CloverOps::CloverOps(const Options& opts) : opts_(opts) {
  const index_t nx = opts.nx, ny = opts.ny;
  dx_ = opts.xmax / nx;
  dy_ = dx_;  // square cells
  dt_ = opts.dtinit;

  blk_ = &ctx_.decl_block(2, "clover");
  sp_ = &ctx_.stencil_point(2);
  s_cell2node_ = &ctx_.decl_stencil(
      2, {{{0, 0, 0}}, {{1, 0, 0}}, {{0, 1, 0}}, {{1, 1, 0}}}, "cell2node");
  s_node2cell_ = &ctx_.decl_stencil(
      2, {{{0, 0, 0}}, {{-1, 0, 0}}, {{0, -1, 0}}, {{-1, -1, 0}}},
      "node2cell");
  s_xface_ = &ctx_.decl_stencil(2, {{{0, 0, 0}}, {{1, 0, 0}}}, "xface");
  s_yface_ = &ctx_.decl_stencil(2, {{{0, 0, 0}}, {{0, 1, 0}}}, "yface");
  s_xdonor_ = &ctx_.decl_stencil(
      2, {{{0, 0, 0}}, {{-1, 0, 0}}, {{1, 0, 0}}, {{0, -1, 0}}}, "xdonor");
  s_ydonor_ = &ctx_.decl_stencil(
      2, {{{0, 0, 0}}, {{0, -1, 0}}, {{0, 1, 0}}, {{-1, 0, 0}}}, "ydonor");
  s_mirror_xp_ = &ctx_.decl_stencil(
      2, {{{1, 0, 0}}, {{2, 0, 0}}, {{3, 0, 0}}, {{4, 0, 0}}}, "mirror_xp");
  s_mirror_xm_ = &ctx_.decl_stencil(
      2, {{{-1, 0, 0}}, {{-2, 0, 0}}, {{-3, 0, 0}}, {{-4, 0, 0}}},
      "mirror_xm");
  s_mirror_yp_ = &ctx_.decl_stencil(
      2, {{{0, 1, 0}}, {{0, 2, 0}}, {{0, 3, 0}}, {{0, 4, 0}}}, "mirror_yp");
  s_mirror_ym_ = &ctx_.decl_stencil(
      2, {{{0, -1, 0}}, {{0, -2, 0}}, {{0, -3, 0}}, {{0, -4, 0}}},
      "mirror_ym");

  const auto cell = [&](const char* name) {
    return &ctx_.decl_dat<double>(*blk_, 1, {nx, ny, 1}, kHalo, kHalo, name);
  };
  const auto node = [&](const char* name) {
    return &ctx_.decl_dat<double>(*blk_, 1, {nx + 1, ny + 1, 1}, kHalo,
                                  kHalo, name);
  };
  density0_ = cell("density0");
  density1_ = cell("density1");
  energy0_ = cell("energy0");
  energy1_ = cell("energy1");
  pressure_ = cell("pressure");
  viscosity_ = cell("viscosity");
  soundspeed_ = cell("soundspeed");
  xvel0_ = node("xvel0");
  xvel1_ = node("xvel1");
  yvel0_ = node("yvel0");
  yvel1_ = node("yvel1");
  vol_flux_x_ = &ctx_.decl_dat<double>(*blk_, 1, {nx + 1, ny, 1}, kHalo,
                                       kHalo, "vol_flux_x");
  mass_flux_x_ = &ctx_.decl_dat<double>(*blk_, 1, {nx + 1, ny, 1}, kHalo,
                                        kHalo, "mass_flux_x");
  ener_flux_x_ = &ctx_.decl_dat<double>(*blk_, 1, {nx + 1, ny, 1}, kHalo,
                                        kHalo, "ener_flux_x");
  vol_flux_y_ = &ctx_.decl_dat<double>(*blk_, 1, {nx, ny + 1, 1}, kHalo,
                                       kHalo, "vol_flux_y");
  mass_flux_y_ = &ctx_.decl_dat<double>(*blk_, 1, {nx, ny + 1, 1}, kHalo,
                                        kHalo, "mass_flux_y");
  ener_flux_y_ = &ctx_.decl_dat<double>(*blk_, 1, {nx, ny + 1, 1}, kHalo,
                                        kHalo, "ener_flux_y");
  node_flux_ = node("node_flux");
  mom_flux_ = node("mom_flux");

  // Flop hints (per grid point) for the machine models, matching the
  // relative kernel weights of the original code.
  ctx_.hint_flops("ideal_gas", 12.0);
  ctx_.hint_flops("viscosity", 20.0);
  ctx_.hint_flops("calc_dt", 25.0);
  ctx_.hint_flops("pdv", 25.0);
  ctx_.hint_flops("accelerate", 24.0);
  ctx_.hint_flops("flux_calc", 6.0);
  ctx_.hint_flops("advec_cell_flux", 6.0);
  ctx_.hint_flops("advec_cell", 12.0);
  ctx_.hint_flops("advec_mom_flux", 6.0);
  ctx_.hint_flops("advec_mom", 12.0);
  ctx_.hint_flops("field_summary", 18.0);

  if (opts.lazy) {
    ctx_.set_lazy(true);
    ctx_.set_tile_rows(opts.tile_rows);
  }

  initialise();
}

void CloverOps::enable_distributed(int nranks, apl::exec::Backend node_backend) {
  // The distributed layer drives rank-local loops itself; chains are
  // flushed and global lazy mode is dropped before handing the context
  // over. When the run was configured lazy, the rank contexts take over
  // the chaining instead — the exchange/fetch/scatter row copies reach
  // rank storage through raw(), which flushes pending per-rank chains.
  const bool lazy = ctx_.lazy();
  ctx_.set_lazy(false);
  dist_ = std::make_unique<ops::Distributed>(ctx_, nranks);
  dist_->set_node_backend(node_backend);
  if (lazy) dist_->set_node_lazy(true);
}

void CloverOps::initialise() {
  const double dx = dx_, dy = dy_;
  const Options o = opts_;
  const double ymax = opts_.xmax * opts_.ny / opts_.nx;
  loop("generate_chunk",
       Range::dim2(-2, opts_.nx + 2, -2, opts_.ny + 2),
       [dx, dy, o, ymax](ops::Acc<double> d, ops::Acc<double> e,
                         const int* idx) {
         const double x = (idx[0] + 0.5) * dx;
         const double y = (idx[1] + 0.5) * dy;
         const bool energetic =
             x < o.xmax * o.state2_xfrac && y < ymax * o.state2_yfrac;
         d(0, 0) = energetic ? o.rho_state2 : o.rho_ambient;
         e(0, 0) = energetic ? o.e_state2 : o.e_ambient;
       },
       ops::arg(*density0_, Access::kWrite),
       ops::arg(*energy0_, Access::kWrite), ops::arg_idx());
  ideal_gas(false);
  update_halo_cells();
}

void CloverOps::ideal_gas(bool predicted) {
  const double gamma = opts_.gamma;
  loop("ideal_gas", Range::dim2(0, opts_.nx, 0, opts_.ny),
       [gamma](ops::Acc<double> d, ops::Acc<double> e, ops::Acc<double> p,
               ops::Acc<double> ss) {
         p(0, 0) = (gamma - 1.0) * d(0, 0) * e(0, 0);
         ss(0, 0) = std::sqrt(gamma * p(0, 0) / d(0, 0));
       },
       ops::arg(predicted ? *density1_ : *density0_, Access::kRead),
       ops::arg(predicted ? *energy1_ : *energy0_, Access::kRead),
       ops::arg(*pressure_, Access::kWrite),
       ops::arg(*soundspeed_, Access::kWrite));
}

void CloverOps::viscosity_kernel() {
  const double dx = dx_, dy = dy_;
  loop("viscosity", Range::dim2(0, opts_.nx, 0, opts_.ny),
       [dx, dy](ops::Acc<double> xv, ops::Acc<double> yv,
                ops::Acc<double> d, ops::Acc<double> q) {
         const double du =
             0.5 * (xv(1, 0) + xv(1, 1) - xv(0, 0) - xv(0, 1));
         const double dv =
             0.5 * (yv(0, 1) + yv(1, 1) - yv(0, 0) - yv(1, 0));
         const double div = du / dx + dv / dy;
         q(0, 0) = div < 0.0 ? 2.0 * d(0, 0) * (du * du + dv * dv) : 0.0;
       },
       ops::arg(*xvel0_, *s_cell2node_, Access::kRead),
       ops::arg(*yvel0_, *s_cell2node_, Access::kRead),
       ops::arg(*density0_, Access::kRead),
       ops::arg(*viscosity_, Access::kWrite));
}

void CloverOps::calc_dt() {
  const double mind = std::min(dx_, dy_);
  const double cfl = opts_.cfl;
  double dt_local = 1e30;
  loop("calc_dt", Range::dim2(0, opts_.nx, 0, opts_.ny),
       [mind, cfl](ops::Acc<double> ss, ops::Acc<double> q,
                   ops::Acc<double> d, ops::Acc<double> xv,
                   ops::Acc<double> yv, double* dt) {
         const double u = 0.25 * std::abs(xv(0, 0) + xv(1, 0) + xv(0, 1) +
                                          xv(1, 1));
         const double v = 0.25 * std::abs(yv(0, 0) + yv(1, 0) + yv(0, 1) +
                                          yv(1, 1));
         const double qs = 2.0 * std::sqrt(q(0, 0) / d(0, 0));
         const double signal = ss(0, 0) + u + v + qs + 1e-30;
         dt[0] = std::min(dt[0], cfl * mind / signal);
       },
       ops::arg(*soundspeed_, Access::kRead),
       ops::arg(*viscosity_, Access::kRead),
       ops::arg(*density0_, Access::kRead),
       ops::arg(*xvel0_, *s_cell2node_, Access::kRead),
       ops::arg(*yvel0_, *s_cell2node_, Access::kRead),
       ops::arg_gbl(&dt_local, 1, Access::kMin));
  dt_ = std::min(dt_local, opts_.dtmax);
}

void CloverOps::pdv(bool predict) {
  const double dtc = predict ? 0.5 * dt_ : dt_;
  const double dx = dx_, dy = dy_;
  const double vol = dx_ * dy_;
  if (predict) {
    loop("pdv", Range::dim2(0, opts_.nx, 0, opts_.ny),
         [dtc, dx, dy, vol](ops::Acc<double> xv, ops::Acc<double> yv,
                            ops::Acc<double> d0, ops::Acc<double> e0,
                            ops::Acc<double> p, ops::Acc<double> q,
                            ops::Acc<double> d1, ops::Acc<double> e1) {
           const double left = 0.5 * (xv(0, 0) + xv(0, 1));
           const double right = 0.5 * (xv(1, 0) + xv(1, 1));
           const double bottom = 0.5 * (yv(0, 0) + yv(1, 0));
           const double top = 0.5 * (yv(0, 1) + yv(1, 1));
           const double div =
               ((right - left) * dy + (top - bottom) * dx) * dtc;
           d1(0, 0) = d0(0, 0) * vol / (vol + div);
           e1(0, 0) = e0(0, 0) -
                      (p(0, 0) + q(0, 0)) * div / (d0(0, 0) * vol);
         },
         ops::arg(*xvel0_, *s_cell2node_, Access::kRead),
         ops::arg(*yvel0_, *s_cell2node_, Access::kRead),
         ops::arg(*density0_, Access::kRead),
         ops::arg(*energy0_, Access::kRead),
         ops::arg(*pressure_, Access::kRead),
         ops::arg(*viscosity_, Access::kRead),
         ops::arg(*density1_, Access::kWrite),
         ops::arg(*energy1_, Access::kWrite));
  } else {
    loop("pdv", Range::dim2(0, opts_.nx, 0, opts_.ny),
         [dtc, dx, dy, vol](ops::Acc<double> xv0, ops::Acc<double> yv0,
                            ops::Acc<double> xv1, ops::Acc<double> yv1,
                            ops::Acc<double> d0, ops::Acc<double> e0,
                            ops::Acc<double> p, ops::Acc<double> q,
                            ops::Acc<double> d1, ops::Acc<double> e1) {
           const auto face = [](double a, double b) { return 0.5 * (a + b); };
           const double left =
               0.5 * (face(xv0(0, 0), xv0(0, 1)) + face(xv1(0, 0), xv1(0, 1)));
           const double right =
               0.5 * (face(xv0(1, 0), xv0(1, 1)) + face(xv1(1, 0), xv1(1, 1)));
           const double bottom =
               0.5 * (face(yv0(0, 0), yv0(1, 0)) + face(yv1(0, 0), yv1(1, 0)));
           const double top =
               0.5 * (face(yv0(0, 1), yv0(1, 1)) + face(yv1(0, 1), yv1(1, 1)));
           const double div =
               ((right - left) * dy + (top - bottom) * dx) * dtc;
           d1(0, 0) = d0(0, 0) * vol / (vol + div);
           e1(0, 0) = e0(0, 0) -
                      (p(0, 0) + q(0, 0)) * div / (d0(0, 0) * vol);
         },
         ops::arg(*xvel0_, *s_cell2node_, Access::kRead),
         ops::arg(*yvel0_, *s_cell2node_, Access::kRead),
         ops::arg(*xvel1_, *s_cell2node_, Access::kRead),
         ops::arg(*yvel1_, *s_cell2node_, Access::kRead),
         ops::arg(*density0_, Access::kRead),
         ops::arg(*energy0_, Access::kRead),
         ops::arg(*pressure_, Access::kRead),
         ops::arg(*viscosity_, Access::kRead),
         ops::arg(*density1_, Access::kWrite),
         ops::arg(*energy1_, Access::kWrite));
  }
}

void CloverOps::accelerate() {
  const double dt = dt_, dx = dx_, dy = dy_;
  const double vol = dx_ * dy_;
  loop("accelerate", Range::dim2(0, opts_.nx + 1, 0, opts_.ny + 1),
       [dt, dx, dy, vol](ops::Acc<double> d, ops::Acc<double> p,
                         ops::Acc<double> q, ops::Acc<double> xv0,
                         ops::Acc<double> yv0, ops::Acc<double> xv1,
                         ops::Acc<double> yv1) {
         const double nodal_mass =
             0.25 * vol *
             (d(-1, -1) + d(0, -1) + d(-1, 0) + d(0, 0));
         const double stb = dt / nodal_mass;
         const double px =
             0.5 * dy * ((p(0, -1) + p(0, 0)) - (p(-1, -1) + p(-1, 0)));
         const double py =
             0.5 * dx * ((p(-1, 0) + p(0, 0)) - (p(-1, -1) + p(0, -1)));
         const double qx =
             0.5 * dy * ((q(0, -1) + q(0, 0)) - (q(-1, -1) + q(-1, 0)));
         const double qy =
             0.5 * dx * ((q(-1, 0) + q(0, 0)) - (q(-1, -1) + q(0, -1)));
         xv1(0, 0) = xv0(0, 0) - stb * (px + qx);
         yv1(0, 0) = yv0(0, 0) - stb * (py + qy);
       },
       ops::arg(*density0_, *s_node2cell_, Access::kRead),
       ops::arg(*pressure_, *s_node2cell_, Access::kRead),
       ops::arg(*viscosity_, *s_node2cell_, Access::kRead),
       ops::arg(*xvel0_, Access::kRead),
       ops::arg(*yvel0_, Access::kRead),
       ops::arg(*xvel1_, Access::kWrite),
       ops::arg(*yvel1_, Access::kWrite));
}

void CloverOps::flux_calc() {
  const double dt = dt_, dx = dx_, dy = dy_;
  loop("flux_calc", Range::dim2(0, opts_.nx + 1, 0, opts_.ny),
       [dt, dy](ops::Acc<double> xv0, ops::Acc<double> xv1,
                ops::Acc<double> vfx) {
         vfx(0, 0) = 0.25 * dt * dy *
                     (xv0(0, 0) + xv0(0, 1) + xv1(0, 0) + xv1(0, 1));
       },
       ops::arg(*xvel0_, *s_yface_, Access::kRead),
       ops::arg(*xvel1_, *s_yface_, Access::kRead),
       ops::arg(*vol_flux_x_, Access::kWrite));
  loop("flux_calc_y", Range::dim2(0, opts_.nx, 0, opts_.ny + 1),
       [dt, dx](ops::Acc<double> yv0, ops::Acc<double> yv1,
                ops::Acc<double> vfy) {
         vfy(0, 0) = 0.25 * dt * dx *
                     (yv0(0, 0) + yv0(1, 0) + yv1(0, 0) + yv1(1, 0));
       },
       ops::arg(*yvel0_, *s_xface_, Access::kRead),
       ops::arg(*yvel1_, *s_xface_, Access::kRead),
       ops::arg(*vol_flux_y_, Access::kWrite));
}

void CloverOps::advec_cell(int dir, bool first_sweep) {
  // The remap works with the post-Lagrangian (pre-remap) cell volumes:
  // pre_vol = V plus the net volume flux still to be removed, post_vol the
  // volume after this sweep — exactly CloverLeaf's pre_vol/post_vol
  // arrays. This is what makes the remap mass- and energy-conservative.
  const double vol = dx_ * dy_;
  const index_t nx = opts_.nx, ny = opts_.ny;
  if (dir == 0) {
    loop("advec_cell_flux", Range::dim2(0, nx + 1, 0, ny),
         [](ops::Acc<double> vfx, ops::Acc<double> d1, ops::Acc<double> e1,
            ops::Acc<double> mfx, ops::Acc<double> efx) {
           const double v = vfx(0, 0);
           const double dd = v > 0.0 ? d1(-1, 0) : d1(0, 0);
           const double ee = v > 0.0 ? e1(-1, 0) : e1(0, 0);
           mfx(0, 0) = v * dd;
           efx(0, 0) = v * dd * ee;
         },
         ops::arg(*vol_flux_x_, Access::kRead),
         ops::arg(*density1_, *s_xdonor_, Access::kRead),
         ops::arg(*energy1_, *s_xdonor_, Access::kRead),
         ops::arg(*mass_flux_x_, Access::kWrite),
         ops::arg(*ener_flux_x_, Access::kWrite));
    loop("advec_cell", Range::dim2(0, nx, 0, ny),
         [vol, first_sweep](ops::Acc<double> vfx, ops::Acc<double> vfy,
                            ops::Acc<double> mfx, ops::Acc<double> efx,
                            ops::Acc<double> d1, ops::Acc<double> e1) {
           const double dvx = vfx(1, 0) - vfx(0, 0);
           const double dvy = vfy(0, 1) - vfy(0, 0);
           const double pre_vol = first_sweep ? vol + dvx + dvy : vol + dvx;
           const double post_vol = pre_vol - dvx;
           const double pre_mass = d1(0, 0) * pre_vol;
           const double post_mass = pre_mass + mfx(0, 0) - mfx(1, 0);
           const double post_e =
               (e1(0, 0) * pre_mass + efx(0, 0) - efx(1, 0)) / post_mass;
           d1(0, 0) = post_mass / post_vol;
           e1(0, 0) = post_e;
         },
         ops::arg(*vol_flux_x_, *s_xface_, Access::kRead),
         ops::arg(*vol_flux_y_, *s_yface_, Access::kRead),
         ops::arg(*mass_flux_x_, *s_xface_, Access::kRead),
         ops::arg(*ener_flux_x_, *s_xface_, Access::kRead),
         ops::arg(*density1_, Access::kRW),
         ops::arg(*energy1_, Access::kRW));
  } else {
    loop("advec_cell_flux", Range::dim2(0, nx, 0, ny + 1),
         [](ops::Acc<double> vfy, ops::Acc<double> d1, ops::Acc<double> e1,
            ops::Acc<double> mfy, ops::Acc<double> efy) {
           const double v = vfy(0, 0);
           const double dd = v > 0.0 ? d1(0, -1) : d1(0, 0);
           const double ee = v > 0.0 ? e1(0, -1) : e1(0, 0);
           mfy(0, 0) = v * dd;
           efy(0, 0) = v * dd * ee;
         },
         ops::arg(*vol_flux_y_, Access::kRead),
         ops::arg(*density1_, *s_ydonor_, Access::kRead),
         ops::arg(*energy1_, *s_ydonor_, Access::kRead),
         ops::arg(*mass_flux_y_, Access::kWrite),
         ops::arg(*ener_flux_y_, Access::kWrite));
    loop("advec_cell", Range::dim2(0, nx, 0, ny),
         [vol, first_sweep](ops::Acc<double> vfx, ops::Acc<double> vfy,
                            ops::Acc<double> mfy, ops::Acc<double> efy,
                            ops::Acc<double> d1, ops::Acc<double> e1) {
           const double dvx = vfx(1, 0) - vfx(0, 0);
           const double dvy = vfy(0, 1) - vfy(0, 0);
           const double pre_vol = first_sweep ? vol + dvx + dvy : vol + dvy;
           const double post_vol = pre_vol - dvy;
           const double pre_mass = d1(0, 0) * pre_vol;
           const double post_mass = pre_mass + mfy(0, 0) - mfy(0, 1);
           const double post_e =
               (e1(0, 0) * pre_mass + efy(0, 0) - efy(0, 1)) / post_mass;
           d1(0, 0) = post_mass / post_vol;
           e1(0, 0) = post_e;
         },
         ops::arg(*vol_flux_x_, *s_xface_, Access::kRead),
         ops::arg(*vol_flux_y_, *s_yface_, Access::kRead),
         ops::arg(*mass_flux_y_, *s_yface_, Access::kRead),
         ops::arg(*ener_flux_y_, *s_yface_, Access::kRead),
         ops::arg(*density1_, Access::kRW),
         ops::arg(*energy1_, Access::kRW));
  }
}

void CloverOps::advec_mom(int dir) {
  const double vol = dx_ * dy_;
  const index_t nx = opts_.nx, ny = opts_.ny;
  ops::Dat<double>* vels[2] = {xvel1_, yvel1_};
  for (ops::Dat<double>* vel : vels) {
    if (dir == 0) {
      // One column beyond the last node so the update loop's (1,0) reads
      // are defined; the extra fluxes sit over zeroed wall mass fluxes.
      loop("advec_mom_flux", Range::dim2(0, nx + 2, 0, ny + 1),
           [](ops::Acc<double> mfx, ops::Acc<double> v,
              ops::Acc<double> nf, ops::Acc<double> mf) {
             const double f = 0.5 * (mfx(0, -1) + mfx(0, 0));
             nf(0, 0) = f;
             mf(0, 0) = f * (f > 0.0 ? v(-1, 0) : v(0, 0));
           },
           ops::arg(*mass_flux_x_, *s_ydonor_, Access::kRead),
           ops::arg(*vel, *s_xdonor_, Access::kRead),
           ops::arg(*node_flux_, Access::kWrite),
           ops::arg(*mom_flux_, Access::kWrite));
      loop("advec_mom", Range::dim2(0, nx + 1, 0, ny + 1),
           [vol](ops::Acc<double> d1, ops::Acc<double> nf,
                 ops::Acc<double> mf, ops::Acc<double> v) {
             const double post_mass =
                 0.25 * vol *
                 (d1(-1, -1) + d1(0, -1) + d1(-1, 0) + d1(0, 0));
             const double pre_mass = post_mass - nf(0, 0) + nf(1, 0);
             v(0, 0) = (v(0, 0) * pre_mass + mf(0, 0) - mf(1, 0)) / post_mass;
           },
           ops::arg(*density1_, *s_node2cell_, Access::kRead),
           ops::arg(*node_flux_, *s_xface_, Access::kRead),
           ops::arg(*mom_flux_, *s_xface_, Access::kRead),
           ops::arg(*vel, Access::kRW));
    } else {
      loop("advec_mom_flux", Range::dim2(0, nx + 1, 0, ny + 2),
           [](ops::Acc<double> mfy, ops::Acc<double> v,
              ops::Acc<double> nf, ops::Acc<double> mf) {
             const double f = 0.5 * (mfy(-1, 0) + mfy(0, 0));
             nf(0, 0) = f;
             mf(0, 0) = f * (f > 0.0 ? v(0, -1) : v(0, 0));
           },
           ops::arg(*mass_flux_y_, *s_xdonor_, Access::kRead),
           ops::arg(*vel, *s_ydonor_, Access::kRead),
           ops::arg(*node_flux_, Access::kWrite),
           ops::arg(*mom_flux_, Access::kWrite));
      loop("advec_mom", Range::dim2(0, nx + 1, 0, ny + 1),
           [vol](ops::Acc<double> d1, ops::Acc<double> nf,
                 ops::Acc<double> mf, ops::Acc<double> v) {
             const double post_mass =
                 0.25 * vol *
                 (d1(-1, -1) + d1(0, -1) + d1(-1, 0) + d1(0, 0));
             const double pre_mass = post_mass - nf(0, 0) + nf(0, 1);
             v(0, 0) = (v(0, 0) * pre_mass + mf(0, 0) - mf(0, 1)) / post_mass;
           },
           ops::arg(*density1_, *s_node2cell_, Access::kRead),
           ops::arg(*node_flux_, *s_yface_, Access::kRead),
           ops::arg(*mom_flux_, *s_yface_, Access::kRead),
           ops::arg(*vel, Access::kRW));
    }
  }
}

void CloverOps::reset_field() {
  loop("reset_field", Range::dim2(0, opts_.nx, 0, opts_.ny),
       [](ops::Acc<double> d1, ops::Acc<double> e1, ops::Acc<double> d0,
          ops::Acc<double> e0) {
         d0(0, 0) = d1(0, 0);
         e0(0, 0) = e1(0, 0);
       },
       ops::arg(*density1_, Access::kRead),
       ops::arg(*energy1_, Access::kRead),
       ops::arg(*density0_, Access::kWrite),
       ops::arg(*energy0_, Access::kWrite));
  loop("reset_field_nodes", Range::dim2(0, opts_.nx + 1, 0, opts_.ny + 1),
       [](ops::Acc<double> xv1, ops::Acc<double> yv1, ops::Acc<double> xv0,
          ops::Acc<double> yv0) {
         xv0(0, 0) = xv1(0, 0);
         yv0(0, 0) = yv1(0, 0);
       },
       ops::arg(*xvel1_, Access::kRead),
       ops::arg(*yvel1_, Access::kRead),
       ops::arg(*xvel0_, Access::kWrite),
       ops::arg(*yvel0_, Access::kWrite));
}

void CloverOps::update_halo_cells() {
  const index_t nx = opts_.nx, ny = opts_.ny;
  ops::Dat<double>* fields[6] = {density0_, density1_, energy0_,
                                 energy1_,  pressure_, viscosity_};
  for (ops::Dat<double>* f : fields) {
    loop("halo_cell_xlo", Range::dim2(-2, 0, 0, ny),
         [](ops::Acc<double> fr, ops::Acc<double> fw, const int* idx) {
           fw(0, 0) = fr(-2 * idx[0] - 1, 0);
         },
         ops::arg(*f, *s_mirror_xp_, Access::kRead),
         ops::arg(*f, Access::kWrite), ops::arg_idx());
    loop("halo_cell_xhi", Range::dim2(nx, nx + 2, 0, ny),
         [nx](ops::Acc<double> fr, ops::Acc<double> fw, const int* idx) {
           fw(0, 0) = fr(-2 * (idx[0] - nx) - 1, 0);
         },
         ops::arg(*f, *s_mirror_xm_, Access::kRead),
         ops::arg(*f, Access::kWrite), ops::arg_idx());
    loop("halo_cell_ylo", Range::dim2(-2, nx + 2, -2, 0),
         [](ops::Acc<double> fr, ops::Acc<double> fw, const int* idx) {
           fw(0, 0) = fr(0, -2 * idx[1] - 1);
         },
         ops::arg(*f, *s_mirror_yp_, Access::kRead),
         ops::arg(*f, Access::kWrite), ops::arg_idx());
    loop("halo_cell_yhi", Range::dim2(-2, nx + 2, ny, ny + 2),
         [ny](ops::Acc<double> fr, ops::Acc<double> fw, const int* idx) {
           fw(0, 0) = fr(0, -2 * (idx[1] - ny) - 1);
         },
         ops::arg(*f, *s_mirror_ym_, Access::kRead),
         ops::arg(*f, Access::kWrite), ops::arg_idx());
  }
}

void CloverOps::update_halo_velocities() {
  const index_t nx = opts_.nx, ny = opts_.ny;
  // Impermeable box: wall-normal velocity is zero on the wall nodes.
  loop("halo_vel_wallx", Range::dim2(0, 1, 0, ny + 1),
       [](ops::Acc<double> xv) { xv(0, 0) = 0.0; },
       ops::arg(*xvel1_, Access::kWrite));
  loop("halo_vel_wallx2", Range::dim2(nx, nx + 1, 0, ny + 1),
       [](ops::Acc<double> xv) { xv(0, 0) = 0.0; },
       ops::arg(*xvel1_, Access::kWrite));
  loop("halo_vel_wally", Range::dim2(0, nx + 1, 0, 1),
       [](ops::Acc<double> yv) { yv(0, 0) = 0.0; },
       ops::arg(*yvel1_, Access::kWrite));
  loop("halo_vel_wally2", Range::dim2(0, nx + 1, ny, ny + 1),
       [](ops::Acc<double> yv) { yv(0, 0) = 0.0; },
       ops::arg(*yvel1_, Access::kWrite));
  // Mirror node halos: normal component odd, tangential even, about the
  // wall node (node nx is the high wall for a node field of extent nx+1).
  ops::Dat<double>* vels[2] = {xvel1_, yvel1_};
  for (int comp = 0; comp < 2; ++comp) {
    ops::Dat<double>* v = vels[comp];
    const double sx = comp == 0 ? -1.0 : 1.0;  // odd normal at x walls
    const double sy = comp == 1 ? -1.0 : 1.0;
    loop("halo_vel_xlo", Range::dim2(-2, 0, 0, ny + 1),
         [sx](ops::Acc<double> vr, ops::Acc<double> vw, const int* idx) {
           vw(0, 0) = sx * vr(-2 * idx[0], 0);
         },
         ops::arg(*v, *s_mirror_xp_, Access::kRead),
         ops::arg(*v, Access::kWrite), ops::arg_idx());
    loop("halo_vel_xhi", Range::dim2(nx + 1, nx + 3, 0, ny + 1),
         [sx, nx](ops::Acc<double> vr, ops::Acc<double> vw, const int* idx) {
           vw(0, 0) = sx * vr(-2 * (idx[0] - nx), 0);
         },
         ops::arg(*v, *s_mirror_xm_, Access::kRead),
         ops::arg(*v, Access::kWrite), ops::arg_idx());
    loop("halo_vel_ylo", Range::dim2(-2, nx + 3, -2, 0),
         [sy](ops::Acc<double> vr, ops::Acc<double> vw, const int* idx) {
           vw(0, 0) = sy * vr(0, -2 * idx[1]);
         },
         ops::arg(*v, *s_mirror_yp_, Access::kRead),
         ops::arg(*v, Access::kWrite), ops::arg_idx());
    loop("halo_vel_yhi", Range::dim2(-2, nx + 3, ny + 1, ny + 3),
         [sy, ny](ops::Acc<double> vr, ops::Acc<double> vw, const int* idx) {
           vw(0, 0) = sy * vr(0, -2 * (idx[1] - ny));
         },
         ops::arg(*v, *s_mirror_ym_, Access::kRead),
         ops::arg(*v, Access::kWrite), ops::arg_idx());
  }
}

void CloverOps::step() {
  const index_t nx = opts_.nx, ny = opts_.ny;
  ideal_gas(false);
  update_halo_cells();
  viscosity_kernel();
  update_halo_cells();
  calc_dt();
  pdv(true);
  ideal_gas(true);
  update_halo_cells();
  accelerate();
  update_halo_velocities();
  pdv(false);
  flux_calc();
  update_halo_cells();

  // Mass-flux halo fixups for the momentum advection: zero beyond the
  // walls, mirror in the transverse direction.
  const auto fixup_x = [&] {
    loop("mf_x_zero", Range::dim2(-1, 0, -1, ny + 1),
         [](ops::Acc<double> m) { m(0, 0) = 0.0; },
         ops::arg(*mass_flux_x_, Access::kWrite));
    loop("mf_x_zero2", Range::dim2(nx + 1, nx + 2, -1, ny + 1),
         [](ops::Acc<double> m) { m(0, 0) = 0.0; },
         ops::arg(*mass_flux_x_, Access::kWrite));
    loop("mf_x_mirror", Range::dim2(0, nx + 1, -1, 0),
         [](ops::Acc<double> mr, ops::Acc<double> mw) {
           mw(0, 0) = mr(0, 1);
         },
         ops::arg(*mass_flux_x_, *s_mirror_yp_, Access::kRead),
         ops::arg(*mass_flux_x_, Access::kWrite));
    loop("mf_x_mirror2", Range::dim2(0, nx + 1, ny, ny + 1),
         [](ops::Acc<double> mr, ops::Acc<double> mw) {
           mw(0, 0) = mr(0, -1);
         },
         ops::arg(*mass_flux_x_, *s_mirror_ym_, Access::kRead),
         ops::arg(*mass_flux_x_, Access::kWrite));
  };
  const auto fixup_y = [&] {
    loop("mf_y_zero", Range::dim2(-1, nx + 1, -1, 0),
         [](ops::Acc<double> m) { m(0, 0) = 0.0; },
         ops::arg(*mass_flux_y_, Access::kWrite));
    loop("mf_y_zero2", Range::dim2(-1, nx + 1, ny + 1, ny + 2),
         [](ops::Acc<double> m) { m(0, 0) = 0.0; },
         ops::arg(*mass_flux_y_, Access::kWrite));
    loop("mf_y_mirror", Range::dim2(-1, 0, 0, ny + 1),
         [](ops::Acc<double> mr, ops::Acc<double> mw) {
           mw(0, 0) = mr(1, 0);
         },
         ops::arg(*mass_flux_y_, *s_mirror_xp_, Access::kRead),
         ops::arg(*mass_flux_y_, Access::kWrite));
    loop("mf_y_mirror2", Range::dim2(nx, nx + 1, 0, ny + 1),
         [](ops::Acc<double> mr, ops::Acc<double> mw) {
           mw(0, 0) = mr(-1, 0);
         },
         ops::arg(*mass_flux_y_, *s_mirror_xm_, Access::kRead),
         ops::arg(*mass_flux_y_, Access::kWrite));
  };

  const bool x_first = (step_ % 2) == 0;
  if (x_first) {
    advec_cell(0, true);
    update_halo_cells();
    fixup_x();
    advec_mom(0);
    advec_cell(1, false);
    update_halo_cells();
    fixup_y();
    advec_mom(1);
  } else {
    advec_cell(1, true);
    update_halo_cells();
    fixup_y();
    advec_mom(1);
    advec_cell(0, false);
    update_halo_cells();
    fixup_x();
    advec_mom(0);
  }
  update_halo_velocities();
  reset_field();
  ++step_;
}

void CloverOps::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

FieldSummary CloverOps::field_summary() {
  const double vol = dx_ * dy_;
  FieldSummary out;
  double acc[5] = {0, 0, 0, 0, 0};
  loop("field_summary", Range::dim2(0, opts_.nx, 0, opts_.ny),
       [vol](ops::Acc<double> d, ops::Acc<double> e, ops::Acc<double> p,
             ops::Acc<double> xv, ops::Acc<double> yv, double* acc) {
         const double u =
             0.25 * (xv(0, 0) + xv(1, 0) + xv(0, 1) + xv(1, 1));
         const double v =
             0.25 * (yv(0, 0) + yv(1, 0) + yv(0, 1) + yv(1, 1));
         acc[0] += vol;
         acc[1] += d(0, 0) * vol;
         acc[2] += d(0, 0) * e(0, 0) * vol;
         acc[3] += 0.5 * d(0, 0) * vol * (u * u + v * v);
         acc[4] += p(0, 0) * vol;
       },
       ops::arg(*density0_, Access::kRead),
       ops::arg(*energy0_, Access::kRead),
       ops::arg(*pressure_, Access::kRead),
       ops::arg(*xvel0_, *s_cell2node_, Access::kRead),
       ops::arg(*yvel0_, *s_cell2node_, Access::kRead),
       ops::arg_gbl(acc, 5, Access::kInc));
  out.volume = acc[0];
  out.mass = acc[1];
  out.internal_energy = acc[2];
  out.kinetic_energy = acc[3];
  out.pressure = acc[4];
  out.dt = dt_;
  return out;
}

std::vector<double> CloverOps::density() {
  if (dist_) dist_->fetch(*density0_);
  std::vector<double> out;
  for (index_t j = 0; j < opts_.ny; ++j) {
    for (index_t i = 0; i < opts_.nx; ++i) out.push_back(*density0_->at(i, j));
  }
  return out;
}

std::vector<double> CloverOps::velocity_x() {
  if (dist_) dist_->fetch(*xvel0_);
  std::vector<double> out;
  for (index_t j = 0; j <= opts_.ny; ++j) {
    for (index_t i = 0; i <= opts_.nx; ++i) out.push_back(*xvel0_->at(i, j));
  }
  return out;
}

}  // namespace cloverleaf
