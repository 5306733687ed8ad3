#include "apl/mpisim/recovery.hpp"

#include <vector>

#include "apl/fault.hpp"
#include "apl/io/ckpt.hpp"

namespace apl::mpisim {

RecoveryDriver::RecoveryDriver(int nranks, std::string label,
                               Profile& profile)
    : comm_(nranks), label_(std::move(label)), profile_(&profile) {}

void RecoveryDriver::checkpoint(io::CheckpointStore& store,
                                std::int64_t step) {
  trace::Span span(trace::kCkpt, "dist_checkpoint");
  io::File file;
  save_dats(file);
  const std::vector<std::int64_t> stepv{step};
  file.put<std::int64_t>("meta/step", stepv, {1});
  // The writing rank count: restores onto a different count are legal
  // (that is what shrink recovery does), but a layout mismatch diagnostic
  // names both counts so cross-app restores are identifiable.
  const std::vector<std::int64_t> ranksv{comm_.size()};
  file.put<std::int64_t>("meta/nranks", ranksv, {1});
  store.save(file);
}

void RecoveryDriver::validate_layout(const io::File& file,
                                     int restoring_at) const {
  for (const auto& [key, stored] : file.all()) {
    if (key.rfind("dat/", 0) != 0) continue;
    const std::string name = key.substr(4);
    const std::string why = dat_layout_mismatch(name, stored);
    if (why.empty()) continue;
    std::string origin;
    if (file.contains("meta/nranks")) {
      const auto v = file.get<std::int64_t>("meta/nranks");
      if (!v.empty()) {
        origin = " (checkpoint written at " + std::to_string(v[0]) +
                 " ranks; restoring at " + std::to_string(restoring_at) +
                 ")";
      }
    }
    fail(label_, ": checkpoint layout mismatch for dat '", name, "': ", why,
         origin);
  }
}

std::int64_t RecoveryDriver::finish_recovery(const io::File& file,
                                             trace::Span& span, double t0) {
  const std::uint64_t bytes = replica_bytes();
  comm_.traffic().record_recovery(bytes, now_seconds() - t0);
  // Surface the redistribution traffic into the profile (and its JSON
  // export) as a pseudo-loop, alongside the per-loop halo_bytes.
  LoopStats& rec = profile_->stats("<recover>");
  ++rec.calls;
  rec.halo_bytes += bytes;
  span.set_bytes(bytes);
  const auto step = file.get<std::int64_t>("meta/step");
  return step.empty() ? 0 : step[0];
}

std::int64_t RecoveryDriver::recover(io::CheckpointStore& store) {
  trace::Span span(trace::kRecover, "dist_recover");
  const double t0 = now_seconds();
  const io::File file = store.load();
  validate_layout(file, comm_.size());
  comm_.revive_all();
  load_dats(file);
  scatter_all();
  return finish_recovery(file, span, t0);
}

std::int64_t RecoveryDriver::shrink_recover(io::CheckpointStore& store) {
  require(!comm_.failed_ranks().empty(), label_,
          ": shrink_recover: no failed ranks to shrink away");
  const int survivors =
      comm_.size() - static_cast<int>(comm_.failed_ranks().size());
  trace::Span span(trace::kRecover, "dist_shrink");
  const double t0 = now_seconds();
  // Load and validate while the communicator is still intact: a missing
  // or mismatched checkpoint must fail before anything is shrunk, so the
  // caller can retry with a good one.
  const io::File file = store.load();
  validate_layout(file, survivors);
  comm_.shrink();
  load_dats(file);
  // Every piece of distribution state is re-derived at the survivor count
  // from the global mesh description alone — the active-library property
  // that makes shrinking recovery possible without application help.
  redistribute();
  ++shrinks_done_;
  comm_.traffic().record_shrink();
  return finish_recovery(file, span, t0);
}

std::int64_t RecoveryDriver::recover_auto(io::CheckpointStore& store) {
  const resilience::Policy& p = resilience::policy();
  using resilience::LadderExhausted;
  using resilience::OnRankFailure;
  if (p.rank_failure == OnRankFailure::kRevive) return recover(store);
  if (p.rank_failure == OnRankFailure::kFail) {
    throw LadderExhausted(label_ +
                          ": rank failure and the resilience policy forbids "
                          "recovery (rank_failure=fail)");
  }
  const int survivors =
      comm_.size() - static_cast<int>(comm_.failed_ranks().size());
  if (survivors <= 0) {
    throw LadderExhausted(label_ + ": no surviving ranks to shrink onto");
  }
  if (shrinks_done_ < p.max_shrinks) return shrink_recover(store);
  if (p.single_rank_fallback && comm_.size() > 1) {
    // Shrink budget spent: the last rung collapses onto the first
    // survivor, where the run degenerates to (slow, safe) replicated
    // execution.
    trace::Span span(trace::kRecover, "fallback:single_rank");
    int keep = -1;
    for (int r = 0; r < comm_.size(); ++r) {
      if (!comm_.rank_failed(r)) {
        keep = r;
        break;
      }
    }
    for (int r = 0; r < comm_.size(); ++r) {
      if (r != keep && !comm_.rank_failed(r)) comm_.fail_rank(r);
    }
    return shrink_recover(store);
  }
  throw LadderExhausted(
      label_ + ": degradation ladder exhausted — shrink budget (" +
      std::to_string(p.max_shrinks) + ") spent and single-rank fallback " +
      (p.single_rank_fallback ? "already reached" : "disabled"));
}

resilience::Outcome RecoveryDriver::recover_outcome(
    io::CheckpointStore& store) {
  using resilience::Rung;
  const resilience::Policy& p = resilience::policy();
  const Traffic& tr = comm_.traffic();
  const std::uint64_t retries0 = tr.retries();
  const std::uint64_t shrinks0 = tr.shrinks();
  const double backoff0 = tr.retry_backoff_seconds();
  const double recsec0 = tr.recovery_seconds();
  // The rung recover_auto is about to take, named up front so a recovery
  // that fails on it (e.g. no valid checkpoint) reports the same rung a
  // successful one would.
  const Rung rung = p.rank_failure == resilience::OnRankFailure::kRevive
                        ? Rung::kRevive
                    : shrinks_done_ >= p.max_shrinks ? Rung::kFallback
                                                     : Rung::kShrink;
  resilience::Outcome out;
  try {
    out.resume_step = recover_auto(store);
    out.ok = true;
    out.rung = rung;
  } catch (const resilience::LadderExhausted& e) {
    out.rung = Rung::kExhausted;
    out.error = e.what();
    out.error_kind = "LadderExhausted";
  } catch (const fault::Kill&) {
    throw;  // a fresh injected crash is not a recovery verdict
  } catch (const Error& e) {
    out.rung = rung;
    out.error = e.what();
    out.error_kind = "Error";
  }
  out.retries = static_cast<int>(tr.retries() - retries0);
  out.shrinks = static_cast<int>(tr.shrinks() - shrinks0);
  out.backoff_seconds = tr.retry_backoff_seconds() - backoff0;
  out.recovery_seconds = tr.recovery_seconds() - recsec0;
  out.mttr = tr.mttr();
  return out;
}

}  // namespace apl::mpisim
