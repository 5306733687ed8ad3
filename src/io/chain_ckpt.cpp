#include "apl/io/chain_ckpt.hpp"

#include <cstring>

#include "apl/error.hpp"

namespace apl::io {

ChainCheckpointer::ChainCheckpointer(std::string path, Options opts,
                                     index_t num_dats, bool replay)
    : store_(std::move(path)),
      opts_(opts),
      analysis_(num_dats),
      replaying_(replay) {
  if (!replay) return;
  replay_file_ = store_.load();
  const File& file = replay_file_;
  const auto entry = file.get<std::int64_t>("meta/entry_loop");
  require(entry.size() == 1, "checkpoint: malformed entry_loop");
  replay_entry_seq_ = static_cast<index_t>(entry[0]);
  // Global-output log: flat bytes + offsets + newline-joined loop names.
  const auto offsets = file.get<std::int64_t>("meta/gbl_offsets");
  const auto flat = file.get<std::uint8_t>("meta/gbl_log");
  require(!offsets.empty(), "checkpoint: malformed gbl_offsets");
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    replay_gbl_.emplace_back(flat.begin() + offsets[i],
                             flat.begin() + offsets[i + 1]);
  }
  const auto names_bytes = file.get<std::uint8_t>("meta/loop_names");
  std::string names(names_bytes.begin(), names_bytes.end());
  for (std::size_t pos = 0; pos < names.size();) {
    const std::size_t nl = names.find('\n', pos);
    replay_names_.push_back(names.substr(pos, nl - pos));
    pos = (nl == std::string::npos) ? names.size() : nl + 1;
  }
  require(static_cast<index_t>(replay_gbl_.size()) == replay_entry_seq_,
          "checkpoint: global log does not cover the fast-forward range");
}

void ChainCheckpointer::request_checkpoint() {
  require(!replaying_,
          "request_checkpoint: still fast-forwarding a restarted run");
  analysis_.request(opts_);
}

void ChainCheckpointer::finalize_checkpoint() {
  File& file = saving_;
  const index_t entry_seq = analysis_.entry_seq();
  file.put<std::int64_t>(
      "meta/entry_loop",
      std::vector<std::int64_t>{static_cast<std::int64_t>(entry_seq)}, {1});
  // Flatten the global-output log of loops [0, entry_seq).
  const auto& chain = analysis_.chain();
  std::vector<std::uint8_t> flat;
  std::vector<std::int64_t> offsets{0};
  std::string names;
  for (index_t i = 0; i < entry_seq; ++i) {
    flat.insert(flat.end(), gbl_log_[i].begin(), gbl_log_[i].end());
    offsets.push_back(static_cast<std::int64_t>(flat.size()));
    names += chain[i].name;
    names += '\n';
  }
  if (flat.empty()) flat.push_back(0);  // h5lite rejects rank-0 payloads only
  file.put<std::uint8_t>("meta/gbl_log", flat,
                         {static_cast<std::uint64_t>(flat.size())});
  file.put<std::int64_t>("meta/gbl_offsets", offsets,
                         {static_cast<std::uint64_t>(offsets.size())});
  std::vector<std::uint8_t> names_bytes(names.begin(), names.end());
  if (names_bytes.empty()) names_bytes.push_back('\n');
  file.put<std::uint8_t>("meta/loop_names", names_bytes,
                         {static_cast<std::uint64_t>(names_bytes.size())});
  store_.save(file);
  saving_ = File{};
  checkpoint_complete_ = true;
}

ChainCheckpointer::LoopAction ChainCheckpointer::on_loop(
    const std::string& name, std::vector<ckpt::ArgAccess> args) {
  if (replaying_) {
    // Replayed loops are logically part of the restarted run's history, so
    // they are recorded too — a later checkpoint after a restart sees a
    // consistent chain — but the save state machine stays out of it.
    analysis_.record(name, std::move(args));
    const index_t seq = analysis_.position();
    if (seq < replay_entry_seq_) {
      require(name == replay_names_[seq], "checkpoint replay: expected loop '",
              replay_names_[seq], "' at position ", seq,
              " but application issued '", name,
              "' — the restarted run diverged");
      return LoopAction::kSkipReplay;
    }
    // Reached the checkpoint entry: restore datasets, resume execution.
    for (const auto& [key, ds] : replay_file_.all()) {
      if (key.rfind("dat/", 0) != 0) continue;
      unpack_dat(key.substr(4), ds.bytes);
    }
    replaying_ = false;
    return LoopAction::kExecute;
  }

  const ckpt::ChainAnalysis::Step step =
      analysis_.step(name, std::move(args), opts_);
  for (index_t d : step.save_now) {
    // Pack *now*, before this loop executes: the dataset was untouched
    // since the checkpoint entry, so its current bytes are the entry
    // value the restart needs; the upcoming loop may modify it.
    const std::vector<std::uint8_t> bytes = pack_dat(d);
    saving_.put<std::uint8_t>("dat/" + dat_name(d), bytes,
                              {static_cast<std::uint64_t>(bytes.size())});
  }
  if (step.completed) finalize_checkpoint();
  return LoopAction::kExecute;
}

void ChainCheckpointer::after_loop(std::span<const std::uint8_t> gbl_payload) {
  gbl_log_.emplace_back(gbl_payload.begin(), gbl_payload.end());
  analysis_.advance();
}

void ChainCheckpointer::replay_gbl(void* dst, std::size_t bytes,
                                   std::size_t& offset) const {
  const std::vector<std::uint8_t>& payload = replay_gbl_[analysis_.position()];
  require(offset + bytes <= payload.size(),
          "checkpoint replay: global-output log too short (nondeterministic"
          " loop sequence?)");
  std::memcpy(dst, payload.data() + offset, bytes);
  offset += bytes;
}

void ChainCheckpointer::finish_replayed_loop() {
  gbl_log_.push_back(replay_gbl_[analysis_.position()]);
  analysis_.advance();
}

}  // namespace apl::io
