// Shared helper for doctored-cache tests: rewrites the IR payload of the
// entries in a plan-cache directory while keeping their containers valid
// (header, key hashes and CRC are written fresh by Store::save). A test
// uses it to plant a schedule that loads cleanly but is malformed, so the
// decoder's own rejections, not the container checks, must catch it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apl/io/plan_cache.hpp"

namespace test_support {

/// Passes the payload of every `kind` entry in `store`'s directory to
/// `doctor`; when it returns true the edited payload is saved back under
/// the same key. Entry names are Store::entry_name's
/// <kind>-<topology>-<program>-<config>-v<version>.plan. Resets the
/// store's statistics afterwards and returns the number of entries
/// rewritten.
inline std::size_t rewrite_entries(
    apl::plan_cache::Store& store, const std::string& kind,
    const std::function<bool(std::vector<std::uint8_t>&)>& doctor) {
  std::vector<apl::plan_cache::Key> keys;
  for (const auto& entry :
       std::filesystem::directory_iterator(store.directory())) {
    const std::string name = entry.path().filename().string();
    const std::string prefix = kind + "-";
    if (name.rfind(prefix, 0) != 0 || entry.path().extension() != ".plan") {
      continue;
    }
    // <topology>-<program>-<config>-v<version>, fixed-width hex fields.
    const std::string rest = name.substr(prefix.size());
    if (rest.size() < 3 * 17 + 2 || rest.compare(3 * 17, 1, "v") != 0) {
      continue;
    }
    apl::plan_cache::Key key;
    key.kind = kind.c_str();
    key.topology = std::stoull(rest.substr(0, 16), nullptr, 16);
    key.program = std::stoull(rest.substr(17, 16), nullptr, 16);
    key.config = std::stoull(rest.substr(34, 16), nullptr, 16);
    key.version = static_cast<std::uint32_t>(std::stoul(rest.substr(52)));
    keys.push_back(key);
  }
  std::size_t rewritten = 0;
  for (const apl::plan_cache::Key& key : keys) {
    std::optional<std::vector<std::uint8_t>> payload = store.load(key);
    if (payload && doctor(*payload)) {
      store.save(key, *payload);
      ++rewritten;
    }
  }
  store.reset_stats();
  return rewritten;
}

}  // namespace test_support
