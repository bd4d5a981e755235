#include "sim/registry.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace nmc::sim {

ProtocolRegistry& ProtocolRegistry::Global() {
  // Magic-static init is itself thread-safe (C++11 [stmt.dcl]); the leaked
  // singleton then serializes its own accesses on mutex_, so first call may
  // come from any thread.
  // nmc-lint: allow(NO_MUTABLE_GLOBAL_STATE) magic-static init is thread-safe, and the registry serializes every access on mutex_
  static ProtocolRegistry* registry = new ProtocolRegistry();
  return *registry;
}

const ProtocolRegistry::Entry* ProtocolRegistry::Find(
    std::string_view name) const {
  // Callers hold mutex_, which serializes every entries_ access.
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const Entry& entry, std::string_view key) { return entry.name < key; });
  if (it == entries_.end() || it->name != name) return nullptr;
  return &*it;
}

bool ProtocolRegistry::Register(std::string name, const ProtocolTraits& traits,
                                Builder builder) {
  NMC_CHECK(!name.empty());
  NMC_CHECK(builder != nullptr);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Find(name) != nullptr) return false;
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const Entry& entry, const std::string& key) {
        return entry.name < key;
      });
  entries_.insert(it, Entry{std::move(name), traits, std::move(builder)});
  return true;
}

bool ProtocolRegistry::Contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return Find(name) != nullptr;
}

const ProtocolTraits* ProtocolRegistry::Traits(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Entry* entry = Find(name);
  return entry != nullptr ? &entry->traits : nullptr;
}

std::unique_ptr<Protocol> ProtocolRegistry::Create(
    std::string_view name, int num_sites, const ProtocolParams& params) const {
  // Copy the builder out so an arbitrarily slow (or recursively
  // registering) builder never runs under the table lock.
  Builder builder;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Entry* entry = Find(name);
    if (entry == nullptr) {
      std::fprintf(stderr,
                   "ProtocolRegistry: unknown protocol \"%.*s\"; known:",
                   static_cast<int>(name.size()), name.data());
      for (const Entry& known : entries_) {
        std::fprintf(stderr, " %s", known.name.c_str());
      }
      std::fprintf(stderr, "\n");
      NMC_CHECK(entry != nullptr);
    }
    builder = entry->builder;
  }
  std::unique_ptr<Protocol> protocol = builder(num_sites, params);
  NMC_CHECK(protocol != nullptr);
  NMC_CHECK_EQ(protocol->num_sites(), num_sites);
  return protocol;
}

std::vector<std::string> ProtocolRegistry::Names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  return names;
}

}  // namespace nmc::sim
