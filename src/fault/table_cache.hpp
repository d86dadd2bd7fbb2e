// DetectionTableCache: the campaign engine's per-component detection-table
// cache, a thin adapter over the shared result store.
//
// Two layers, with distinct accounting:
//   pin map  — tables this campaign already holds, keyed by the observed
//              input configuration. Pointers are stable for the life of
//              the cache (campaign code binds rows by reference across
//              thousands of injections). A pin-map hit is the historical
//              `tableCacheHits` counter.
//   store    — optional view onto a shared cache::ResultStore, scoped by
//              the component's netlist-version digest. A store hit
//              deserializes the stored bytes and pins them: no client
//              fetch happens, counted as `tableStoreHits`. Fresh fetches
//              are written through so the next campaign (or tenant, or
//              process) starts warm.
//
// Pinning a table also resolves its rows' symbolic fault names to the
// component's integer fault ids (addFault()), once, so the per-pattern
// injection scan compares integers instead of building and looking up
// qualified names.
//
// The store key is derived exactly as the provider derives it for
// GetDetectionTable — same digest, same method id, same marshalled
// argument bytes — so a client-side view and a provider-side store
// attached to the same ResultStore share entries: a table the provider
// built for one user is a local, zero-round-trip hit for the next.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/result_store.hpp"
#include "fault/detection.hpp"

namespace vcad::fault {

class DetectionTableCache {
 public:
  /// A pinned table and, per row, the ids of the row's faults.
  struct Pinned {
    DetectionTable table;
    std::vector<std::vector<std::uint32_t>> rowIds;
  };

  DetectionTableCache() = default;

  /// Attaches a shared-store view. `digest` is the component's
  /// netlist-version digest (0 keeps the cache pin-map-only: unversioned
  /// results must not leak across campaigns); `ns` is the tenant
  /// namespace, 0 for single-tenant use.
  void attachStore(std::shared_ptr<cache::ResultStore> store,
                   std::uint64_t digest, std::uint64_t ns = 0);
  bool storeAttached() const { return store_ != nullptr && digest_ != 0; }

  /// The id of a symbolic fault name, assigning the next free id to a name
  /// not seen before. Phase 1 adds the component's fault list in order, so
  /// its faults take ids 0..n-1; a table row naming any other fault gets an
  /// id past the end of that list when the table is pinned.
  std::uint32_t addFault(const std::string& symbol);
  const std::string& faultSymbol(std::uint32_t id) const {
    return symbols_[id];
  }
  std::size_t faultCount() const { return symbols_.size(); }

  /// Pin-map lookup. Stable pointer, or null when this campaign has not
  /// seen the configuration yet.
  const Pinned* findPinned(const Word& inputs) const;

  /// Store probe for a configuration the pin map misses: on a store hit
  /// the bytes are deserialized, pinned, and returned (stable pointer);
  /// null when the store misses too — the caller fetches from its client
  /// and insert()s.
  const Pinned* findStored(const Word& inputs);

  /// Pins a freshly fetched table and writes it through to the store (when
  /// attached). Returns the stable pinned pointer.
  const Pinned* insert(const Word& inputs, DetectionTable table);

  std::size_t pinnedCount() const { return pinned_.size(); }

 private:
  cache::CacheKey keyFor(const Word& inputs) const;
  const Pinned* pin(const Word& inputs, DetectionTable table);

  std::unordered_map<Word, Pinned, WordHash> pinned_;
  std::unordered_map<std::string, std::uint32_t> faultIds_;
  std::vector<std::string> symbols_;
  std::shared_ptr<cache::ResultStore> store_;
  std::uint64_t digest_ = 0;
  std::uint64_t ns_ = 0;
};

}  // namespace vcad::fault
