#include "fault/table_cache.hpp"

#include "rmi/protocol.hpp"

namespace vcad::fault {

void DetectionTableCache::attachStore(std::shared_ptr<cache::ResultStore> store,
                                      std::uint64_t digest, std::uint64_t ns) {
  store_ = std::move(store);
  digest_ = digest;
  ns_ = ns;
}

std::uint32_t DetectionTableCache::addFault(const std::string& symbol) {
  const auto [it, fresh] =
      faultIds_.try_emplace(symbol, static_cast<std::uint32_t>(symbols_.size()));
  if (fresh) symbols_.push_back(symbol);
  return it->second;
}

cache::CacheKey DetectionTableCache::keyFor(const Word& inputs) const {
  // Mirror the provider's key derivation for GetDetectionTable byte for
  // byte: marshal the configuration exactly as the remote stub would, so
  // provider-warmed entries hit here and vice versa.
  rmi::Args args;
  args.addWord(inputs);
  return cache::resultKey(digest_, ns_,
                          static_cast<std::uint32_t>(
                              rmi::MethodId::GetDetectionTable),
                          args.buffer().bytes());
}

const DetectionTableCache::Pinned* DetectionTableCache::findPinned(
    const Word& inputs) const {
  const auto it = pinned_.find(inputs);
  return it == pinned_.end() ? nullptr : &it->second;
}

const DetectionTableCache::Pinned* DetectionTableCache::findStored(
    const Word& inputs) {
  if (!storeAttached()) return nullptr;
  cache::Value bytes = store_->fetch(keyFor(inputs));
  if (bytes == nullptr) return nullptr;
  net::ByteBuffer buf(*bytes);
  return pin(inputs, DetectionTable::deserialize(buf));
}

const DetectionTableCache::Pinned* DetectionTableCache::insert(
    const Word& inputs, DetectionTable table) {
  if (storeAttached()) {
    net::ByteBuffer buf;
    table.serialize(buf);
    store_->insert(keyFor(inputs), buf.bytes());
  }
  return pin(inputs, std::move(table));
}

const DetectionTableCache::Pinned* DetectionTableCache::pin(
    const Word& inputs, DetectionTable table) {
  Pinned entry{std::move(table), {}};
  entry.rowIds.reserve(entry.table.rows().size());
  for (const DetectionTable::Row& row : entry.table.rows()) {
    std::vector<std::uint32_t>& ids = entry.rowIds.emplace_back();
    ids.reserve(row.faults.size());
    for (const std::string& f : row.faults) ids.push_back(addFault(f));
  }
  return &pinned_.emplace(inputs, std::move(entry)).first->second;
}

}  // namespace vcad::fault
