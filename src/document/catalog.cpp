#include "document/catalog.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <shared_mutex>

namespace qosnp {

namespace {
std::atomic<std::uint64_t> next_catalog_uid{1};
}  // namespace

Catalog::Catalog() : uid_(next_catalog_uid.fetch_add(1, std::memory_order_relaxed)) {}

std::vector<std::string> Catalog::add(MultimediaDocument doc) {
  std::vector<std::string> problems = validate(doc);
  if (!problems.empty()) return problems;
  auto ptr = std::make_shared<const MultimediaDocument>(std::move(doc));
  const DocumentId id = ptr->id;
  std::unique_lock lk(mu_);
  docs_[id] = Entry{std::move(ptr), ++epoch_};
  return {};
}

bool Catalog::remove(const DocumentId& id) {
  std::unique_lock lk(mu_);
  if (docs_.erase(id) == 0) return false;
  ++epoch_;
  return true;
}

std::shared_ptr<const MultimediaDocument> Catalog::find(const DocumentId& id) const {
  std::shared_lock lk(mu_);
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : it->second.document;
}

Catalog::Entry Catalog::find_entry(const DocumentId& id) const {
  std::shared_lock lk(mu_);
  auto it = docs_.find(id);
  return it == docs_.end() ? Entry{} : it->second;
}

std::uint64_t Catalog::epoch() const {
  std::shared_lock lk(mu_);
  return epoch_;
}

std::uint64_t Catalog::epoch_of(const DocumentId& id) const {
  std::shared_lock lk(mu_);
  auto it = docs_.find(id);
  return it == docs_.end() ? 0 : it->second.epoch;
}

std::vector<DocumentId> Catalog::list() const {
  std::shared_lock lk(mu_);
  std::vector<DocumentId> ids;
  ids.reserve(docs_.size());
  for (const auto& [id, _] : docs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t Catalog::size() const {
  std::shared_lock lk(mu_);
  return docs_.size();
}

std::vector<VariantId> Catalog::variants_on_server(const ServerId& server) const {
  std::shared_lock lk(mu_);
  std::vector<VariantId> out;
  for (const auto& [_, entry] : docs_) {
    const auto& doc = entry.document;
    for (const Monomedia& m : doc->monomedia) {
      for (const Variant& v : m.variants) {
        if (v.server == server) out.push_back(v.id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace qosnp
