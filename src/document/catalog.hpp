// Catalog: the metadata service the 1996 prototype obtained from the
// U. Alberta multimedia DBMS [Vit 95]. The negotiation procedure consults it
// for the variants (and their block lengths / localisation) of every
// monomedia of the requested document. Thread-safe: the simulator negotiates
// many sessions concurrently against one catalog.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "document/model.hpp"

namespace qosnp {

class Catalog {
 public:
  /// A stored document together with the catalog epoch it was stored at.
  /// Epochs are drawn from a catalog-wide monotonically increasing counter
  /// that advances on every successful add/remove, so an unchanged epoch for
  /// a document id implies the *same* stored document object — the
  /// invalidation check the negotiation plan cache relies on. epoch 0 means
  /// "absent" (the counter starts at 1).
  struct Entry {
    std::shared_ptr<const MultimediaDocument> document;
    std::uint64_t epoch = 0;
  };

  Catalog();

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Process-unique identity, drawn from a static counter at construction
  /// and never reused (unlike an address). Together with a document id and
  /// an entry epoch it names exactly one stored document object — what the
  /// plan cache keys on instead of the document's content.
  std::uint64_t uid() const { return uid_; }

  /// Insert (or replace) a document. Returns the validation problem list;
  /// an invalid document is rejected and not stored. A successful insert
  /// bumps the catalog epoch.
  std::vector<std::string> add(MultimediaDocument doc);

  /// Remove a document; returns false when it was absent. A successful
  /// remove bumps the catalog epoch.
  bool remove(const DocumentId& id);

  /// Look up a document (nullptr when absent). The returned pointer stays
  /// valid until the document is removed/replaced.
  std::shared_ptr<const MultimediaDocument> find(const DocumentId& id) const;

  /// Look up a document together with its storage epoch ({nullptr, 0} when
  /// absent) in one lock acquisition.
  Entry find_entry(const DocumentId& id) const;

  /// The catalog-wide epoch counter (0 before the first mutation).
  std::uint64_t epoch() const;
  /// The storage epoch of one document (0 when absent).
  std::uint64_t epoch_of(const DocumentId& id) const;

  std::vector<DocumentId> list() const;
  std::size_t size() const;

  /// All variants of the whole catalog stored on a given server; used by
  /// server provisioning and the failure-injection experiments.
  std::vector<VariantId> variants_on_server(const ServerId& server) const;

 private:
  const std::uint64_t uid_;
  mutable std::shared_mutex mu_;
  std::unordered_map<DocumentId, Entry> docs_;
  std::uint64_t epoch_ = 0;
};

}  // namespace qosnp
