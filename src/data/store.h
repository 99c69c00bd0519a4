// Process-wide keyed dataset store: the ONE cache of materialized Datasets.
//
// zoo::dataset() (api/zoo.h) keys it with canonical keys (data/source.h
// dataset_key()), so every recipe that names the same data shares one
// materialization.
//
// get() is build-through: the builder runs under the store lock (one
// builder per key, ever), and the returned reference is stable for the
// process lifetime (std::map nodes never move). Builders must not recurse
// into the store — derived entries (eval subsets) materialize their parent
// BEFORE calling get().
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "data/dataset.h"

namespace ber::data {

class DatasetStore {
 public:
  // Returns the cached Dataset for `key`, building it on first request.
  const Dataset& get(const std::string& key,
                     const std::function<Dataset()>& build);

  bool contains(const std::string& key) const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Dataset> cache_;
};

// The process-wide store.
DatasetStore& dataset_store();

}  // namespace ber::data
