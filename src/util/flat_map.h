// Sorted flat map: (key, value) pairs in one contiguous vector, ordered by
// key. Same iteration order as std::map (so anything serialized from it —
// wire encodings, endpoint listings, traces — stays byte-identical when a
// std::map is replaced), but lookups are a cache-friendly binary search with
// heterogeneous keys (no temporary std::string per string_view probe) and
// there are no per-node allocations. Iterators are invalidated by any
// mutation, exactly like a vector's.
//
// Used for the mbus endpoint and restarting tables (every delivery is one
// find() over about ten endpoints) and for xml::Element attributes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace mercury::util {

template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  /// First item with key >= `key` (heterogeneous: any K comparable to Key).
  template <typename K>
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const K& probe) { return item.first < probe; });
  }
  template <typename K>
  iterator lower_bound(const K& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const K& probe) { return item.first < probe; });
  }

  template <typename K>
  const_iterator find(const K& key) const {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  template <typename K>
  iterator find(const K& key) {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }

  template <typename K>
  bool contains(const K& key) const {
    return find(key) != items_.end();
  }

  /// Insert or overwrite; returns the stored value. Last write wins, like
  /// std::map::operator[] assignment.
  template <typename K>
  Value& insert_or_assign(K&& key, Value value) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) {
      it->second = std::move(value);
      return it->second;
    }
    it = items_.insert(it, value_type(Key(std::forward<K>(key)), std::move(value)));
    return it->second;
  }

  /// Insert if absent; returns {stored value, inserted}. The key is only
  /// copied/moved when an insert actually happens — one binary search either
  /// way (insert_or_assign + a separate contains() probe would take two).
  template <typename K>
  std::pair<Value*, bool> try_emplace(K&& key, Value value) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return {&it->second, false};
    it = items_.insert(it, value_type(Key(std::forward<K>(key)), std::move(value)));
    return {&it->second, true};
  }

  /// Erase by key; returns the number of items removed (0 or 1).
  template <typename K>
  std::size_t erase(const K& key) {
    const auto it = find(key);
    if (it == items_.end()) return 0;
    items_.erase(it);
    return 1;
  }

  bool operator==(const FlatMap& other) const { return items_ == other.items_; }

 private:
  std::vector<value_type> items_;
};

}  // namespace mercury::util
