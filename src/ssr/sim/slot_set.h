// SlotSet: a set of slot ids as a word bitmap over a fixed id range.
//
// The cluster's free-slot indexes change on every task start and finish and
// on every reservation, claim, release and expiry.  As a bitmap each change
// is one bit flip with no allocation, iteration runs in ascending id order
// (the determinism every placement rule relies on) with one find-next-set
// per step, and a snapshot is a plain copy of the words.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/common/ids.h"

namespace ssr {

class SlotSet {
 public:
  /// Forward iterator over the members in ascending id order.
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = SlotId;
    using difference_type = std::ptrdiff_t;
    using reference = SlotId;

    iterator() = default;
    SlotId operator*() const { return SlotId{pos_}; }
    iterator& operator++() {
      pos_ = set_->next_from(pos_ + 1);
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& other) const { return pos_ == other.pos_; }

   private:
    friend class SlotSet;
    iterator(const SlotSet* set, std::uint32_t pos) : set_(set), pos_(pos) {}
    const SlotSet* set_ = nullptr;
    std::uint32_t pos_ = 0;
  };

  SlotSet() = default;
  /// An empty set over the slot ids [0, num_slots).
  explicit SlotSet(std::uint32_t num_slots)
      : words_((num_slots + kWordBits - 1) / kWordBits), num_slots_(num_slots) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool contains(SlotId id) const {
    return id.v < num_slots_ &&
           ((words_[id.v / kWordBits] >> (id.v % kWordBits)) & 1u) != 0;
  }

  /// Adds `id`; false if it was already a member.
  bool insert(SlotId id) {
    SSR_CHECK_OP(id.v, <, num_slots_);
    Word& w = words_[id.v / kWordBits];
    const Word bit = Word{1} << (id.v % kWordBits);
    if ((w & bit) != 0) return false;
    w |= bit;
    ++count_;
    return true;
  }

  /// Removes `id`; false if it was not a member.
  bool erase(SlotId id) {
    SSR_CHECK_OP(id.v, <, num_slots_);
    Word& w = words_[id.v / kWordBits];
    const Word bit = Word{1} << (id.v % kWordBits);
    if ((w & bit) == 0) return false;
    w &= ~bit;
    --count_;
    return true;
  }

  /// Adds every member of `other`, which must span the same id range.
  SlotSet& operator|=(const SlotSet& other) {
    SSR_CHECK_OP(other.num_slots_, ==, num_slots_);
    if (other.empty()) return *this;
    count_ = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
      count_ += static_cast<std::size_t>(std::popcount(words_[i]));
    }
    return *this;
  }

  /// The smallest member >= `from`, or the id-range size if there is none.
  std::uint32_t next_from(std::uint32_t from) const {
    std::size_t i = from / kWordBits;
    if (i >= words_.size()) return num_slots_;
    Word w = words_[i] & (~Word{0} << (from % kWordBits));
    while (w == 0) {
      if (++i == words_.size()) return num_slots_;
      w = words_[i];
    }
    return static_cast<std::uint32_t>(i * kWordBits) +
           static_cast<std::uint32_t>(std::countr_zero(w));
  }

  iterator begin() const { return iterator(this, next_from(0)); }
  iterator end() const { return iterator(this, num_slots_); }

 private:
  using Word = std::uint64_t;
  static constexpr std::uint32_t kWordBits = 64;

  std::vector<Word> words_;
  std::uint32_t num_slots_ = 0;
  std::size_t count_ = 0;
};

}  // namespace ssr
