/// \file
/// Minimal contiguous-range view (C++17 has no std::span). Used by the
/// executor's RunBatch to accept programs from any contiguous container
/// without copying or templating the API.

#ifndef KERNELGPT_UTIL_SPAN_H_
#define KERNELGPT_UTIL_SPAN_H_

#include <cstddef>
#include <type_traits>
#include <vector>

namespace kernelgpt::util {

/// Non-owning view over a contiguous sequence of T.
template <typename T>
class Span {
 public:
  constexpr Span() = default;
  constexpr Span(T* data, size_t size) : data_(data), size_(size) {}

  /// Implicit from vector (a const vector requires const T).
  Span(std::vector<std::remove_const_t<T>>& v)
      : data_(v.data()), size_(v.size()) {}
  template <typename U = T, typename = std::enable_if_t<std::is_const_v<U>>>
  Span(const std::vector<std::remove_const_t<T>>& v)
      : data_(v.data()), size_(v.size()) {}

  constexpr T* data() const { return data_; }
  constexpr size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr T& operator[](size_t i) const { return data_[i]; }
  constexpr T* begin() const { return data_; }
  constexpr T* end() const { return data_ + size_; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace kernelgpt::util

#endif  // KERNELGPT_UTIL_SPAN_H_
