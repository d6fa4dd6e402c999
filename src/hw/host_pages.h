// An anonymous host memory mapping: it reads as zero, and a page is backed
// only once touched. Big simulator arrays (physical memory, fiber stacks) live
// here rather than on the malloc heap, so no heap trim can hand them back to
// the OS and refault them on the next run.
#ifndef XOK_SRC_HW_HOST_PAGES_H_
#define XOK_SRC_HW_HOST_PAGES_H_

#include <cstddef>
#include <cstdint>

namespace xok::hw {

class HostPages {
 public:
  HostPages() = default;
  explicit HostPages(size_t bytes);  // Aborts if the host refuses the mapping.
  ~HostPages();

  HostPages(const HostPages&) = delete;
  HostPages& operator=(const HostPages&) = delete;

  uint8_t* data() const { return data_; }

 private:
  uint8_t* data_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_HOST_PAGES_H_
