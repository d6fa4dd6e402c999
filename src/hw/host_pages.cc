#include "src/hw/host_pages.h"

#include <sys/mman.h>

#include <cstdio>
#include <cstdlib>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace xok::hw {

HostPages::HostPages(size_t bytes) : bytes_(bytes) {
  if (bytes_ == 0) {
    return;
  }
  void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("xok: mmap");
    std::abort();
  }
  data_ = static_cast<uint8_t*>(p);
}

HostPages::~HostPages() {
  if (data_ == nullptr) {
    return;
  }
#if defined(__SANITIZE_ADDRESS__)
  // A fiber abandoned mid-run leaves its frames' redzones poisoned, and
  // munmap does not clear them; a later mapping at this address would
  // inherit them.
  __asan_unpoison_memory_region(data_, bytes_);
#endif
  munmap(data_, bytes_);
}

}  // namespace xok::hw
