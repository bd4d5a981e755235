#include "common/huge_pages.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace nmc::common {

void AdviseHugePages(const void* data, size_t bytes) {
  const ByteRange interior =
      HugePageInterior(reinterpret_cast<uintptr_t>(data), bytes);
  if (interior.length == 0) return;
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // The return value is dropped on purpose: a kernel without THP answers
  // EINVAL, and the buffer works the same on 4 KiB pages.
  static_cast<void>(madvise(reinterpret_cast<void*>(interior.begin),
                            interior.length, MADV_HUGEPAGE));
#endif
}

}  // namespace nmc::common
