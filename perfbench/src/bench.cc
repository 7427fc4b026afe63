#include "bench.h"

#include <sys/resource.h>

namespace sudowoodo::perfbench {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace sudowoodo::perfbench
