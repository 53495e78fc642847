#include "common/metrics.h"

#include <sstream>

namespace dprbg {

std::string to_string(const FieldCounters& c) {
  std::ostringstream os;
  os << "adds=" << c.adds << " muls=" << c.muls << " invs=" << c.invs
     << " interps=" << c.interpolations;
  return os.str();
}

std::string to_string(const CommCounters& c) {
  std::ostringstream os;
  os << "msgs=" << c.messages << " bytes=" << c.bytes
     << " rounds=" << c.rounds;
  return os.str();
}

std::string to_string(const FaultCounters& c) {
  std::ostringstream os;
  os << "dropped=" << c.dropped << " delayed=" << c.delayed
     << " duplicated=" << c.duplicated << " corrupted=" << c.corrupted;
  return os.str();
}

}  // namespace dprbg
