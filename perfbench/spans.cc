#include "spans.h"

#include <cstdio>
#include <filesystem>

namespace perfbench {

bool WriteChromeTrace(const std::string& path, Clock::time_point origin,
                      const std::vector<Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}}",
                 first ? "" : ",", s.name, s.tid, Micros(origin, s.start),
                 s.micros(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
