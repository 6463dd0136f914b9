#include "spans.h"

#include <cstdio>

namespace zbench {

Span::Span(Tracer& tracer, const char* name, const char* tag) : t_(tracer) {
  if (!t_.on) return;
  index_ = static_cast<uint32_t>(t_.spans.size());
  t_.spans.push_back({name, tag, t_.open, t_.round, nowNs(), 0});
  t_.open = index_;
}

Span::~Span() {
  if (index_ == Tracer::kNoParent) return;
  SpanRecord& s = t_.spans[index_];
  s.endNs = nowNs();
  t_.open = s.parent;
}

KeyedRounds Tracer::selfNsByRound() const {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].endNs - spans[i].startNs);
  }
  for (const SpanRecord& s : spans) {
    if (s.parent != kNoParent) {
      self[s.parent] -= static_cast<double>(s.endNs - s.startNs);
    }
  }
  KeyedRounds out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::string key = s.name;
    if (*s.tag) key += std::string(".") + s.tag;
    out[key][s.round] += self[i];
  }
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const uint64_t t0 = spans.empty() ? 0 : spans.front().startNs;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s%s%s\",\"cat\":\"zbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"round\":%u}}%s\n",
                 s.name, *s.tag ? "." : "", s.tag,
                 static_cast<double>(s.startNs - t0) / 1e3,
                 static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.round, i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace zbench
