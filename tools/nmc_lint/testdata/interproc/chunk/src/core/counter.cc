// Chunk fixture: a protocol's ProcessChunk override is a hot-path root.
// NoteRun's push_back grows a vector the file never reserves, one call
// below the override, and StageSlot's emplace_back does the same. The
// override's own emplace_back appends to a queue the file reserves, which
// is the sanctioned pattern and not a finding.
#include <span>
#include <vector>

namespace fix {

class Protocol {
 public:
  virtual ~Protocol() = default;
  virtual long ProcessChunk(std::span<const int> sites,
                            std::span<const double> values) = 0;
};

class Counter final : public Protocol {
 public:
  Counter() { queue_.reserve(64); }
  long ProcessChunk(std::span<const int> sites,
                    std::span<const double> values) override;

 private:
  void NoteRun(long length);
  void StageSlot();

  std::vector<long> runs_;
  std::vector<long> staged_;
  std::vector<long> queue_;
};

void Counter::NoteRun(long length) { runs_.push_back(length); }

void Counter::StageSlot() { staged_.emplace_back(); }

long Counter::ProcessChunk(std::span<const int> sites,
                           std::span<const double> values) {
  NoteRun(static_cast<long>(sites.size()));
  StageSlot();
  queue_.emplace_back();
  return static_cast<long>(values.size());
}

}  // namespace fix
