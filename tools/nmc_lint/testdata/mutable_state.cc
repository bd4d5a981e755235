// Fixture for NO_MUTABLE_GLOBAL_STATE. Linted as if at src/common/fixture.cc.
// Process-wide mutable state is a finding where it is declared, whoever
// calls the code around it: namespace-scope data, static data members and
// function-local statics alike. Const, constexpr, thread_local and
// per-object state are not.
namespace fix {

int g_mutable_counter = 0;  // EXPECT: NO_MUTABLE_GLOBAL_STATE
const int kLimit = 8;
constexpr double kScale = 2.0;

class Box {
 public:
  static int live_count_;  // EXPECT: NO_MUTABLE_GLOBAL_STATE
  static const int kMax = 4;
  int per_object_ = 0;

  int Next() {
    static int serial = 0;  // EXPECT: NO_MUTABLE_GLOBAL_STATE
    return ++serial;
  }
};

void CountCall(int packet) {
  static long calls = 0;  // EXPECT: NO_MUTABLE_GLOBAL_STATE
  static const int kTableSize = 4;
  static constexpr int kStride = 2;
  thread_local int scratch = 0;
  static thread_local int per_thread_total = 0;
  scratch = packet % kTableSize;
  per_thread_total += scratch * kStride;
  calls += scratch;
}

}  // namespace fix
