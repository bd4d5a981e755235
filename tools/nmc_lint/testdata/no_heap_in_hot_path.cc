// Fixture for NO_HEAP_IN_HOT_PATH. Linted as if at src/sim/fixture.cc
// (protocol scope). The call-graph pass scans the bodies of the per-update
// and delivery entry points (OnLocalUpdate / ProcessUpdate / ... /
// DeliverAll / Route / Send* / On*Message) and everything they call, and
// flags heap traffic there: `new`, std::make_unique / std::make_shared, and
// push_back / emplace_back on a receiver the file never reserve()s.
// Constructors, uncalled helpers, declarations, reserved receivers: silent.
#include <memory>
#include <vector>

struct Message {
  int type = 0;
};

class Network {
 public:
  Network() {
    queue_.reserve(64);  // sanctioned: reserve in the ctor, push in the pump
  }

  void SendToCoordinator(int from_site, const Message& message) {
    queue_.push_back(message);    // reserved receiver: silent
    backlog_.push_back(message);  // EXPECT: NO_HEAP_IN_HOT_PATH
  }

  void Route(const Message& message) {
    auto* copy = new Message(message);  // EXPECT: NO_HEAP_IN_HOT_PATH
    delete copy;
    tap_ = std::make_unique<Message>(message);  // EXPECT: NO_HEAP_IN_HOT_PATH
  }

  void DeliverAll() {
    // A justified warm-up allocation uses the annotation escape:
    // nmc-lint: allow(NO_HEAP_IN_HOT_PATH) cold-path lazy init, amortized O(1) per trial
    scratch_.push_back(Message{});
    queue_.emplace_back();  // reserved receiver: silent
  }

  // Declaration only — no body, so not an entry point; the make_shared in
  // the helper right after it is outside every entry point's call chain.
  void ProcessUpdate(int site_id, double value);

  void RebuildRouting() {
    routes_ = std::make_shared<std::vector<int>>();  // helper body: silent
    routes_->push_back(0);                           // helper body: silent
  }

 private:
  std::vector<Message> queue_;
  std::vector<Message> backlog_;
  std::vector<Message> scratch_;
  std::unique_ptr<Message> tap_;
  std::shared_ptr<std::vector<int>> routes_;
};

// Near-misses that must NOT fire:
struct Renewal {
  int renew = 0;  // 'new' inside a longer identifier
};
void ProcessBatchStats(std::vector<int>* out) {  // name embedded in a longer one
  out->push_back(1);                             // ...so this is no entry point
}
