#include "clique/broadcast.hpp"

namespace ccq {

std::vector<std::optional<Word>> BcastCtx::round(std::optional<Word> mine) {
  // A 0- or 1-word broadcast: round()'s cost semantics (exactly 1 round
  // even when everyone stays silent), with the word stored once.
  const FlatInbox in = inner_.round_broadcast(
      mine.has_value() ? std::span<const Word>(&*mine, 1)
                       : std::span<const Word>());
  std::vector<std::optional<Word>> received(n());
  for (NodeId v = 0; v < n(); ++v) {
    const auto got = in.from(v);
    if (!got.empty()) received[v] = got.front();
  }
  if (mine.has_value()) received[id()] = *mine;  // own word visible locally
  return received;
}

RunResult run_broadcast_clique(const Instance& instance,
                               const BcastProgram& program) {
  return Engine::run(instance, [&program](NodeCtx& ctx) {
    BcastCtx bctx(ctx);
    program(bctx);
  });
}

RunResult run_broadcast_clique(const Graph& g,
                               const BcastProgram& program) {
  return run_broadcast_clique(Instance::of(g), program);
}

}  // namespace ccq
