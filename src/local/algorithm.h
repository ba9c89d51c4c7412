// Local algorithms and verdicts (Section 1.2 of the paper).
//
// A local algorithm with horizon t maps the ball (G, x, Id) |` B(v, t) to a
// verdict. `id_oblivious()` declares that the output must not depend on the
// identifier assignment; the simulator enforces the declaration by stripping
// identifiers from the ball before evaluation, so an "oblivious" algorithm
// cannot cheat even by accident.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "local/ball.h"
#include "support/rng.h"

namespace locald::exec {
class ThreadPool;
}  // namespace locald::exec

namespace locald::local {

enum class Verdict { yes, no };

inline const char* to_string(Verdict v) {
  return v == Verdict::yes ? "yes" : "no";
}

class LocalAlgorithm {
 public:
  virtual ~LocalAlgorithm() = default;

  virtual std::string name() const = 0;
  virtual int horizon() const = 0;
  virtual bool id_oblivious() const = 0;

  // `ball` has ids stripped iff id_oblivious().
  virtual Verdict evaluate(const BallView& ball) const = 0;

  // Optional whole-graph path of an Id-oblivious algorithm: element v is
  // exactly evaluate() of v's stripped radius-horizon() ball, for every
  // node v of `g`, computed without extracting the balls (on `pool`, which
  // may be null). The default has none: run_panel then extracts each ball.
  virtual std::optional<std::vector<Verdict>> evaluate_all(
      const LabeledGraph& /*g*/, exec::ThreadPool* /*pool*/) const {
    return std::nullopt;
  }
};

// Adapter for lambda-defined algorithms.
class LambdaAlgorithm final : public LocalAlgorithm {
 public:
  using Fn = std::function<Verdict(const BallView&)>;

  LambdaAlgorithm(std::string name, int horizon, bool oblivious, Fn fn)
      : name_(std::move(name)),
        horizon_(horizon),
        oblivious_(oblivious),
        fn_(std::move(fn)) {
    LOCALD_CHECK(horizon_ >= 0, "horizon must be non-negative");
    LOCALD_CHECK(static_cast<bool>(fn_), "algorithm function must be set");
  }

  std::string name() const override { return name_; }
  int horizon() const override { return horizon_; }
  bool id_oblivious() const override { return oblivious_; }
  Verdict evaluate(const BallView& ball) const override { return fn_(ball); }

 private:
  std::string name_;
  int horizon_;
  bool oblivious_;
  Fn fn_;
};

inline std::unique_ptr<LocalAlgorithm> make_oblivious(
    std::string name, int horizon, LambdaAlgorithm::Fn fn) {
  return std::make_unique<LambdaAlgorithm>(std::move(name), horizon, true,
                                           std::move(fn));
}

inline std::unique_ptr<LocalAlgorithm> make_id_aware(
    std::string name, int horizon, LambdaAlgorithm::Fn fn) {
  return std::make_unique<LambdaAlgorithm>(std::move(name), horizon, false,
                                           std::move(fn));
}

// An id-aware algorithm of the shape both of the paper's deciders have: an
// Id-oblivious gate, then an id-dependent tail that reads only the centre's
// label and identifier (Section 3.2: verify G(M, r), then run M for
// min(Id(v), cap) steps; Section 2: verify P', then reject ids >= R(r)).
// The verdict is no wherever the gate, run on the stripped ball, says no,
// and the tail's verdict elsewhere. The simulator knows the shape: it
// decides the gate once per node like any Id-oblivious step (in bulk when
// the gate offers evaluate_all) and runs the tail on the centre alone, so a
// gated step needs no ball of its own (see run_panel in local/simulator.h).
class GatedAlgorithm final : public LocalAlgorithm {
 public:
  using Tail = std::function<Verdict(const Label& center, Id center_id)>;

  GatedAlgorithm(std::string name, std::shared_ptr<const LocalAlgorithm> gate,
                 Tail tail)
      : name_(std::move(name)), gate_(std::move(gate)), tail_(std::move(tail)) {
    LOCALD_CHECK(gate_ != nullptr, "gate must be set");
    LOCALD_CHECK(gate_->id_oblivious(), "a gate must be Id-oblivious");
    LOCALD_CHECK(static_cast<bool>(tail_), "tail function must be set");
  }

  std::string name() const override { return name_; }
  // The gate's horizon: gate and tail read the same ball.
  int horizon() const override { return gate_->horizon(); }
  bool id_oblivious() const override { return false; }
  Verdict evaluate(const BallView& ball) const override {
    return gate_->evaluate(ball.without_ids()) == Verdict::no
               ? Verdict::no
               : tail(ball.center_label(), ball.center_id());
  }

  const LocalAlgorithm& gate() const { return *gate_; }
  // The id-dependent part alone; meaningful only where the gate said yes.
  Verdict tail(const Label& center, Id center_id) const {
    return tail_(center, center_id);
  }

 private:
  std::string name_;
  std::shared_ptr<const LocalAlgorithm> gate_;
  Tail tail_;
};

// A randomized Id-oblivious algorithm of the same shape (Section 3.3: the
// Section-3.2 decider with Id(v) replaced by a coin draw): an Id-oblivious
// gate, then a tail that reads only the centre's label and the node's
// coins, an unbounded random string modelled as a per-node RNG stream. The
// verdict is no wherever the gate says no, and the tail's verdict
// elsewhere. The gate reads no coins, so estimate_acceptance decides it
// once for all trials (see local/simulator.h).
class RandomizedGatedAlgorithm final {
 public:
  using Tail = std::function<Verdict(const Label& center, Rng& coin)>;

  RandomizedGatedAlgorithm(std::string name,
                           std::shared_ptr<const LocalAlgorithm> gate,
                           Tail tail)
      : name_(std::move(name)), gate_(std::move(gate)), tail_(std::move(tail)) {
    LOCALD_CHECK(gate_ != nullptr, "gate must be set");
    LOCALD_CHECK(gate_->id_oblivious(), "a gate must be Id-oblivious");
    LOCALD_CHECK(static_cast<bool>(tail_), "tail function must be set");
  }

  const std::string& name() const { return name_; }
  const LocalAlgorithm& gate() const { return *gate_; }
  // The coin-dependent part alone; meaningful only where the gate said yes.
  Verdict tail(const Label& center, Rng& coin) const {
    return tail_(center, coin);
  }

 private:
  std::string name_;
  std::shared_ptr<const LocalAlgorithm> gate_;
  Tail tail_;
};

}  // namespace locald::local
