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
#include <string>

#include "local/ball.h"
#include "support/rng.h"

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

// Randomized local algorithm (Section 3.3): an unbounded random string per
// node, modelled as a per-node RNG stream.
class RandomizedLocalAlgorithm {
 public:
  virtual ~RandomizedLocalAlgorithm() = default;

  virtual std::string name() const = 0;
  virtual int horizon() const = 0;
  virtual bool id_oblivious() const = 0;

  virtual Verdict evaluate(const BallView& ball, Rng& coin) const = 0;
};

}  // namespace locald::local
