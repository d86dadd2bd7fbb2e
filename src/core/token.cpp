#include "core/token.hpp"

#include <stdexcept>

#include "core/connector.hpp"
#include "core/module.hpp"
#include "core/port.hpp"
#include "core/scheduler.hpp"

namespace vcad {

// --- SignalToken ---------------------------------------------------------

SignalToken::SignalToken(Port& target, Word value)
    : target_(&target), value_(std::move(value)) {
  if (!target.canReceive()) {
    throw std::logic_error("SignalToken target " + target.fullName() +
                           " is a pure output port");
  }
  if (value_.width() != target.width()) {
    throw std::invalid_argument("SignalToken value width " +
                                std::to_string(value_.width()) +
                                " does not match port " + target.fullName());
  }
}

void SignalToken::deliver(SimContext& ctx) {
  // The value becomes observable on the link at delivery time. Lock-free
  // arena write: the delivering scheduler owns its slot.
  if (Connector* conn = target_->connector()) {
    conn->setValue(ctx.scheduler.slot(), ctx.scheduler.slotGeneration(),
                   value_);
  }
  Module& m = target_->module();
  // Fault-injection hook: if the simulation controller installed an output
  // override for this module on this scheduler, the forced faulty output
  // configuration replaces the module's event handling.
  if (ctx.scheduler.applyOverride(m, ctx)) return;
  m.processInputEvent(*this, ctx);
}

std::string SignalToken::describe() const {
  return "signal " + value_.toString() + " -> " + target_->fullName();
}

// --- LatchToken ------------------------------------------------------------

LatchToken::LatchToken(Connector& conn, Word value)
    : conn_(&conn), value_(std::move(value)) {}

void LatchToken::deliver(SimContext& ctx) {
  conn_->setValue(ctx.scheduler.slot(), ctx.scheduler.slotGeneration(),
                  value_);
}

std::string LatchToken::describe() const {
  return "latch " + value_.toString() + " -> " + conn_->name();
}

// --- SelfToken -----------------------------------------------------------

SelfToken::SelfToken(Module& target, int tag) : target_(&target), tag_(tag) {}

void SelfToken::deliver(SimContext& ctx) { target_->processSelfEvent(*this, ctx); }

std::string SelfToken::describe() const {
  return "self(" + std::to_string(tag_) + ") -> " + target_->name();
}

// --- EstimationToken -----------------------------------------------------

EstimationToken::EstimationToken(Module& target, ParamKind kind,
                                 EstimationSink& sink)
    : target_(&target), kind_(kind), sink_(&sink) {}

void EstimationToken::deliver(SimContext& ctx) {
  target_->processEstimationToken(*this, ctx);
}

std::string EstimationToken::describe() const {
  return "estimate " + vcad::toString(kind_) + " -> " + target_->name();
}

}  // namespace vcad
