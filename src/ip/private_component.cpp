#include "ip/private_component.hpp"

namespace vcad::ip {

PrivateComponent::PrivateComponent(std::shared_ptr<const gate::Netlist> netlist,
                                   gate::TechParams tech, bool dominance,
                                   int computeScale)
    : netlist_(std::move(netlist)),
      evaluator_(*netlist_),
      tech_(tech),
      tables_(*netlist_,
              fault::collapseAll(*netlist_, dominance,
                                 /*includePrimaryInputs=*/false,
                                 /*includePrimaryOutputNets=*/false)),
      computeScale_(computeScale < 1 ? 1 : computeScale) {}

Word PrivateComponent::eval(const Word& inputs) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    history_.push_back(inputs);
    ++evalCount_;
  }
  std::vector<Logic> values;  // scratch reused across the calibration loop
  evaluator_.evaluateInto(inputs, values);
  Word out = evaluator_.outputsOf(values);
  for (int i = 1; i < computeScale_; ++i) {
    // Calibrated extra work standing in for a heavyweight backend.
    evaluator_.evaluateInto(inputs, values);
    out = evaluator_.outputsOf(values);
  }
  return out;
}

double PrivateComponent::powerMw(const std::vector<Word>& patterns,
                                 std::size_t& billedPatterns) {
  if (!patterns.empty()) {
    billedPatterns = patterns.size();
    return gate::gateLevelPower(*netlist_, patterns, tech_).avgPowerMw;
  }
  std::vector<Word> recorded;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    recorded = history_;
  }
  billedPatterns = recorded.size();
  return gate::gateLevelPower(*netlist_, recorded, tech_).avgPowerMw;
}

double PrivateComponent::timingNs() const {
  return gate::criticalPathNs(*netlist_, tech_);
}

double PrivateComponent::areaUm2() const {
  return gate::areaOf(*netlist_, tech_);
}

std::vector<std::string> PrivateComponent::faultList() const {
  return tables_.symbols();
}

fault::DetectionTable PrivateComponent::detectionTable(
    const Word& inputs) const {
  return std::move(tables_.build({inputs})[0]);
}

std::vector<fault::DetectionTable> PrivateComponent::detectionTables(
    const std::vector<Word>& inputs) const {
  return tables_.build(inputs);
}

std::size_t PrivateComponent::evalCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evalCount_;
}

}  // namespace vcad::ip
