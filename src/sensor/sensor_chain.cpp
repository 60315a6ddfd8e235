#include "sensor/sensor_chain.hpp"

#include "util/units.hpp"

namespace fsc {

SensorChain::SensorChain(SensorChainParams params, AdcQuantizer adc, Rng& rng)
    : params_(params),
      adc_(adc),
      rng_(&rng),
      delay_(params.lag_s, params.sample_period_s, params.initial_value) {
  require(params.sample_period_s > 0.0, "SensorChain: sample period must be > 0");
  require(params.noise_stddev >= 0.0, "SensorChain: noise stddev must be >= 0");
}

SensorChain SensorChain::table1_defaults(Rng& rng) {
  return SensorChain(SensorChainParams{}, AdcQuantizer::table1_temperature_adc(), rng);
}

void SensorChain::set_fault(SensorFaultMode mode, double value) {
  require(mode != SensorFaultMode::kNoisy || value > 0.0,
          "SensorChain: noisy-fault stddev must be > 0");
  fault_mode_ = mode;
  fault_value_ = value;
}

void SensorChain::sample(double true_value) {
  double v = true_value;
  switch (fault_mode_) {
    case SensorFaultMode::kNone:
      break;
    case SensorFaultMode::kStuck:
      // The transducer froze: every sample reports the stuck-at value
      // (which still rides the normal lag + quantization downstream).
      v = fault_value_;
      break;
    case SensorFaultMode::kDropped:
      // No sample is delivered at all; the delay line stops advancing and
      // read() keeps reporting the last value that made it through.
      return;
    case SensorFaultMode::kNoisy:
      v = GaussianNoise(fault_value_).apply(v, *rng_);
      break;
  }
  if (params_.noise_stddev > 0.0) {
    v = GaussianNoise(params_.noise_stddev).apply(v, *rng_);
  }
  delay_.push(v);
}

double SensorChain::read() const noexcept {
  const double lagged = delay_.read();
  return params_.quantize ? adc_.quantize(lagged) : lagged;
}

double SensorChain::quantization_step() const noexcept {
  return params_.quantize ? adc_.step() : 0.0;
}

void SensorChain::reset(double value) {
  delay_.reset(value);
  phase_ = 0.0;
  // Pre-fill the line so read() reports `value` immediately and continues
  // to do so until fresher samples propagate through.
  for (std::size_t i = 0; i < delay_.depth(); ++i) delay_.push(value);
}

}  // namespace fsc
