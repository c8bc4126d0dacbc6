#include "model/demand.hpp"

namespace fedshare::model {

DemandProfile DemandProfile::single_experiment(double min_locations,
                                               double exponent,
                                               double units_per_location) {
  DemandProfile p;
  RequestClass rc;
  rc.count = 1.0;
  rc.min_locations = min_locations;
  rc.exponent = exponent;
  rc.units_per_location = units_per_location;
  p.classes.push_back(rc);
  p.validate();
  return p;
}

DemandProfile DemandProfile::uniform(double count, double min_locations,
                                     double exponent,
                                     double units_per_location) {
  DemandProfile p;
  RequestClass rc;
  rc.count = count;
  rc.min_locations = min_locations;
  rc.exponent = exponent;
  rc.units_per_location = units_per_location;
  p.classes.push_back(rc);
  p.validate();
  return p;
}

DemandProfile DemandProfile::saturating(double min_locations, double exponent,
                                        double units_per_location) {
  return uniform(kSaturatingCount, min_locations, exponent,
                 units_per_location);
}

void DemandProfile::validate() const {
  for (const auto& rc : classes) rc.validate();
}

RequestClass p2p_experiment(double count) {
  RequestClass rc;
  rc.count = count;
  rc.min_locations = 40.0;
  rc.units_per_location = 1.0;
  rc.holding_time = 0.1;
  return rc;
}

RequestClass cdn_service(double count) {
  RequestClass rc;
  rc.count = count;
  rc.min_locations = 100.0;
  rc.units_per_location = 4.0;
  rc.holding_time = 1.0;
  return rc;
}

RequestClass measurement_experiment(double count) {
  RequestClass rc;
  rc.count = count;
  rc.min_locations = 500.0;
  rc.units_per_location = 2.0;
  rc.holding_time = 0.4;
  return rc;
}

}  // namespace fedshare::model
