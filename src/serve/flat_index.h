// The serve layer's name for the oracle's read-only image. The oracle builds
// its bunch CSR and landmark slab directly in the layout the query path
// reads (see apps/distance_oracle.h), so there is no separate flattening
// step: the index is the oracle.
#pragma once

#include "apps/distance_oracle.h"

namespace ultra::serve {

using FlatOracleIndex = apps::DistanceOracle;

}  // namespace ultra::serve
