#pragma once

/// \file core.hpp
/// Umbrella header for the core module (the paper's contribution).

#include "core/bcc.hpp"                     // IWYU pragma: export
#include "core/cached_gradient_source.hpp"  // IWYU pragma: export
#include "core/collectors.hpp"              // IWYU pragma: export
#include "core/cyclic_repetition.hpp"       // IWYU pragma: export
#include "core/fractional_repetition.hpp"   // IWYU pragma: export
#include "core/gradient_source.hpp"         // IWYU pragma: export
#include "core/hetero.hpp"                  // IWYU pragma: export
#include "core/scheme.hpp"                  // IWYU pragma: export
#include "core/scheme_registry.hpp"         // IWYU pragma: export
#include "core/simple_random.hpp"           // IWYU pragma: export
#include "core/theory.hpp"                  // IWYU pragma: export
#include "core/uncoded.hpp"                 // IWYU pragma: export
