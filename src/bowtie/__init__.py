"""Exact arithmetic in finite commutative rings and modules.

The package builds amalgamated duplications (the subring A join I of A x A
and the module M join I over it), decides prime / weakly prime / primary
membership questions with replayable witnesses, and runs an executable
checker for a family of transfer and characterization statements about
those duplications.
"""

from .rings import (
    TableRing,
    Ideal,
    RingAxiomError,
    ClosureError,
    make_zn,
    direct_product,
    subring_from_subset,
    ideal_generated,
    enumerate_ideals,
    radical,
)
from .modules import (
    TableModule,
    Submodule,
    ModuleMap,
    ring_as_module,
    submodule_generated,
    enumerate_submodules,
    colon_into_ring,
    colon_by_scalar,
    annihilator,
    quotient_module,
    is_cyclic,
)
from .classify import (
    Verdict,
    ImproperError,
    VARIANTS,
    is_prime_ideal,
    is_weakly_prime_ideal,
    is_primary_ideal,
    is_prime_submodule,
    is_weakly_prime_submodule_af,
    is_weakly_prime_submodule_azizi,
    is_weakly_prime_submodule_behboodi,
    is_weakly_prime_module,
    is_primary_submodule,
    is_irreducible_submodule,
    weakly_prime_submodule,
)
from .duplication import (
    BowtieInstance,
    build_bowtie,
    bowtie_submodule,
    distinguished_submodules,
    zero_cross_i,
    restrict_scalars,
    detect_bowtie_form,
)

__version__ = "0.1.0"
