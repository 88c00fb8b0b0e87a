"""cyclores: exact arithmetic and residue-symbol identities in prime
cyclotomic fields.

The package computes, without ever leaving exact arithmetic:

* the ring Z[zeta_p] on the power basis, with Galois action and norms;
* splitting of rational primes and residue-field reduction;
* p-th power residue symbols as exponents mod p;
* the two totally real cyclotomic unit families and their identities;
* Bernoulli numbers, irregular pairs, h^- and eigencomponent witnesses;
* a scan harness factoring (x^p +- y^p)/(x +- y) and verifying the
  congruence, symbol and telescoping identities attached to its prime
  factors.
"""

from .cycint import (
    ContextMismatchError,
    CycInt,
    FieldCtx,
    InternalError,
    coeffs_to_json,
    cyc_add,
    cyc_from_json,
    cyc_int,
    cyc_mul,
    cyc_new,
    cyc_one,
    cyc_sub,
    cyc_zero,
    field_ctx,
    galois,
    norm,
    zeta_power,
)
from .cycunits import (
    inv_one_plus_zeta,
    inv_unit_minus,
    inv_unit_plus,
    unit_minus,
    unit_plus,
    unit_product_check,
)
from .fltharness import (
    MINUS,
    PLUS,
    ScanRecord,
    ScanResult,
    barlow_abel_check,
    conjugate_symmetry_report,
    furtwangler_report,
    line_from_json,
    partial_to_json,
    record_from_json,
    record_to_json,
    scan,
    telescope_replay,
    verify_congruences,
    verify_lines,
    verify_symbol_identities,
)
from .powsym import (
    NotCoprimeError,
    UnsupportedIdealError,
    residue_symbol,
    symbol,
    zeta_symbol,
)
from .regulab import (
    IrregularPair,
    VandiverWitness,
    bernoulli,
    eigencomponent_symbol,
    h_minus,
    irregular_pairs,
    vandiver_witness,
)
from .resfield import (
    PrimeIdealRep,
    ResidueDegreeError,
    galois_image,
    ideal_dividing,
    ideal_from_modulus,
    ideal_from_root,
    ideal_to_json,
    residue,
    split_prime,
)

__version__ = "0.1.0"
