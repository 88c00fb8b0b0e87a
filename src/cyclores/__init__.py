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

Each name is imported from its module (``cyclores.fltharness.scan``);
the package re-exports none, and a module's ``__all__`` lists its own.
"""

__version__ = "0.1.0"
