"""Exact workbench for the algebra of braids and ties, its braid-generated
subalgebra, Hecke and monodromic Hecke algebras, and the Yokonuma-Hecke
algebra realized on functions on a finite basic affine space.

Everything is computed over exact scalars (rationals, Laurent polynomials
in v, integers mod a prime, cyclotomic numbers); every identity the
package claims is checked as an exact equality, never numerically, and
no computation divides by a polynomial.
"""

__version__ = "0.1.0"
