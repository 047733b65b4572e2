"""symwalk: exact-arithmetic experiments on random walks over symplectic
and special linear generator families -- torsion growth of mapping-torus
homology, mod-p rank equidistribution, Heegaard-splitting homology,
Lyapunov spectra, and constructive homology prescription."""

__version__ = "0.1.0"

from .generators import (GeneratorFamily, hua_reiner, humphries_symplectic,
                         make_family, stanek, symmetric_closure)
from .homology import (DivisorChain, complexity_lower_bound, fp_rank,
                       heegaard_homology, mapping_torus_homology,
                       smith_normal_form, torsion_order)
from .intmat import IntMatrix, det, identity, is_symplectic, mat_mul, mod_p
from .prescribe import prescribe_symplectic, sl2_block, verify_prescription
from .walker import BatchConfig, Word, run_batch, sample_word, word_product
