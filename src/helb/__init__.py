"""HELB: homomorphic encrypted-list blacklisting for IPv4 addresses.

A library and CLI that test whether an IPv4 address falls inside any
network of an encrypted CIDR blacklist, without revealing either side.
Backends: a depth-0 lattice scheme over Z_q[x]/(x^n + 1) and six partially
homomorphic schemes, all implemented from first principles on Python
integers.
"""

__version__ = "0.1.0"

from .numtheory import RandomSource
from .phe import SchemeId

__all__ = ["RandomSource", "SchemeId", "__version__"]
